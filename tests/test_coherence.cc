/**
 * @file
 * Tests for the access-control substrate: the protection directory,
 * the event-driven multiprocessor machine, and the three detection
 * methods' cost accounting (paper section 4.3, Table 2).
 */

#include <gtest/gtest.h>

#include "coherence/directory.hh"
#include "coherence/machine.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/rng.hh"

namespace
{

using namespace imo;
using namespace imo::coherence;

TEST(Directory, ColdBlocksAreInvalid)
{
    Directory d(4, 32);
    EXPECT_EQ(d.state(0, 0x100), LineState::Invalid);
}

TEST(Directory, ReadGrantsReadonly)
{
    Directory d(4, 32);
    const auto a = d.read(1, 0x100);
    EXPECT_FALSE(a.satisfied);
    EXPECT_TRUE(a.stateChange);
    EXPECT_EQ(a.networkRounds, 1u);
    EXPECT_EQ(d.state(1, 0x100), LineState::ReadOnly);
}

TEST(Directory, SecondReadIsSatisfied)
{
    Directory d(4, 32);
    d.read(1, 0x100);
    const auto a = d.read(1, 0x108);  // same 32 B block
    EXPECT_TRUE(a.satisfied);
}

TEST(Directory, WriteGrantsOwnershipAndInvalidates)
{
    Directory d(4, 32);
    d.read(0, 0x100);
    d.read(1, 0x100);
    const auto a = d.write(2, 0x100);
    EXPECT_TRUE(a.stateChange);
    EXPECT_EQ(a.networkRounds, 2u);           // fetch + invalidations
    EXPECT_EQ(a.invalidateMask, 0b0011u);
    EXPECT_EQ(a.roInvalidateMask, 0b0011u);
    EXPECT_EQ(d.state(2, 0x100), LineState::ReadWrite);
    EXPECT_EQ(d.state(0, 0x100), LineState::Invalid);
    EXPECT_EQ(d.state(1, 0x100), LineState::Invalid);
}

TEST(Directory, WriterReadsAreSatisfied)
{
    Directory d(4, 32);
    d.write(3, 0x200);
    EXPECT_TRUE(d.read(3, 0x200).satisfied);
    EXPECT_TRUE(d.write(3, 0x200).satisfied);
}

TEST(Directory, ReadDowngradesRemoteWriter)
{
    Directory d(4, 32);
    d.write(0, 0x300);
    const auto a = d.read(1, 0x300);
    EXPECT_EQ(a.networkRounds, 2u);   // fetch + downgrade
    EXPECT_EQ(a.downgradedOwner, 0);
    EXPECT_EQ(d.state(0, 0x300), LineState::ReadOnly);
    EXPECT_EQ(d.state(1, 0x300), LineState::ReadOnly);
}

TEST(Directory, WriteUpgradeFromReadonly)
{
    Directory d(4, 32);
    d.read(0, 0x400);
    const auto a = d.write(0, 0x400);
    EXPECT_TRUE(a.stateChange);
    EXPECT_EQ(a.invalidateMask, 0u);  // no other copies
    EXPECT_EQ(d.state(0, 0x400), LineState::ReadWrite);
}

TEST(Directory, InvariantsUnderRandomStress)
{
    Rng rng(5);
    Directory d(16, 32);
    for (int i = 0; i < 50000; ++i) {
        const auto p = static_cast<std::uint32_t>(rng.below(16));
        const Addr a = 32 * rng.below(64);
        if (rng.chance(0.3))
            d.write(p, a);
        else
            d.read(p, a);
        // Single-writer/multi-reader must hold continuously.
        if ((i & 1023) == 0) {
            ASSERT_TRUE(d.invariantsHold());
        }
    }
    EXPECT_TRUE(d.invariantsHold());

    // Exhaustive cross-check: a writer excludes all other access.
    for (Addr a = 0; a < 64 * 32; a += 32) {
        int writers = 0, readers = 0;
        for (std::uint32_t p = 0; p < 16; ++p) {
            writers += d.state(p, a) == LineState::ReadWrite;
            readers += d.state(p, a) == LineState::ReadOnly;
        }
        EXPECT_LE(writers, 1);
        if (writers == 1) {
            EXPECT_EQ(readers, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Machine-level behavior.

ParallelWorkload
twoProcWorkload(std::vector<TraceItem> p0, std::vector<TraceItem> p1)
{
    ParallelWorkload wl;
    wl.name = "manual";
    wl.streams = {std::move(p0), std::move(p1)};
    return wl;
}

CoherenceParams
twoProcParams()
{
    CoherenceParams p;
    p.processors = 2;
    return p;
}

TraceItem
ref(Addr a, bool write, std::uint16_t compute = 0)
{
    return TraceItem{TraceItem::Kind::Ref, a, write, true, compute};
}

TraceItem
priv(Addr a, bool write)
{
    return TraceItem{TraceItem::Kind::Ref, a, write, false, 0};
}

TEST(Machine, PrivateRefsCauseNoProtocolWork)
{
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    const auto r = m.run(twoProcWorkload(
        {priv(0x1000, false), priv(0x1000, true), priv(0x1008, false)},
        {}));
    EXPECT_EQ(r.protocolEvents, 0u);
    EXPECT_EQ(r.networkRounds, 0u);
    EXPECT_EQ(r.lookups, 0u);
    EXPECT_EQ(r.refs, 3u);
}

TEST(Machine, FirstSharedTouchIsAnEvent)
{
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    const auto r = m.run(twoProcWorkload({ref(0x100, false)}, {}));
    EXPECT_EQ(r.protocolEvents, 1u);
    EXPECT_EQ(r.networkRounds, 1u);
    EXPECT_EQ(r.lookups, 1u);   // the miss invoked the handler
}

TEST(Machine, RepeatedReadsAreFreeAfterUpgrade)
{
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    std::vector<TraceItem> s;
    for (int i = 0; i < 10; ++i)
        s.push_back(ref(0x100, false));
    const auto r = m.run(twoProcWorkload(std::move(s), {}));
    EXPECT_EQ(r.protocolEvents, 1u);
    EXPECT_EQ(r.lookups, 1u);   // later reads hit the cache
}

TEST(Machine, InformingForcesMissOnWriteUpgrade)
{
    // Read then write the same block: the write needs an upgrade, and
    // under informing access control it must take a primary miss so
    // the handler runs.
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    const auto r = m.run(twoProcWorkload(
        {ref(0x100, false), ref(0x100, true)}, {}));
    EXPECT_EQ(r.protocolEvents, 2u);
    EXPECT_EQ(r.l1Misses, 2u);   // second access forced to miss
    EXPECT_EQ(r.lookups, 2u);
}

TEST(Machine, RefCheckPaysLookupPerSharedRef)
{
    CoherentMachine m(twoProcParams(), AccessMethod::ReferenceCheck);
    std::vector<TraceItem> s;
    for (int i = 0; i < 20; ++i)
        s.push_back(ref(0x100, false));
    const auto r = m.run(twoProcWorkload(std::move(s), {}));
    EXPECT_EQ(r.lookups, 20u);
    const CoherenceParams p = twoProcParams();
    EXPECT_GE(r.accessControlCycles,
              20 * p.refCheckLookup + p.refCheckStateChange);
}

TEST(Machine, EccFaultsOnInvalidReadsOnly)
{
    CoherentMachine m(twoProcParams(), AccessMethod::EccFault);
    std::vector<TraceItem> s;
    s.push_back(ref(0x100, false));  // invalid: fault
    for (int i = 0; i < 5; ++i)
        s.push_back(ref(0x100, false));  // readable: free
    const auto r = m.run(twoProcWorkload(std::move(s), {}));
    EXPECT_EQ(r.faults, 1u);
    EXPECT_EQ(r.accessControlCycles, twoProcParams().eccReadFault);
}

TEST(Machine, EccWriteFaultsOnPagesWithReadonlyData)
{
    // Proc 0 writes block A; proc 1 reads it (A becomes READONLY at
    // proc 0 after downgrade... no: A stays RW at 0 until 1 reads).
    // After proc 1 reads A, proc 0's next write to ANY block on that
    // page faults at page granularity.
    CoherentMachine m(twoProcParams(), AccessMethod::EccFault);
    const auto r = m.run(twoProcWorkload(
        {ref(0x100, true, 0),
         ref(0x100, false, 200),   // later, after p1's read: still RO
         ref(0x140, true, 0)},     // same page, different block
        {ref(0x100, false, 50)}));
    // The write to 0x140 happens on a page holding READONLY data
    // (0x100 was downgraded), so it faults even though 0x140 itself
    // was never shared... it is invalid, which also faults.
    EXPECT_GE(r.faults, 2u);
}

TEST(Machine, InvalidationEvictsRemoteCaches)
{
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    const auto r = m.run(twoProcWorkload(
        {ref(0x100, false, 0), ref(0x100, false, 500)},
        {ref(0x100, true, 100)}));
    // Proc 1's write invalidates proc 0's copy; proc 0's second read
    // must miss and re-fetch: at least 2 events from proc 0 + 1 write.
    EXPECT_GE(r.protocolEvents, 3u);
    EXPECT_GE(r.invalidations, 1u);
    EXPECT_GE(r.l1Misses, 3u);
}

TEST(Machine, BarriersSynchronizeClocks)
{
    CoherenceParams p = twoProcParams();
    CoherentMachine m(p, AccessMethod::Informing);
    // Proc 0 does lots of work before the barrier; proc 1 little.
    std::vector<TraceItem> s0, s1;
    for (int i = 0; i < 50; ++i)
        s0.push_back(priv(0x1000 + 8 * (i % 4), false));
    s0.push_back(TraceItem{TraceItem::Kind::Barrier, 0, false, false, 0});
    s1.push_back(priv(0x2000, false));
    s1.push_back(TraceItem{TraceItem::Kind::Barrier, 0, false, false, 0});
    const auto r = m.run(twoProcWorkload(std::move(s0), std::move(s1)));
    EXPECT_GT(r.barrierWaitCycles, 0u);
}

TEST(Machine, NetworkCyclesMatchRounds)
{
    CoherenceParams p = twoProcParams();
    CoherentMachine m(p, AccessMethod::Informing);
    const auto r = m.run(twoProcWorkload(
        {ref(0x100, false)}, {ref(0x200, true)}));
    EXPECT_EQ(r.networkCycles,
              r.networkRounds * 2 * p.messageLatency);
}

TEST(Machine, DirectoryInvariantsHoldAfterRun)
{
    CoherenceParams p;
    p.processors = 8;
    CoherentMachine m(p, AccessMethod::Informing);
    Rng rng(42);
    ParallelWorkload wl;
    wl.name = "random";
    for (int proc = 0; proc < 8; ++proc) {
        std::vector<TraceItem> s;
        for (int i = 0; i < 2000; ++i) {
            s.push_back(ref(32 * rng.below(128), rng.chance(0.3),
                            static_cast<std::uint16_t>(rng.below(4))));
        }
        wl.streams.push_back(std::move(s));
    }
    const auto r = m.run(wl);  // run() panics if invariants fail
    EXPECT_TRUE(m.directory().invariantsHold());
    EXPECT_EQ(r.refs, 16000u);
}

TEST(Directory, ThreeHopMessageCounting)
{
    Directory d(4, 32);
    // Block 0x100 has home (0x100/32) % 4 = 0.
    ASSERT_EQ(d.homeOf(0x100), 0u);

    // Home-local cold read: no messages at all.
    EXPECT_EQ(d.read(0, 0x100).messages, 0u);

    Directory d2(4, 32);
    // Remote cold read: request + reply.
    EXPECT_EQ(d2.read(1, 0x100).messages, 2u);
    // Dirty-remote read: requester -> home -> owner -> requester.
    Directory d3(4, 32);
    d3.write(1, 0x100);
    EXPECT_EQ(d3.read(2, 0x100).messages, 3u);
    // Write with sharers: request + grant + multicast + ack.
    Directory d4(4, 32);
    d4.read(1, 0x100);
    d4.read(2, 0x100);
    EXPECT_EQ(d4.write(3, 0x100).messages, 4u);
}

TEST(Machine, DistributedHomesChargePerMessage)
{
    CoherenceParams p = twoProcParams();
    p.distributedHomes = true;
    CoherentMachine m(p, AccessMethod::Informing);
    // 0x100 is homed at proc 0 with 2 processors ((0x100/32) % 2 = 0).
    const auto r = m.run(twoProcWorkload({ref(0x100, false)}, {}));
    EXPECT_EQ(r.networkCycles, 0u);  // home-local: no messages

    CoherentMachine m2(p, AccessMethod::Informing);
    const auto r2 = m2.run(twoProcWorkload({}, {ref(0x100, false)}));
    EXPECT_EQ(r2.networkCycles, 2 * p.messageLatency);
}

TEST(Machine, DistributedHomesNeverSlowerThanCentralized)
{
    // Per event, <= 4 one-way messages vs. always >= 2 (1 round trip):
    // the 3-hop model is a refinement that can only reduce latency.
    Rng rng(7);
    ParallelWorkload wl;
    wl.name = "random";
    for (int proc = 0; proc < 2; ++proc) {
        std::vector<TraceItem> s;
        for (int i = 0; i < 3000; ++i)
            s.push_back(ref(32 * rng.below(64), rng.chance(0.3),
                            static_cast<std::uint16_t>(rng.below(4))));
        wl.streams.push_back(std::move(s));
    }
    CoherenceParams central = twoProcParams();
    CoherenceParams dist = twoProcParams();
    dist.distributedHomes = true;
    CoherentMachine mc(central, AccessMethod::Informing);
    CoherentMachine md(dist, AccessMethod::Informing);
    EXPECT_LE(md.run(wl).execTime, mc.run(wl).execTime);
}

TEST(Machine, MethodNames)
{
    EXPECT_STREQ(accessMethodName(AccessMethod::ReferenceCheck),
                 "ref-check");
    EXPECT_STREQ(accessMethodName(AccessMethod::EccFault), "ecc-fault");
    EXPECT_STREQ(accessMethodName(AccessMethod::Informing), "informing");
}

// ---------------------------------------------------------------------
// Robustness: validation, watchdog, fault injection.

TEST(Robustness, BadParamsAreStructuredErrors)
{
    CoherenceParams p;
    p.processors = 0;
    try {
        CoherentMachine m(p, AccessMethod::Informing);
        FAIL() << "zero processors accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }

    CoherenceParams q;
    q.coherenceUnitBytes = 48;  // not a power of two
    EXPECT_THROW(CoherentMachine(q, AccessMethod::Informing),
                 SimException);

    CoherenceParams r;
    r.pageBytes = 16;  // smaller than the coherence unit
    EXPECT_THROW(r.validate(), SimException);
}

TEST(Robustness, BadDirectoryShapeIsAStructuredError)
{
    try {
        Directory d(64, 32);
        FAIL() << "64 processors accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }
    EXPECT_THROW(Directory(4, 48), SimException);
}

TEST(Robustness, StreamCountMismatchIsBadProgram)
{
    CoherentMachine m(twoProcParams(), AccessMethod::Informing);
    ParallelWorkload wl;
    wl.name = "short";
    wl.streams = {{ref(0x100, false)}};  // one stream, two processors
    try {
        m.run(wl);
        FAIL() << "stream-count mismatch accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadProgram);
    }
}

TEST(Robustness, WatchdogTurnsBarrierLivelockIntoDeadlock)
{
    // With a threshold below the processor count, the (legitimate)
    // consecutive barrier entries alone trip the watchdog — a
    // deterministic stand-in for a genuinely livelocked scheduler.
    CoherenceParams p = twoProcParams();
    p.watchdogEvents = 1;
    CoherentMachine m(p, AccessMethod::Informing);
    const TraceItem barrier{TraceItem::Kind::Barrier, 0, false, false, 0};
    try {
        m.run(twoProcWorkload({barrier, ref(0x100, false)},
                              {barrier, ref(0x200, false)}));
        FAIL() << "watchdog did not fire";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::Deadlock);
        // The diagnostic ring travels in the error context.
        bool saw_barrier_event = false;
        for (const std::string &note : e.error().context)
            saw_barrier_event |=
                note.find("barrier-enter") != std::string::npos;
        EXPECT_TRUE(saw_barrier_event);
    }
}

TEST(Robustness, WatchdogDisabledAllowsBarriers)
{
    CoherenceParams p = twoProcParams();
    p.watchdogEvents = 0;
    CoherentMachine m(p, AccessMethod::Informing);
    const TraceItem barrier{TraceItem::Kind::Barrier, 0, false, false, 0};
    const auto r = m.run(twoProcWorkload(
        {barrier, ref(0x100, false)}, {barrier, ref(0x200, false)}));
    EXPECT_EQ(r.refs, 2u);
}

TEST(Robustness, ClockPastSchedulerRangeIsAStructuredError)
{
    // The scheduler packs clock << 5 | processor into 64 bits; a clock
    // that no longer fits must not wrap into a wrong schedule.
    CoherenceParams p = twoProcParams();
    p.barrierCost = Cycle{1} << 60;
    CoherentMachine m(p, AccessMethod::Informing);
    const TraceItem barrier{TraceItem::Kind::Barrier, 0, false, false, 0};
    try {
        m.run(twoProcWorkload({barrier, ref(0x100, false)},
                              {barrier, ref(0x200, false)}));
        FAIL() << "clock overflow accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::RunawayExecution);
    }
}

TEST(Robustness, DroppedInvalidationRetransmitsAndRecovers)
{
    // Per-message drop probability low enough that three consecutive
    // losses (the give-up threshold) are never drawn with this seed:
    // the protocol must recover by retransmitting, charge the extra
    // network cycles, and leave the directory consistent.
    CoherenceParams p = twoProcParams();
    FaultSchedule sched;
    sched.seed = 3;
    sched.droppedInvalidation = 0.25;

    Rng rng(17);
    ParallelWorkload wl;
    wl.name = "inval-storm";
    for (int proc = 0; proc < 2; ++proc) {
        std::vector<TraceItem> s;
        for (int i = 0; i < 2000; ++i)
            s.push_back(ref(32 * rng.below(16), rng.chance(0.5)));
        wl.streams.push_back(std::move(s));
    }

    CoherentMachine clean(p, AccessMethod::Informing);
    const auto base = clean.run(wl);

    CoherentMachine faulty(p, AccessMethod::Informing);
    FaultInjector faults(sched);
    faulty.setFaultInjector(&faults);
    try {
        const auto r = faulty.run(wl);
        // Recovered: all invalidations eventually delivered, protocol
        // outcome identical, only the network time differs.
        EXPECT_GT(r.droppedInvalidations, 0u);
        EXPECT_EQ(r.invalidations, base.invalidations);
        EXPECT_EQ(r.protocolEvents, base.protocolEvents);
        EXPECT_GT(r.networkCycles, base.networkCycles);
    } catch (const SimException &e) {
        // Or the loss persisted: a structured error is acceptable —
        // silent corruption is not.
        EXPECT_EQ(e.error().code, ErrCode::FaultInjected);
    }
    EXPECT_TRUE(faulty.directory().invariantsHold());
}

TEST(Robustness, PersistentInvalidationLossIsAStructuredError)
{
    CoherenceParams p = twoProcParams();
    FaultSchedule sched;
    sched.seed = 1;
    sched.droppedInvalidation = 1.0;  // every delivery attempt lost

    CoherentMachine m(p, AccessMethod::Informing);
    FaultInjector faults(sched);
    m.setFaultInjector(&faults);
    try {
        // Proc 0 reads the block, proc 1 writes it: the write must
        // invalidate proc 0's copy, and every message is lost.
        m.run(twoProcWorkload({ref(0x100, false)},
                              {ref(0x100, true, 100)}));
        FAIL() << "persistent message loss went unnoticed";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::FaultInjected);
    }
    // The directory committed the write atomically before the
    // invalidation round: still consistent.
    EXPECT_TRUE(m.directory().invariantsHold());
}

TEST(Robustness, DelayedAcksStretchNetworkTimeOnly)
{
    // One active processor (the second stream is empty) so the event
    // interleaving — and with it the protocol outcome — is identical
    // with and without the injected delays; only the time changes.
    CoherenceParams p = twoProcParams();
    FaultSchedule sched;
    sched.seed = 9;
    sched.delayedAck = 1.0;  // every protocol transaction delayed

    Rng rng(23);
    ParallelWorkload wl;
    wl.name = "ack-delay";
    std::vector<TraceItem> s;
    for (int i = 0; i < 500; ++i)
        s.push_back(ref(32 * rng.below(32), rng.chance(0.3)));
    wl.streams = {std::move(s), {}};

    CoherentMachine clean(p, AccessMethod::Informing);
    const auto base = clean.run(wl);

    CoherentMachine slow(p, AccessMethod::Informing);
    FaultInjector faults(sched);
    slow.setFaultInjector(&faults);
    const auto r = slow.run(wl);

    EXPECT_GT(r.delayedAcks, 0u);
    EXPECT_EQ(r.protocolEvents, base.protocolEvents);
    EXPECT_EQ(r.invalidations, base.invalidations);
    EXPECT_EQ(r.networkCycles,
              base.networkCycles +
                  r.delayedAcks * sched.ackDelayCycles);
    EXPECT_GE(r.execTime, base.execTime);
    EXPECT_TRUE(slow.directory().invariantsHold());
}

} // namespace
