#include "coherence/machine.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"

namespace imo::coherence
{

namespace
{

/** Delivery attempts per invalidation message before the network is
 *  declared broken (a structured error, never silent corruption). */
constexpr std::uint32_t maxInvalDeliveryAttempts = 3;

/** Order-sensitive FNV-1a, shared with isa::Program::fingerprint(). */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (const char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 0x100000001b3ull;
        }
    }
};

} // namespace

const char *
accessMethodName(AccessMethod method)
{
    switch (method) {
      case AccessMethod::ReferenceCheck: return "ref-check";
      case AccessMethod::EccFault: return "ecc-fault";
      case AccessMethod::Informing: return "informing";
      case AccessMethod::Hardware: return "hardware";
    }
    return "?";
}

CoherentMachine::CoherentMachine(const CoherenceParams &params,
                                 AccessMethod method)
    : _params(params), _method(method),
      _directory(params.processors, params.coherenceUnitBytes)
{
    _params.validate();
    for (std::uint32_t p = 0; p < params.processors; ++p) {
        _procs.push_back(Proc{.clock = 0, .pos = 0, .atBarrier = false,
                              .l1 = memory::SetAssocCache(params.l1),
                              .l2 = memory::SetAssocCache(params.l2)});
    }
}

void
CoherentMachine::registerStats(stats::StatGroup &parent)
{
    const CoherenceResult *r = &_res;
    auto &g = parent.childGroup("coherence");
    auto val = [&](const char *name, const char *desc,
                   std::uint64_t CoherenceResult::*field) {
        g.make<stats::Value>(name, desc, [r, field] { return r->*field; });
    };
    g.make<stats::Value>("exec_time", "max processor completion time",
                         [r] { return r->execTime; });
    val("refs", "references processed", &CoherenceResult::refs);
    val("shared_refs", "references to potentially-shared data",
        &CoherenceResult::sharedRefs);
    val("l1_misses", "primary-cache misses across all processors",
        &CoherenceResult::l1Misses);
    val("lookups", "ref-check or informing protection lookups",
        &CoherenceResult::lookups);
    val("faults", "ECC faults taken", &CoherenceResult::faults);
    val("protocol_events", "directory state changes",
        &CoherenceResult::protocolEvents);
    val("network_rounds", "protocol network round trips",
        &CoherenceResult::networkRounds);
    val("invalidations", "remote copies invalidated",
        &CoherenceResult::invalidations);
    val("dropped_invalidations", "injected invalidation message losses",
        &CoherenceResult::droppedInvalidations);
    val("delayed_acks", "injected protocol ack delays",
        &CoherenceResult::delayedAcks);
    g.make<stats::Value>("compute_cycles", "cycles in local compute",
                         [r] { return r->computeCycles; });
    g.make<stats::Value>("memory_cycles", "cycles in the cache hierarchy",
                         [r] { return r->memoryCycles; });
    g.make<stats::Value>("access_control_cycles",
                         "cycles in lookup/fault/state-change overhead",
                         [r] { return r->accessControlCycles; });
    g.make<stats::Value>("network_cycles", "cycles waiting on the network",
                         [r] { return r->networkCycles; });
    g.make<stats::Value>("barrier_wait_cycles", "cycles waiting at barriers",
                         [r] { return r->barrierWaitCycles; });
    g.make<stats::Derived>("access_control_overhead",
                           "access-control cycles per shared reference",
                           [r] {
        return r->sharedRefs
            ? static_cast<double>(r->accessControlCycles) / r->sharedRefs
            : 0.0;
    });
}

std::uint64_t
CoherentMachine::fingerprintWorkload(const ParallelWorkload &workload)
{
    Fnv fnv;
    fnv.mix(workload.name);
    fnv.mix(workload.streams.size());
    for (const auto &stream : workload.streams) {
        fnv.mix(stream.size());
        for (const TraceItem &item : stream) {
            fnv.mix(static_cast<std::uint64_t>(item.kind));
            fnv.mix(item.addr);
            fnv.mix((item.write ? 1u : 0u) | (item.shared ? 2u : 0u));
            fnv.mix(item.computeBefore);
        }
    }
    return fnv.h;
}

bool
CoherentMachine::chargeCacheAccess(Proc &proc, Addr addr, bool write,
                                   bool force_miss)
{
    if (force_miss)
        proc.l1.invalidate(addr);

    Cycle cost = _params.l1HitCost;
    bool l1_miss = false;

    const memory::CacheAccessResult r1 = proc.l1.access(addr, write);
    if (!r1.hit) {
        l1_miss = true;
        ++_res.l1Misses;
        cost += _params.l1MissPenalty;
        if (r1.writeback)
            proc.l2.access(*r1.writeback, true);
        const memory::CacheAccessResult r2 = proc.l2.access(addr, write);
        if (!r2.hit)
            cost += _params.l2MissPenalty;
    }

    proc.clock += cost;
    _res.memoryCycles += cost;
    return l1_miss;
}

void
CoherentMachine::invalidateRemote(std::uint32_t p, std::uint32_t mask,
                                  Addr addr)
{
    Proc &requester = _procs[p];
    while (mask) {
        const std::uint32_t q = std::countr_zero(mask);
        mask &= mask - 1;

        // The network may lose the invalidation message (injected
        // DroppedInvalidation fault). The protocol retransmits after a
        // timeout -- charged to the requester, which cannot complete
        // its upgrade until every ack arrives. Persistent loss is a
        // structured failure; the directory has already committed the
        // state change atomically, so it stays consistent either way.
        std::uint32_t attempt = 0;
        while (_faults &&
               _faults->fire(FaultPoint::DroppedInvalidation)) {
            ++attempt;
            ++_res.droppedInvalidations;
            _ring.push(requester.clock, "dropped-inval", p, addr);
            IMO_TRACE(_trace, requester.clock, obs::Cat::Coh,
                      "dropped-inval", p, addr);
            if (attempt >= maxInvalDeliveryAttempts) {
                throwWithRing(
                    ErrCode::FaultInjected, _ring,
                    simFormat("invalidation of block 0x%llx on "
                              "processor %u lost %u times (injected "
                              "network fault)",
                              static_cast<unsigned long long>(addr), q,
                              attempt));
            }
            const Cycle retransmit = 2 * _params.messageLatency;
            requester.clock += retransmit;
            _res.networkCycles += retransmit;
        }

        _procs[q].l1.invalidate(addr);
        _procs[q].l2.invalidate(addr);
        ++_res.invalidations;
        IMO_TRACE(_trace, requester.clock, obs::Cat::Coh, "invalidate",
                  p, addr, q);
    }
}

void
CoherentMachine::noteReadonly(std::uint32_t p, Addr addr, bool entering)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p) << 52) | (addr / _params.pageBytes);
    if (entering) {
        ++_roBlocksPerPage[key];
    } else {
        auto it = _roBlocksPerPage.find(key);
        if (it != _roBlocksPerPage.end() && it->second > 0) {
            if (--it->second == 0)
                _roBlocksPerPage.erase(it);
        }
    }
}

bool
CoherentMachine::pageHasReadonly(std::uint32_t p, Addr addr) const
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p) << 52) | (addr / _params.pageBytes);
    return _roBlocksPerPage.contains(key);
}

void
CoherentMachine::refreshKey(std::uint32_t p,
                            const ParallelWorkload &workload)
{
    const Proc &proc = _procs[p];
    if (proc.atBarrier || proc.pos >= workload.streams[p].size()) {
        _keys[p] = idleKey;
        return;
    }
    if (proc.clock >> (64 - keyProcBits)) [[unlikely]] {
        throwWithRing(
            ErrCode::RunawayExecution, _ring,
            simFormat("processor %u clock %llu on workload '%s' is past "
                      "the scheduler's 2^%u-cycle range",
                      p, static_cast<unsigned long long>(proc.clock),
                      workload.name.c_str(), 64 - keyProcBits));
    }
    _keys[p] = proc.clock << keyProcBits | p;
}

void
CoherentMachine::step(std::uint32_t p, const TraceItem &item)
{
    Proc &proc = _procs[p];

    proc.clock += item.computeBefore;
    _res.computeCycles += item.computeBefore;

    ++_res.refs;
    if (item.shared)
        ++_res.sharedRefs;

    const LineState st =
        item.shared ? _directory.state(p, item.addr) : LineState::ReadWrite;

    // With informing access control, a store needing an upgrade must
    // take a miss so its handler runs (READONLY lines are held
    // non-writable); invalid lines were evicted at invalidation time.
    const bool force_miss = _method == AccessMethod::Informing &&
        item.shared && item.write && st != LineState::ReadWrite;

    const bool l1_miss =
        chargeCacheAccess(proc, item.addr, item.write, force_miss);

    // Detection / lookup overhead.
    Cycle ac = 0;
    switch (_method) {
      case AccessMethod::ReferenceCheck:
        if (item.shared) {
            ac += _params.refCheckLookup;
            ++_res.lookups;
        }
        break;
      case AccessMethod::EccFault:
        if (item.shared) {
            if (!item.write && st == LineState::Invalid) {
                ac += _params.eccReadFault;
                ++_res.faults;
            } else if (item.write &&
                       (st == LineState::Invalid ||
                        pageHasReadonly(p, item.addr))) {
                ac += _params.eccWriteFault;
                ++_res.faults;
            }
        }
        break;
      case AccessMethod::Informing:
        if (item.shared && l1_miss) {
            ac += _params.informingLookup;
            ++_res.lookups;
        }
        break;
      case AccessMethod::Hardware:
        // Dedicated hardware detects and resolves protection state
        // with no instruction overhead.
        break;
    }

    // Protocol work.
    if (item.shared) {
        const ProtocolAction action = item.write
            ? _directory.write(p, item.addr)
            : _directory.read(p, item.addr);

        if (action.stateChange) {
            ++_res.protocolEvents;
            _ring.push(proc.clock, item.write ? "dir-write" : "dir-read",
                       p, item.addr);
            IMO_TRACE(_trace, proc.clock, obs::Cat::Coh,
                      item.write ? "dir-write" : "dir-read", p, item.addr);

            // Local state-table update (the ECC faults' cost already
            // includes the handler's state change).
            if (_method == AccessMethod::ReferenceCheck)
                ac += _params.refCheckStateChange;
            else if (_method == AccessMethod::Informing)
                ac += _params.informingStateChange;

            // Page-protection bookkeeping for the ECC method.
            if (!item.write) {
                noteReadonly(p, item.addr, true);
                if (action.downgradedOwner >= 0)
                    noteReadonly(action.downgradedOwner, item.addr, true);
            } else {
                if (st == LineState::ReadOnly)
                    noteReadonly(p, item.addr, false);
                std::uint32_t ro = action.roInvalidateMask;
                while (ro) {
                    const std::uint32_t q = std::countr_zero(ro);
                    ro &= ro - 1;
                    noteReadonly(q, item.addr, false);
                }
            }

            invalidateRemote(p, action.invalidateMask, item.addr);

            Cycle net = _params.distributedHomes
                ? static_cast<Cycle>(action.messages) *
                  _params.messageLatency
                : static_cast<Cycle>(action.networkRounds) *
                  2 * _params.messageLatency;

            // An injected DelayedAck stretches the requester's stall:
            // the final acknowledgement of the protocol transaction
            // sits in the network for extra cycles. Purely a timing
            // perturbation -- protocol state is already committed.
            if (net > 0 && _faults &&
                _faults->fire(FaultPoint::DelayedAck)) {
                const Cycle delay = _faults->schedule().ackDelayCycles;
                net += delay;
                ++_res.delayedAcks;
                _ring.push(proc.clock, "delayed-ack", p, item.addr);
                IMO_TRACE(_trace, proc.clock, obs::Cat::Coh, "delayed-ack",
                          p, item.addr, delay);
            }

            proc.clock += net;
            _res.networkCycles += net;
            _res.networkRounds += action.networkRounds;
        }
    }

    proc.clock += ac;
    _res.accessControlCycles += ac;
}

CoherenceResult
CoherentMachine::run(const ParallelWorkload &workload)
{
    return run(workload, RunHooks{});
}

CoherenceResult
CoherentMachine::run(const ParallelWorkload &workload,
                     const RunHooks &hooks)
{
    sim_throw_if(workload.streams.size() != _procs.size(),
                 ErrCode::BadProgram,
                 "workload '%s' has %zu streams for %zu processors",
                 workload.name.c_str(), workload.streams.size(),
                 _procs.size());

    // Only checkpoint images carry the workload fingerprint, so a run
    // without checkpoint hooks never pays for hashing every item.
    const std::uint64_t fp =
        hooks.resumeImage || hooks.checkpointEveryRefs
            ? fingerprintWorkload(workload)
            : 0;

    if (hooks.resumeImage) {
        Deserializer d(*hooks.resumeImage);
        d.openSection("meta");
        const std::uint64_t saved_fp = d.u64();
        sim_throw_if(saved_fp != fp, ErrCode::BadCheckpoint,
                     "checkpoint was taken for a different workload "
                     "(fingerprint 0x%llx, this one is 0x%llx)",
                     static_cast<unsigned long long>(saved_fp),
                     static_cast<unsigned long long>(fp));
        const std::string saved_name = d.str();
        (void)saved_name;
        const bool has_faults = d.b();
        const bool have_injector = _faults && _faults->enabled();
        sim_throw_if(has_faults && !have_injector, ErrCode::BadCheckpoint,
                     "checkpoint carries fault-injector state but no "
                     "injector is attached");
        sim_throw_if(!has_faults && have_injector, ErrCode::BadCheckpoint,
                     "fault injector attached but the checkpoint has no "
                     "fault-injector state");
        d.closeSection();
        d.openSection("machine");
        restore(d);
        d.closeSection();
        if (has_faults) {
            d.openSection("faults");
            _faults->restore(d);
            d.closeSection();
        }
    } else {
        for (Proc &proc : _procs) {
            proc.clock = 0;
            proc.pos = 0;
            proc.atBarrier = false;
            proc.l1.flushAll();
            proc.l2.flushAll();
        }
        _roBlocksPerPage.clear();
        _ring = DiagRing{};
        _res = CoherenceResult{};
        _res.workload = workload.name;
        _res.method = _method;
    }

    const std::uint32_t n = static_cast<std::uint32_t>(_procs.size());
    _keys.assign(n, idleKey);
    for (std::uint32_t p = 0; p < n; ++p)
        refreshKey(p, workload);

    // Forward-progress watchdog: consecutive scheduler iterations that
    // neither execute a trace item nor release a barrier. Barrier
    // entries are legitimate non-progress but bounded by the processor
    // count between releases, so any configured threshold above n
    // only fires on genuine livelock.
    std::uint64_t stuck = 0;

    for (;;) {
        if (_params.watchdogEvents && stuck > _params.watchdogEvents) {
            throwWithRing(
                ErrCode::Deadlock, _ring,
                simFormat("coherence machine made no forward progress "
                          "for %llu scheduler iterations on workload "
                          "'%s'",
                          static_cast<unsigned long long>(stuck),
                          workload.name.c_str()));
        }

        // Pick the runnable processor with the smallest local clock,
        // lowest index on ties: the minimum key.
        std::uint64_t next = idleKey;
        for (const std::uint64_t key : _keys)
            next = std::min(next, key);

        if (next == idleKey) {
            // Everyone is finished or waiting at a barrier.
            std::uint32_t waiting = 0;
            Cycle maxc = 0;
            for (std::uint32_t p = 0; p < n; ++p) {
                if (_procs[p].atBarrier) {
                    ++waiting;
                    maxc = std::max(maxc, _procs[p].clock);
                }
            }
            if (waiting == 0)
                break;  // all streams exhausted
            for (std::uint32_t p = 0; p < n; ++p) {
                if (!_procs[p].atBarrier)
                    continue;
                _res.barrierWaitCycles += maxc - _procs[p].clock;
                _procs[p].clock = maxc + _params.barrierCost;
                _procs[p].atBarrier = false;
                ++_procs[p].pos;
                refreshKey(p, workload);
            }
            _ring.push(maxc, "barrier-release", waiting);
            IMO_TRACE(_trace, maxc, obs::Cat::Coh, "barrier-release",
                      waiting);
            stuck = 0;
            continue;
        }

        const auto p =
            static_cast<std::uint32_t>(next & ((1u << keyProcBits) - 1));
        Proc &proc = _procs[p];
        const TraceItem &item = workload.streams[p][proc.pos];
        if (item.kind == TraceItem::Kind::Barrier) {
            proc.atBarrier = true;
            _keys[p] = idleKey;
            _ring.push(proc.clock, "barrier-enter", p);
            IMO_TRACE(_trace, proc.clock, obs::Cat::Coh, "barrier-enter",
                      p);
            ++stuck;
            continue;
        }
        // step() moves only processor p's clock, so no other key is
        // stale.
        step(p, item);
        ++proc.pos;
        refreshKey(p, workload);
        stuck = 0;

        if (hooks.checkpointEveryRefs && hooks.onCheckpoint &&
            _res.refs % hooks.checkpointEveryRefs == 0) {
            hooks.onCheckpoint(makeImage(fp), _res.refs);
        }
    }

    _res.execTime = 0;
    for (const Proc &proc : _procs)
        _res.execTime = std::max(_res.execTime, proc.clock);

    panic_if(!_directory.invariantsHold(),
             "coherence invariants violated after '%s'",
             workload.name.c_str());
    return _res;
}

std::vector<std::uint8_t>
CoherentMachine::makeImage(std::uint64_t workload_fp) const
{
    Serializer s;
    const bool has_faults = _faults && _faults->enabled();

    s.beginSection("meta");
    s.u64(workload_fp);
    s.str(_res.workload);
    s.b(has_faults);
    s.endSection();

    s.beginSection("machine");
    save(s);
    s.endSection();

    if (has_faults) {
        s.beginSection("faults");
        _faults->save(s);
        s.endSection();
    }
    return s.finish();
}

void
CoherentMachine::save(Serializer &s) const
{
    s.u32(static_cast<std::uint32_t>(_procs.size()));
    s.u8(static_cast<std::uint8_t>(_method));
    for (const Proc &proc : _procs) {
        s.u64(proc.clock);
        s.u64(proc.pos);
        s.b(proc.atBarrier);
        proc.l1.save(s);
        proc.l2.save(s);
    }

    _directory.save(s);

    // Page-protection counters, sorted for image determinism.
    std::vector<std::uint64_t> keys;
    keys.reserve(_roBlocksPerPage.size());
    for (const auto &[key, count] : _roBlocksPerPage)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    s.u64(keys.size());
    for (const std::uint64_t key : keys) {
        s.u64(key);
        s.u32(_roBlocksPerPage.at(key));
    }

    _ring.save(s);

    s.str(_res.workload);
    s.u64(_res.execTime);
    s.u64(_res.refs);
    s.u64(_res.sharedRefs);
    s.u64(_res.l1Misses);
    s.u64(_res.lookups);
    s.u64(_res.faults);
    s.u64(_res.protocolEvents);
    s.u64(_res.networkRounds);
    s.u64(_res.invalidations);
    s.u64(_res.droppedInvalidations);
    s.u64(_res.delayedAcks);
    s.u64(_res.computeCycles);
    s.u64(_res.memoryCycles);
    s.u64(_res.accessControlCycles);
    s.u64(_res.networkCycles);
    s.u64(_res.barrierWaitCycles);
}

void
CoherentMachine::restore(Deserializer &d)
{
    const std::uint32_t procs = d.u32();
    sim_throw_if(procs != _procs.size(), ErrCode::BadCheckpoint,
                 "checkpointed machine has %u processors, configured "
                 "one has %zu", procs, _procs.size());
    const auto method = static_cast<AccessMethod>(d.u8());
    sim_throw_if(method != _method, ErrCode::BadCheckpoint,
                 "checkpointed machine used access method '%s', "
                 "configured one uses '%s'", accessMethodName(method),
                 accessMethodName(_method));

    for (Proc &proc : _procs) {
        proc.clock = d.u64();
        proc.pos = d.u64();
        proc.atBarrier = d.b();
        proc.l1.restore(d);
        proc.l2.restore(d);
    }

    _directory.restore(d);

    _roBlocksPerPage.clear();
    const std::uint64_t ro_count = d.u64();
    for (std::uint64_t i = 0; i < ro_count; ++i) {
        const std::uint64_t key = d.u64();
        _roBlocksPerPage[key] = d.u32();
    }

    _ring.restore(d);

    _res = CoherenceResult{};
    _res.method = _method;
    _res.workload = d.str();
    _res.execTime = d.u64();
    _res.refs = d.u64();
    _res.sharedRefs = d.u64();
    _res.l1Misses = d.u64();
    _res.lookups = d.u64();
    _res.faults = d.u64();
    _res.protocolEvents = d.u64();
    _res.networkRounds = d.u64();
    _res.invalidations = d.u64();
    _res.droppedInvalidations = d.u64();
    _res.delayedAcks = d.u64();
    _res.computeCycles = d.u64();
    _res.memoryCycles = d.u64();
    _res.accessControlCycles = d.u64();
    _res.networkCycles = d.u64();
    _res.barrierWaitCycles = d.u64();
}

} // namespace imo::coherence
