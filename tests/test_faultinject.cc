/**
 * @file
 * Tests for seed-deterministic fault injection: name round-trips,
 * per-point stream independence, end-to-end run reproducibility, and
 * the fault points' observable effects on the timing models.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/faultinject.hh"
#include "isa/builder.hh"
#include "pipeline/simulate.hh"

namespace
{

using namespace imo;

TEST(FaultPoints, NamesRoundTrip)
{
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        const auto point = static_cast<FaultPoint>(i);
        FaultPoint parsed;
        ASSERT_TRUE(faultPointFromName(faultPointName(point), &parsed))
            << faultPointName(point);
        EXPECT_EQ(parsed, point);
    }
    FaultPoint dummy;
    EXPECT_FALSE(faultPointFromName("no-such-point", &dummy));
}

TEST(FaultPoints, ParseFaultSpec)
{
    for (const char *bad :
         {"mshr-exhaustion", "=0.5", "mshr-exhaustion=", "no-such-point=0.5",
          "mshr-exhaustion=1.5", "mshr-exhaustion=-0.1",
          "mshr-exhaustion=0.5x", "mshr-exhaustion=nan"}) {
        FaultSchedule s;
        EXPECT_FALSE(parseFaultSpec(bad, s)) << bad;
        EXPECT_FALSE(s.any()) << bad;
    }
    FaultSchedule s;
    ASSERT_TRUE(parseFaultSpec("mshr-exhaustion=0.25", s));
    EXPECT_EQ(s.probabilityOf(FaultPoint::MshrExhaustion), 0.25);
    ASSERT_TRUE(parseFaultSpec("worker-kill=1", s));
    EXPECT_EQ(s.probabilityOf(FaultPoint::WorkerKill), 1.0);
    EXPECT_EQ(s.probabilityOf(FaultPoint::MshrExhaustion), 0.25);
}

TEST(FaultPoints, DefaultInjectorIsInert)
{
    FaultInjector inert;
    EXPECT_FALSE(inert.enabled());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(inert.fire(FaultPoint::MemLatencySpike));
    EXPECT_EQ(inert.totalFired(), 0u);
}

TEST(FaultPoints, StreamsAreDeterministic)
{
    FaultSchedule sched;
    sched.seed = 42;
    sched.memLatencySpike = 0.3;
    sched.mshrExhaustion = 0.1;

    FaultInjector a(sched), b(sched);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.fire(FaultPoint::MemLatencySpike),
                  b.fire(FaultPoint::MemLatencySpike));
        EXPECT_EQ(a.fire(FaultPoint::MshrExhaustion),
                  b.fire(FaultPoint::MshrExhaustion));
    }
    EXPECT_EQ(a.totalFired(), b.totalFired());
}

TEST(FaultPoints, StreamsArePerPoint)
{
    // Extra draws at one point must not perturb another point's stream.
    FaultSchedule sched;
    sched.seed = 42;
    sched.memLatencySpike = 0.3;
    sched.mispredictStorm = 0.3;

    FaultInjector a(sched), b(sched);
    std::vector<bool> a_storm, b_storm;
    for (int i = 0; i < 1000; ++i) {
        a.fire(FaultPoint::MemLatencySpike);  // interleaved draws
        a_storm.push_back(a.fire(FaultPoint::MispredictStorm));
    }
    for (int i = 0; i < 1000; ++i)
        b_storm.push_back(b.fire(FaultPoint::MispredictStorm));
    EXPECT_EQ(a_storm, b_storm);
}

// --- End-to-end effects on the timing models ----------------------------

isa::Program
coldMissStream()
{
    isa::ProgramBuilder b("miss-stream");
    const std::uint64_t words = 16384;
    const Addr base = b.allocData(words);
    b.li(1, static_cast<std::int64_t>(base));
    b.li(2, static_cast<std::int64_t>(words * 8 / 32));
    isa::Label top = b.newLabel();
    b.bind(top);
    b.ld(3, 1, 0);
    b.addi(1, 1, 32);
    b.addi(2, 2, -1);
    b.bne(2, 0, top);
    b.halt();
    return b.finish();
}

pipeline::RunResult
runWithSchedule(const FaultSchedule &sched, bool ooo,
                Cycle watchdog = 2'000'000)
{
    FaultInjector faults(sched);
    auto machine = ooo ? pipeline::makeOutOfOrderConfig()
                       : pipeline::makeInOrderConfig();
    machine.watchdogCycles = watchdog;
    machine.faults = &faults;
    return pipeline::simulate(coldMissStream(), machine);
}

TEST(FaultInjection, SameSeedSameResult)
{
    FaultSchedule sched;
    sched.seed = 1234;
    sched.memLatencySpike = 0.2;
    sched.mispredictStorm = 0.1;
    sched.mshrExhaustion = 0.05;

    for (const bool ooo : {false, true}) {
        const pipeline::RunResult a = runWithSchedule(sched, ooo);
        const pipeline::RunResult b = runWithSchedule(sched, ooo);
        EXPECT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        EXPECT_EQ(a.mshrFullRejects, b.mshrFullRejects);
        EXPECT_EQ(a.faultsInjected, b.faultsInjected);
        EXPECT_GT(a.faultsInjected, 0u);
    }
}

TEST(FaultInjection, DifferentSeedsDiverge)
{
    FaultSchedule a_sched, b_sched;
    a_sched.memLatencySpike = b_sched.memLatencySpike = 0.2;
    a_sched.seed = 1;
    b_sched.seed = 2;
    const pipeline::RunResult a = runWithSchedule(a_sched, true);
    const pipeline::RunResult b = runWithSchedule(b_sched, true);
    // 4096 cold misses at 20% spike probability: the firing counts of
    // two independent streams virtually never coincide exactly.
    EXPECT_NE(a.faultsInjected, b.faultsInjected);
}

TEST(FaultInjection, LatencySpikesSlowTheRun)
{
    FaultSchedule none;
    FaultSchedule spikes;
    spikes.seed = 3;
    spikes.memLatencySpike = 1.0;

    for (const bool ooo : {false, true}) {
        FaultInjector inert(none);
        auto machine = ooo ? pipeline::makeOutOfOrderConfig()
                           : pipeline::makeInOrderConfig();
        const pipeline::RunResult base =
            pipeline::simulate(coldMissStream(), machine);
        const pipeline::RunResult spiked = runWithSchedule(spikes, ooo);
        ASSERT_TRUE(base.ok);
        ASSERT_TRUE(spiked.ok);
        EXPECT_GT(spiked.cycles, base.cycles);
        EXPECT_EQ(spiked.instructions, base.instructions);
    }
}

TEST(FaultInjection, HardFaultSurfacesAsStructuredError)
{
    FaultSchedule sched;
    sched.seed = 4;
    sched.hardFault = 1.0;
    const pipeline::RunResult r = runWithSchedule(sched, true);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::FaultInjected);
    EXPECT_GT(r.faultsInjected, 0u);
}

TEST(FaultInjection, StuckFillTripsTheWatchdog)
{
    FaultSchedule sched;
    sched.seed = 5;
    sched.stuckFill = 1.0;
    for (const bool ooo : {false, true}) {
        const pipeline::RunResult r =
            runWithSchedule(sched, ooo, /*watchdog=*/10'000);
        ASSERT_FALSE(r.ok);
        EXPECT_EQ(r.error.code, ErrCode::Deadlock);
        EXPECT_FALSE(r.error.context.empty());
    }
}

TEST(FaultInjection, SummaryNamesFiredPoints)
{
    FaultSchedule sched;
    sched.seed = 6;
    sched.memLatencySpike = 1.0;
    FaultInjector faults(sched);
    EXPECT_EQ(faults.summary(), "none");
    EXPECT_TRUE(faults.fire(FaultPoint::MemLatencySpike));
    EXPECT_NE(faults.summary().find("mem-latency-spike=1"),
              std::string::npos);
}

} // namespace
