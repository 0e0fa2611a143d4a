/**
 * @file
 * Timing tests for the out-of-order (MIPS R10000-style) pipeline
 * model: dataflow issue, reorder-buffer and shadow-state limits, both
 * informing trap-dispatch styles, and the section-3.3 MSHR hooks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"

#include "pipeline/ooo/cpu.hh"
#include "pipeline/simulate.hh"
#include "pipeline/timing_util.hh"
#include "trace_helpers.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;
using imo::pipeline::MachineConfig;
using imo::pipeline::OooCpu;
using imo::pipeline::RunResult;
using imo::pipeline::TrapDispatch;
using imo::testhelpers::TraceBuilder;

MachineConfig
cfg()
{
    return pipeline::makeOutOfOrderConfig();
}

RunResult
run(TraceBuilder &tb, const MachineConfig &config)
{
    auto src = tb.source();
    OooCpu cpu(config);
    return cpu.run(src);
}

/** The ordered-map functional-unit table SlotTable must behave as. */
struct RefSlotTable
{
    std::uint32_t units;
    std::map<Cycle, std::uint32_t> used;

    Cycle
    reserve(Cycle earliest)
    {
        Cycle c = earliest;
        while (used.count(c) && used[c] >= units)
            ++c;
        ++used[c];
        return c;
    }

    void
    pruneBelow(Cycle frontier)
    {
        used.erase(used.begin(), used.lower_bound(frontier));
    }

    void
    save(Serializer &s) const
    {
        s.u64(used.size());
        for (const auto &[cycle, count] : used) {
            s.u64(cycle);
            s.u32(count);
        }
    }
};

template <typename Table>
std::vector<std::uint8_t>
imageOf(const Table &table)
{
    Serializer s;
    s.beginSection("slots");
    table.save(s);
    s.endSection();
    return s.finish();
}

TEST(SlotTable, MatchesOrderedMapReference)
{
    constexpr Cycle window = 8192;  // SlotTable's ring size
    for (const std::uint32_t units : {1u, 2u, 3u}) {
        SCOPED_TRACE(units);
        std::mt19937_64 rng(units * 7919);
        pipeline::SlotTable table(units);
        RefSlotTable ref{units, {}};
        Cycle frontier = 0;
        bool wrapped = false, spilled = false, behind = false;
        for (int step = 0; step < 60000; ++step) {
            const std::uint64_t roll = rng() % 1000;
            if (roll < 8) {
                // Advance the frontier: mostly a little, sometimes past
                // the whole window (so the ring wraps and refills).
                const Cycle jump = rng() % 4 == 0
                    ? window + rng() % (2 * window) : rng() % 900;
                frontier += jump;
                if ((frontier / window) != ((frontier - jump) / window))
                    wrapped = true;
                table.pruneBelow(frontier);
                ref.pruneBelow(frontier);
            } else if (roll < 10) {
                // Round-trip through a checkpoint image mid-sequence.
                const std::vector<std::uint8_t> image = imageOf(table);
                Deserializer d(image);
                d.openSection("slots");
                pipeline::SlotTable restored(units);
                restored.restore(d);
                d.closeSection();
                table = restored;
            } else {
                Cycle earliest;
                if (roll < 40) {
                    // Far beyond the window: spills to the ordered map.
                    earliest = frontier + window + rng() % (3 * window);
                    spilled = true;
                } else if (roll < 60 && frontier > 0) {
                    // Behind the freshly pruned window.
                    earliest = frontier - 1 - rng() % std::min<Cycle>(
                        frontier, 2000);
                    behind = true;
                } else {
                    earliest = frontier + rng() % 600;
                }
                ASSERT_EQ(table.reserve(earliest), ref.reserve(earliest))
                    << "step " << step << " earliest " << earliest;
            }
            if (step % 997 == 0) {
                ASSERT_EQ(imageOf(table), imageOf(ref)) << "step " << step;
            }
        }
        EXPECT_EQ(imageOf(table), imageOf(ref));
        EXPECT_TRUE(wrapped && spilled && behind);
    }
}

TEST(Ooo, RejectsInOrderConfig)
{
    try {
        OooCpu cpu(pipeline::makeInOrderConfig());
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
        EXPECT_NE(e.error().message.find("in-order"),
                  std::string::npos);
    }
}

TEST(Ooo, SlotConservation)
{
    TraceBuilder tb;
    for (int i = 0; i < 200; ++i)
        tb.alu(1, 1).load(2, 32 * i,
                          i % 5 ? MemLevel::L1 : MemLevel::Memory);
    const RunResult r = run(tb, cfg());
    EXPECT_EQ(r.instructions + r.cacheStallSlots + r.otherStallSlots,
              r.totalSlots());
}

TEST(Ooo, IndependentIntThroughputIsTwo)
{
    TraceBuilder tb;
    for (int i = 0; i < 4000; ++i)
        tb.alu(static_cast<std::uint8_t>(1 + (i % 8)));
    const RunResult r = run(tb, cfg());
    EXPECT_NEAR(r.ipc(), 2.0, 0.1);
}

TEST(Ooo, DependentChainSerializes)
{
    TraceBuilder tb;
    for (int i = 0; i < 2000; ++i)
        tb.alu(1, 1);
    const RunResult r = run(tb, cfg());
    EXPECT_NEAR(r.ipc(), 1.0, 0.05);
}

TEST(Ooo, HidesMissUnderIndependentWork)
{
    // A long miss followed by plenty of independent work: the OOO
    // machine overlaps them; total time is close to max of the two.
    TraceBuilder with_work;
    with_work.load(1, 0, MemLevel::Memory);
    for (int i = 0; i < 60; ++i)
        with_work.alu(static_cast<std::uint8_t>(2 + i % 8));

    TraceBuilder without_work;
    without_work.load(1, 0, MemLevel::Memory);

    const RunResult rw = run(with_work, cfg());
    const RunResult ro = run(without_work, cfg());
    // 60 extra instructions at ~2 IPC would take 30 cycles standalone;
    // overlapped with a ~75-cycle miss they are nearly free. The ROB
    // (32 entries) limits how much can be in flight past the load.
    EXPECT_LT(rw.cycles, ro.cycles + 30);
}

TEST(Ooo, RobSizeLimitsOverlap)
{
    auto make = [] {
        TraceBuilder tb;
        for (int rep = 0; rep < 50; ++rep) {
            tb.load(1, 32 * (rep % 128), MemLevel::Memory);
            for (int i = 0; i < 60; ++i)
                tb.alu(static_cast<std::uint8_t>(2 + i % 8));
        }
        return tb;
    };
    auto big_cfg = cfg();
    big_cfg.robSize = 128;
    auto small_cfg = cfg();
    small_cfg.robSize = 8;

    auto a = make();
    auto b = make();
    const RunResult rbig = run(a, big_cfg);
    const RunResult rsmall = run(b, small_cfg);
    EXPECT_LT(rbig.cycles + 1000, rsmall.cycles);
}

TEST(Ooo, BranchCheckpointLimitThrottles)
{
    auto make = [] {
        TraceBuilder tb;
        for (int i = 0; i < 2000; ++i) {
            // A branch dependent on a slow producer resolves late,
            // holding its shadow-state checkpoint.
            if (i % 4 == 0)
                tb.mul(1, 1);
            tb.at(7);
            tb.branch(false);
            tb.alu(static_cast<std::uint8_t>(2 + i % 4));
        }
        return tb;
    };
    auto tight = cfg();
    tight.maxUnresolvedBranches = 1;
    auto loose = cfg();
    loose.maxUnresolvedBranches = 8;

    auto a = make();
    auto b = make();
    const RunResult rt = run(a, tight);
    const RunResult rl = run(b, loose);
    EXPECT_GT(rt.cycles, rl.cycles);
}

TEST(Ooo, MispredictsCostCycles)
{
    auto make = [](bool alternating) {
        TraceBuilder tb;
        for (int i = 0; i < 2000; ++i) {
            tb.at(100);
            tb.branch(alternating ? (i % 2 == 0) : true, 100);
            tb.at(static_cast<InstAddr>(101 + (i % 3)));
            tb.alu(1);
        }
        return tb;
    };
    auto predictable = make(false);
    auto random = make(true);
    const RunResult rp = run(predictable, cfg());
    const RunResult rr = run(random, cfg());
    EXPECT_GT(rr.cycles, rp.cycles + 1500);
}

TEST(Ooo, TrapDispatchGatesHandlerFetch)
{
    auto make = [](bool trapped) {
        TraceBuilder tb;
        for (int i = 0; i < 300; ++i) {
            tb.load(1, 32 * (i % 200), MemLevel::L2, 0, trapped);
            if (trapped) {
                tb.handler(true);
                for (int k = 0; k < 10; ++k)
                    tb.alu(24, 24);
                tb.retmh();
                tb.handler(false);
            }
            for (int k = 0; k < 5; ++k)
                tb.alu(static_cast<std::uint8_t>(2 + k % 4));
        }
        return tb;
    };
    auto plain = make(false);
    auto trapping = make(true);
    const RunResult rp = run(plain, cfg());
    const RunResult rt = run(trapping, cfg());
    EXPECT_GT(rt.cycles, rp.cycles);
    EXPECT_EQ(rt.traps, 300u);
    EXPECT_EQ(rt.handlerInstructions, 300u * 11);
}

TEST(Ooo, ExceptionDispatchSlowerThanBranchDispatch)
{
    auto make = [] {
        TraceBuilder tb;
        for (int i = 0; i < 400; ++i) {
            // Older slow work delays the trapped load's arrival at the
            // reorder-buffer head, which only exception-style dispatch
            // waits for.
            tb.mul(3, 3);
            tb.load(1, 32 * (i % 200), MemLevel::L2, 0, true);
            tb.handler(true);
            tb.alu(24, 24);
            tb.retmh();
            tb.handler(false);
            tb.alu(2, 1);
        }
        return tb;
    };
    auto branch_cfg = cfg();
    branch_cfg.trapDispatch = TrapDispatch::BranchStyle;
    auto exc_cfg = cfg();
    exc_cfg.trapDispatch = TrapDispatch::ExceptionStyle;

    auto a = make();
    auto b = make();
    const RunResult rb = run(a, branch_cfg);
    const RunResult re = run(b, exc_cfg);
    EXPECT_GT(re.cycles, rb.cycles);
}

TEST(Ooo, InformingCheckpointPressureSlowsTrapStreams)
{
    auto make = [] {
        TraceBuilder tb;
        for (int i = 0; i < 500; ++i) {
            tb.load(static_cast<std::uint8_t>(1 + i % 4),
                    32 * (i % 256), MemLevel::L2);
            tb.branch(false);
            tb.alu(static_cast<std::uint8_t>(5 + i % 4));
        }
        return tb;
    };
    auto plain = cfg();
    auto pressured = cfg();
    pressured.informingTakesCheckpoint = true;
    pressured.maxUnresolvedBranches = 2;

    auto a = make();
    auto b = make();
    const RunResult rp = run(a, plain);
    const RunResult rr = run(b, pressured);
    EXPECT_GE(rr.cycles, rp.cycles);
}

TEST(Ooo, WrongPathProbesInvalidateOnSquash)
{
    auto config = cfg();
    config.mem.extendedMshrLifetime = true;

    TraceBuilder tb;
    for (int i = 0; i < 500; ++i) {
        // A slow producer delays branch resolution past the wrong-path
        // probes' fill completion, so squashes must invalidate.
        tb.mul(1, 1).mul(1, 1);
        tb.at(50);
        tb.branch(i % 2 == 0, 50);  // alternating: many mispredicts
        tb.at(static_cast<InstAddr>(51 + i % 3));
        tb.load(3, 32 * (i % 64), MemLevel::L1);
    }
    auto src = tb.source();
    OooCpu cpu(config);
    cpu.setWrongPathProbes(2);
    const RunResult r = cpu.run(src);
    EXPECT_GT(r.mispredicts, 100u);
    EXPECT_GT(r.squashInvalidations, 100u);
}

TEST(Ooo, ExtendedLifetimeStillCompletes)
{
    auto config = cfg();
    config.mem.extendedMshrLifetime = true;
    TraceBuilder tb;
    for (int i = 0; i < 2000; ++i)
        tb.load(1, 32 * i, MemLevel::L2);
    const RunResult r = run(tb, config);
    EXPECT_EQ(r.instructions, 2000u);
    // Pinned entries released at graduation: no deadlock, bounded
    // rejects.
    EXPECT_EQ(r.instructions + r.cacheStallSlots + r.otherStallSlots,
              r.totalSlots());
}

TEST(Ooo, FasterThanInOrderOnIrregularMissCode)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.1;
    const auto prog = workloads::build("mdljsp2", wp);
    const RunResult ro = pipeline::simulate(prog, cfg());
    const RunResult ri =
        pipeline::simulate(prog, pipeline::makeInOrderConfig());
    EXPECT_GT(ro.ipc(), ri.ipc());
}

} // namespace
