/**
 * @file
 * Property and fuzz tests for the timing models: slot conservation on
 * random traces, determinism, monotonicity (more cache misses or
 * fewer resources never make a run faster), and the functional
 * executor as the architectural oracle for both models.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "pipeline/simulate.hh"
#include "sweep/sweep.hh"
#include "trace_helpers.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;
using imo::pipeline::InOrderCpu;
using imo::pipeline::OooCpu;
using imo::pipeline::RunResult;
using imo::testhelpers::TraceBuilder;

/** A random-but-well-formed record stream. */
std::vector<func::TraceRecord>
randomTrace(std::uint64_t seed, int n, double miss_rate,
            bool with_traps)
{
    Rng rng(seed);
    TraceBuilder tb;
    for (int i = 0; i < n; ++i) {
        switch (rng.below(6)) {
          case 0:
          case 1:
            tb.alu(static_cast<std::uint8_t>(1 + rng.below(20)),
                   static_cast<std::uint8_t>(1 + rng.below(20)));
            break;
          case 2:
            tb.fpop(static_cast<std::uint8_t>(1 + rng.below(12)),
                    static_cast<std::uint8_t>(1 + rng.below(12)));
            break;
          case 3: {
            const bool miss = rng.chance(miss_rate);
            const MemLevel level = !miss ? MemLevel::L1
                : rng.chance(0.7) ? MemLevel::L2 : MemLevel::Memory;
            const bool trap = with_traps && miss;
            tb.load(static_cast<std::uint8_t>(1 + rng.below(20)),
                    32 * rng.below(512), level, 0, trap);
            if (trap) {
                tb.handler(true);
                tb.alu(24, 24);
                tb.retmh();
                tb.handler(false);
            }
            break;
          }
          case 4:
            tb.store(32 * rng.below(512),
                     rng.chance(miss_rate) ? MemLevel::L2 : MemLevel::L1);
            break;
          case 5:
            tb.at(static_cast<InstAddr>(rng.below(64)));
            tb.branch(rng.chance(0.5), static_cast<InstAddr>(
                rng.below(64)));
            break;
        }
    }
    return tb.take();
}

class TimingFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TimingFuzz, SlotConservationBothMachines)
{
    const auto records = randomTrace(GetParam(), 3000, 0.2, true);
    {
        func::VectorTraceSource src(records);
        OooCpu cpu(pipeline::makeOutOfOrderConfig());
        const RunResult r = cpu.run(src);
        EXPECT_EQ(r.instructions + r.cacheStallSlots + r.otherStallSlots,
                  r.totalSlots());
        EXPECT_EQ(r.instructions, records.size());
    }
    {
        func::VectorTraceSource src(records);
        InOrderCpu cpu(pipeline::makeInOrderConfig());
        const RunResult r = cpu.run(src);
        EXPECT_EQ(r.instructions + r.cacheStallSlots + r.otherStallSlots,
                  r.totalSlots());
        EXPECT_EQ(r.instructions, records.size());
    }
}

TEST_P(TimingFuzz, Deterministic)
{
    const auto records = randomTrace(GetParam(), 2000, 0.15, true);
    func::VectorTraceSource a(records), b(records);
    OooCpu c1(pipeline::makeOutOfOrderConfig());
    OooCpu c2(pipeline::makeOutOfOrderConfig());
    EXPECT_EQ(c1.run(a).cycles, c2.run(b).cycles);
}

TEST_P(TimingFuzz, MoreMissesNeverFaster)
{
    // Upgrade every L1 outcome to an L2 miss: cycles must not drop.
    auto base = randomTrace(GetParam(), 2000, 0.1, false);
    auto worse = base;
    for (auto &rec : worse) {
        if (isa::isDataRef(rec.inst.op) && rec.level == MemLevel::L1)
            rec.level = MemLevel::L2;
    }
    for (const bool ooo : {true, false}) {
        const auto cfg = ooo ? pipeline::makeOutOfOrderConfig()
                             : pipeline::makeInOrderConfig();
        func::VectorTraceSource sa(base), sb(worse);
        Cycle ca, cb;
        if (ooo) {
            OooCpu c1(cfg), c2(cfg);
            ca = c1.run(sa).cycles;
            cb = c2.run(sb).cycles;
        } else {
            InOrderCpu c1(cfg), c2(cfg);
            ca = c1.run(sa).cycles;
            cb = c2.run(sb).cycles;
        }
        EXPECT_LE(ca, cb) << (ooo ? "ooo" : "inorder");
    }
}

TEST_P(TimingFuzz, BiggerRobNeverSlower)
{
    const auto records = randomTrace(GetParam(), 2000, 0.25, false);
    auto small_cfg = pipeline::makeOutOfOrderConfig();
    small_cfg.robSize = 8;
    auto big_cfg = pipeline::makeOutOfOrderConfig();
    big_cfg.robSize = 64;
    func::VectorTraceSource sa(records), sb(records);
    OooCpu c1(small_cfg), c2(big_cfg);
    EXPECT_GE(c1.run(sa).cycles, c2.run(sb).cycles);
}

TEST_P(TimingFuzz, WiderMachineNeverSlower)
{
    const auto records = randomTrace(GetParam(), 2000, 0.1, false);
    auto narrow = pipeline::makeInOrderConfig();
    auto wide = pipeline::makeInOrderConfig();
    wide.fus.intUnits = 4;
    wide.fus.fpUnits = 4;
    func::VectorTraceSource sa(records), sb(records);
    InOrderCpu c1(narrow), c2(wide);
    EXPECT_GE(c1.run(sa).cycles, c2.run(sb).cycles);
}

TEST_P(TimingFuzz, CyclesBoundedBelowByWidth)
{
    const auto records = randomTrace(GetParam(), 2000, 0.0, false);
    func::VectorTraceSource src(records);
    OooCpu cpu(pipeline::makeOutOfOrderConfig());
    const RunResult r = cpu.run(src);
    EXPECT_GE(r.cycles, records.size() / r.issueWidth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(TimingEdge, EmptyTraceIsZeroCycles)
{
    func::VectorTraceSource src({});
    OooCpu cpu(pipeline::makeOutOfOrderConfig());
    const RunResult r = cpu.run(src);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(TimingEdge, SingleInstructionTrace)
{
    TraceBuilder tb;
    tb.alu(1);
    auto src = tb.source();
    InOrderCpu cpu(pipeline::makeInOrderConfig());
    const RunResult r = cpu.run(src);
    EXPECT_EQ(r.instructions, 1u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(TimingEdge, SingleMshrStillCompletes)
{
    auto cfg = pipeline::makeOutOfOrderConfig();
    cfg.mem.mshrs = 1;
    TraceBuilder tb;
    for (int i = 0; i < 500; ++i)
        tb.load(1, 32 * i, MemLevel::Memory);
    auto src = tb.source();
    OooCpu cpu(cfg);
    const RunResult r = cpu.run(src);
    EXPECT_EQ(r.instructions, 500u);
    EXPECT_GT(r.mshrFullRejects, 0u);
}

TEST(TimingEdge, SingleBankSerializes)
{
    auto one_bank = pipeline::makeInOrderConfig();
    one_bank.mem.banks = 1;
    auto two_banks = pipeline::makeInOrderConfig();
    TraceBuilder a, b;
    for (int i = 0; i < 1000; ++i) {
        a.load(1, 32 * (i % 8), MemLevel::L1);
        a.load(2, 32 * (i % 8) + 2048 + 32, MemLevel::L1);
        b.load(1, 32 * (i % 8), MemLevel::L1);
        b.load(2, 32 * (i % 8) + 2048 + 32, MemLevel::L1);
    }
    auto sa = a.source(), sb = b.source();
    InOrderCpu c1(one_bank), c2(two_banks);
    const Cycle t1 = c1.run(sa).cycles;
    const Cycle t2 = c2.run(sb).cycles;
    EXPECT_GT(t1, t2);
}


/** One executor-oracle run: a machine, a suite program, a mode. */
struct OracleCase
{
    std::string machine;
    std::string workload;
    core::InformingMode mode;
};

std::vector<OracleCase>
oracleCases()
{
    std::vector<OracleCase> cases;
    for (const char *machine : {"ooo", "inorder"}) {
        for (const workloads::BenchmarkInfo &b : workloads::suite()) {
            for (const core::InformingMode m :
                 {core::InformingMode::None, core::InformingMode::TrapSingle,
                  core::InformingMode::TrapUnique,
                  core::InformingMode::CondCode})
                cases.push_back({machine, b.name, m});
        }
    }
    return cases;
}

void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << c.machine << " " << c.workload << " "
        << core::informingModeName(c.mode);
}

class ExecutorOracle : public ::testing::TestWithParam<OracleCase>
{
};

// The timing models consume the executor's trace, so what they retire
// and count must be exactly what the executor executed.
TEST_P(ExecutorOracle, SimulateMatchesExecStats)
{
    sweep::SweepPoint p;
    p.machine = GetParam().machine;
    p.workload = GetParam().workload;
    p.mode = GetParam().mode;
    p.handlerLen = 10;
    p.scale = 0.05;
    func::ExecStats es;
    const RunResult r =
        pipeline::simulate(p.buildProgram(), p.resolveConfig(), &es);
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(r.instructions, es.instructions);
    EXPECT_EQ(r.handlerInstructions, es.handlerInstructions);
    EXPECT_EQ(r.dataRefs, es.dataRefs);
    EXPECT_EQ(r.l1Misses, es.l1Misses);
    EXPECT_EQ(r.traps, es.traps);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ExecutorOracle, ::testing::ValuesIn(oracleCases()),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return info.param.machine + "_" + info.param.workload + "_" +
               core::informingModeName(info.param.mode);
    });

} // namespace
