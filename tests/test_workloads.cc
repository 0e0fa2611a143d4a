/**
 * @file
 * Tests for the 14 synthetic SPEC92-like workload generators: validity,
 * termination, register conventions, scaling, determinism, and the
 * cache-behavior characterization each benchmark is calibrated for.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "func/executor.hh"
#include "pipeline/config.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;
using namespace imo::workloads;
using imo::func::Executor;

Executor::Config
configFor(const pipeline::MachineConfig &mc)
{
    return Executor::Config{.l1 = mc.l1, .l2 = mc.l2};
}

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, BuildsValidProgram)
{
    const auto prog = build(GetParam());
    std::string why;
    EXPECT_TRUE(prog.validate(&why)) << why;
    EXPECT_EQ(prog.name(), GetParam());
    EXPECT_GT(prog.numStaticRefs(), 0u);
}

TEST_P(WorkloadTest, RunsToCompletionInBounds)
{
    const auto prog = build(GetParam());
    Executor e(prog, configFor(pipeline::makeOutOfOrderConfig()));
    const auto insts = e.run();
    EXPECT_GE(insts, 50'000u) << "too small to be meaningful";
    EXPECT_LE(insts, 5'000'000u) << "too slow for the harness";
    EXPECT_TRUE(e.state().halted);
}

TEST_P(WorkloadTest, RespectsHandlerScratchConvention)
{
    // Workload code must not touch r24-r31 (miss-handler scratch).
    const auto prog = build(GetParam());
    for (const auto &in : prog.insts()) {
        const int rd = isa::dstReg(in);
        EXPECT_FALSE(rd >= 24 && rd < 32)
            << "writes handler scratch r" << rd;
        const auto srcs = isa::srcRegs(in);
        for (std::uint8_t i = 0; i < srcs.count; ++i) {
            EXPECT_FALSE(srcs.reg[i] >= 24 && srcs.reg[i] < 32)
                << "reads handler scratch r" << int(srcs.reg[i]);
        }
    }
}

TEST_P(WorkloadTest, ScaleParameterScalesWork)
{
    // Outer-loop multipliers are small integers, so pick scales far
    // enough apart that truncation cannot collapse them.
    WorkloadParams small{.scale = 0.5, .seed = 1};
    WorkloadParams large{.scale = 2.5, .seed = 1};
    Executor es(build(GetParam(), small),
                configFor(pipeline::makeOutOfOrderConfig()));
    Executor el(build(GetParam(), large),
                configFor(pipeline::makeOutOfOrderConfig()));
    const auto ns = es.run();
    const auto nl = el.run();
    EXPECT_GT(nl, ns * 2);
}

TEST_P(WorkloadTest, DeterministicForFixedSeed)
{
    WorkloadParams p{.scale = 0.1, .seed = 77};
    Executor a(build(GetParam(), p),
               configFor(pipeline::makeOutOfOrderConfig()));
    Executor b(build(GetParam(), p),
               configFor(pipeline::makeOutOfOrderConfig()));
    a.run();
    b.run();
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().l1Misses, b.stats().l1Misses);
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(a.state().ireg[r], b.state().ireg[r]);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadTest, [] {
    std::vector<std::string> names;
    for (const auto &info : suite())
        names.push_back(info.name);
    return ::testing::ValuesIn(names);
}());

TEST(Suite, HasFourteenBenchmarksFiveInteger)
{
    EXPECT_EQ(suite().size(), 14u);
    int integer = 0;
    for (const auto &info : suite())
        integer += !info.floatingPoint;
    EXPECT_EQ(integer, 5);
}

TEST(Suite, FindLocatesAndRejects)
{
    EXPECT_NE(find("su2cor"), nullptr);
    EXPECT_EQ(find("nonesuch"), nullptr);
}

/** Calibration: miss behavior that the paper's figures rely on. */
struct MissRateBounds
{
    const char *name;
    double oooLo, oooHi;   //!< L1 miss rate on the 32 KiB 2-way cache
    double inoLo, inoHi;   //!< L1 miss rate on the 8 KiB direct-mapped
};

// Without a printer gtest lists the parameter as its raw bytes, which
// include the name's address: the listed test names, and the ctest
// names discovered from them, would change from build to build.
void
PrintTo(const MissRateBounds &b, std::ostream *os)
{
    *os << b.name;
}

class MissRateTest : public ::testing::TestWithParam<MissRateBounds>
{
};

TEST_P(MissRateTest, MatchesCalibratedRange)
{
    const auto &b = GetParam();
    const auto prog = build(b.name);

    Executor eo(prog, configFor(pipeline::makeOutOfOrderConfig()));
    eo.run();
    const double ooo = eo.stats().l1MissRate();
    EXPECT_GE(ooo, b.oooLo) << "ooo miss rate";
    EXPECT_LE(ooo, b.oooHi) << "ooo miss rate";

    Executor ei(prog, configFor(pipeline::makeInOrderConfig()));
    ei.run();
    const double ino = ei.stats().l1MissRate();
    EXPECT_GE(ino, b.inoLo) << "inorder miss rate";
    EXPECT_LE(ino, b.inoHi) << "inorder miss rate";
}

INSTANTIATE_TEST_SUITE_P(
    Calibration, MissRateTest,
    ::testing::Values(
        // The no-miss extreme (ora) and the conflict pathology
        // (su2cor) anchor Figure 2/3's spread.
        MissRateBounds{"ora", 0.0, 0.02, 0.0, 0.05},
        MissRateBounds{"su2cor", 0.10, 0.45, 0.55, 1.0},
        MissRateBounds{"compress", 0.15, 0.75, 0.3, 0.9},
        MissRateBounds{"tomcatv", 0.3, 0.8, 0.3, 0.9},
        MissRateBounds{"espresso", 0.0, 0.1, 0.0, 0.6},
        MissRateBounds{"xlisp", 0.0, 0.05, 0.0, 0.8},
        MissRateBounds{"alvinn", 0.05, 0.2, 0.05, 0.3},
        MissRateBounds{"doduc", 0.0, 0.1, 0.0, 0.2}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Calibration, Su2corThrashesDirectMappedOnly)
{
    // The defining property of the su2cor reproduction: the in-order
    // machine's direct-mapped L1 suffers far more than the two-way
    // out-of-order L1 (paper Figure 3).
    const auto prog = build("su2cor");
    Executor eo(prog, configFor(pipeline::makeOutOfOrderConfig()));
    Executor ei(prog, configFor(pipeline::makeInOrderConfig()));
    eo.run();
    ei.run();
    EXPECT_GT(ei.stats().l1MissRate(), 2 * eo.stats().l1MissRate());
}

} // namespace
