/**
 * @file
 * Randomized property tests over generated MRISC programs: trace
 * continuity, determinism, and the central instrumentation-equivalence
 * property (informing instrumentation never changes architectural
 * results) on programs with random control flow and memory behavior.
 */

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/rng.hh"
#include "core/informing.hh"
#include "func/executor.hh"
#include "isa/builder.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;
using namespace imo::isa;
using imo::func::Executor;

Executor::Config
smallConfig()
{
    return Executor::Config{
        .l1 = {.sizeBytes = 1024, .lineBytes = 32, .assoc = 1},
        .l2 = {.sizeBytes = 8192, .lineBytes = 32, .assoc = 2},
        .maxInstructions = 5'000'000};
}

/**
 * Generate a random but guaranteed-terminating program: a chain of
 * basic blocks, each a counted loop whose body mixes ALU ops, memory
 * references into a random region, data-dependent skips, and FP work.
 * Workload registers r1-r20 only; r21-r23 are loop machinery.
 */
Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("random-" + std::to_string(seed));

    const Addr data = b.allocData(2048, 64);   // 16 KiB playground
    b.initData(data, [&] {
        std::vector<std::uint64_t> init(2048);
        for (auto &w : init)
            w = rng.next();
        return init;
    }());

    b.li(intReg(1), static_cast<std::int64_t>(data));

    const int blocks = 2 + static_cast<int>(rng.below(4));
    for (int blk = 0; blk < blocks; ++blk) {
        const std::int64_t iters = 20 + rng.below(150);
        b.li(intReg(21), 0);
        b.li(intReg(22), iters);
        Label top = b.newLabel();
        b.bind(top);

        const int body = 3 + static_cast<int>(rng.below(10));
        for (int i = 0; i < body; ++i) {
            const auto r = [&] {
                return static_cast<std::uint8_t>(2 + rng.below(19));
            };
            switch (rng.below(8)) {
              case 0:
                b.add(r(), r(), r());
                break;
              case 1:
                b.addi(r(), r(), rng.between(-64, 64));
                break;
              case 2:
                b.xor_(r(), r(), r());
                break;
              case 3: {
                // Random in-bounds load: mask an index register.
                const std::uint8_t idx = r();
                b.andi(idx, idx, 2047 * 8);
                b.andi(idx, idx, ~7ll);
                b.add(intReg(23), intReg(1), idx);
                b.ld(r(), intReg(23), 0);
                break;
              }
              case 4: {
                const std::uint8_t idx = r();
                b.andi(idx, idx, 2047 * 8);
                b.andi(idx, idx, ~7ll);
                b.add(intReg(23), intReg(1), idx);
                b.st(r(), intReg(23), 0);
                break;
              }
              case 5: {
                Label skip = b.newLabel();
                const std::uint8_t c = r();
                b.andi(c, c, 1 + rng.below(7));
                b.beq(c, intReg(0), skip);
                b.addi(r(), r(), 1);
                b.bind(skip);
                break;
              }
              case 6:
                b.cvtif(fpReg(static_cast<std::uint8_t>(rng.below(8))),
                        r());
                break;
              case 7:
                b.fadd(fpReg(static_cast<std::uint8_t>(rng.below(8))),
                       fpReg(static_cast<std::uint8_t>(rng.below(8))),
                       fpReg(static_cast<std::uint8_t>(rng.below(8))));
                break;
            }
        }

        b.addi(intReg(21), intReg(21), 1);
        b.blt(intReg(21), intReg(22), top);
    }
    b.halt();
    return b.finish();
}

class RandomProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomProgram, ValidatesAndTerminates)
{
    const Program p = randomProgram(GetParam());
    std::string why;
    ASSERT_TRUE(p.validate(&why)) << why;
    Executor e(p, smallConfig());
    e.run();
    EXPECT_TRUE(e.state().halted);
}

TEST_P(RandomProgram, TraceIsContinuous)
{
    // The dynamic trace is a single continuous path: each record's nextPc is
    // the following record's pc, and the first record starts at 0.
    const Program p = randomProgram(GetParam());
    Executor e(p, smallConfig());
    func::TraceRecord r;
    InstAddr expect_pc = 0;
    while (e.next(r)) {
        ASSERT_EQ(r.pc, expect_pc);
        expect_pc = r.nextPc;
    }
    EXPECT_EQ(p.inst(expect_pc).op, Op::HALT);
}

TEST_P(RandomProgram, DeterministicReplay)
{
    const Program p = randomProgram(GetParam());
    Executor a(p, smallConfig());
    Executor b(p, smallConfig());
    a.run();
    b.run();
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().l1Misses, b.stats().l1Misses);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.state().ireg[i], b.state().ireg[i]);
}

TEST_P(RandomProgram, InstrumentationPreservesResults)
{
    const Program base = randomProgram(GetParam());
    Executor ref(base, smallConfig());
    ref.run();

    for (const auto mode : {core::InformingMode::TrapSingle,
                            core::InformingMode::TrapUnique,
                            core::InformingMode::CondCode}) {
        const Program inst =
            core::instrument(base, mode, {.length = 10});
        Executor got(inst, smallConfig());
        got.run();
        for (int r = 1; r <= 23; ++r) {
            EXPECT_EQ(got.state().ireg[r], ref.state().ireg[r])
                << core::informingModeName(mode) << " r" << r;
        }
        for (int f = 0; f < 32; ++f) {
            EXPECT_EQ(got.state().freg[f], ref.state().freg[f])
                << core::informingModeName(mode) << " f" << f;
        }
        // Memory contents must match too (spot-check the region).
        for (Addr a = 0x10000; a < 0x10000 + 2048 * 8; a += 8 * 37) {
            EXPECT_EQ(got.mem().read64(a), ref.mem().read64(a))
                << core::informingModeName(mode) << " @" << a;
        }
    }
}

TEST_P(RandomProgram, InstrumentedTraceIsContinuous)
{
    const Program base = randomProgram(GetParam());
    const Program inst = core::instrument(
        base, core::InformingMode::TrapUnique, {.length = 5});
    Executor e(inst, smallConfig());
    func::TraceRecord r;
    InstAddr expect_pc = 0;
    while (e.next(r)) {
        ASSERT_EQ(r.pc, expect_pc);
        expect_pc = r.nextPc;
    }
}

/** Records the outcomes fastForward() reports to its WarmSink. */
class BranchLog final : public func::WarmSink
{
  public:
    void
    condBranch(InstAddr pc, bool taken) override
    {
        outcomes.emplace_back(pc, taken);
    }

    std::vector<std::pair<InstAddr, bool>> outcomes;
};

std::vector<std::uint8_t>
image(const Executor &e)
{
    Serializer s;
    s.beginSection("exec");
    e.save(s);
    s.endSection();
    return s.finish();
}

/**
 * fastForward() @p p in chunks of assorted sizes next to a twin that
 * steps with next(): at every chunk boundary both must agree on the
 * pc, the handler flag and the statistics (handler instructions
 * included, which must also match the records flagged as handler
 * code), at every @p image_every-th boundary and at the end on the
 * checkpoint image, and the warm sink must have seen exactly the
 * predicted branches' outcomes. @return the handler instructions.
 */
std::uint64_t
expectFastForwardMatchesStepping(const Program &p, std::uint64_t seed,
                                 const std::string &name,
                                 std::uint64_t image_every = 1)
{
    Rng sizes(seed);
    Executor stepped(p, smallConfig());
    Executor chunked(p, smallConfig());
    BranchLog log;
    std::vector<std::pair<InstAddr, bool>> expect;
    std::uint64_t handler_records = 0;
    func::TraceRecord r;
    for (std::uint64_t chunk = 0;; ++chunk) {
        const std::uint64_t n = 1 + sizes.below(97);
        std::uint64_t stepped_n = 0;
        while (stepped_n < n && stepped.next(r)) {
            ++stepped_n;
            handler_records += r.handlerCode;
            const Op op = r.inst.op;
            if (op == Op::BEQ || op == Op::BNE || op == Op::BLT ||
                op == Op::BGE)
                expect.emplace_back(r.pc, r.taken);
        }
        EXPECT_EQ(chunked.fastForward(n, &log), stepped_n) << name;
        EXPECT_EQ(chunked.state().pc, stepped.state().pc) << name;
        EXPECT_EQ(chunked.inHandler(), stepped.inHandler()) << name;
        const func::ExecStats &a = chunked.stats();
        const func::ExecStats &b = stepped.stats();
        EXPECT_EQ(a.instructions, b.instructions) << name;
        EXPECT_EQ(a.handlerInstructions, b.handlerInstructions) << name;
        EXPECT_EQ(b.handlerInstructions, handler_records) << name;
        EXPECT_EQ(a.traps, b.traps) << name;
        EXPECT_EQ(a.brmissTaken, b.brmissTaken) << name;
        const bool last = stepped_n < n;
        if (last || chunk % image_every == 0) {
            EXPECT_EQ(image(chunked), image(stepped)) << name;
        }
        if (::testing::Test::HasFailure() || last)
            break;
    }
    EXPECT_TRUE(chunked.state().halted) << name;
    EXPECT_EQ(log.outcomes, expect) << name;
    return chunked.stats().handlerInstructions;
}

TEST_P(RandomProgram, FastForwardMatchesStepping)
{
    const Program base = randomProgram(GetParam());
    for (const auto mode : {core::InformingMode::None,
                            core::InformingMode::TrapSingle,
                            core::InformingMode::TrapUnique,
                            core::InformingMode::CondCode}) {
        const Program p = mode == core::InformingMode::None
            ? base : core::instrument(base, mode, {.length = 4});
        expectFastForwardMatchesStepping(p, GetParam() * 7 + 1,
                                         core::informingModeName(mode));
    }
}

TEST(FastForward, MatchesSteppingThroughMissHandlers)
{
    // A missing workload under both handler dispatch styles, so chunk
    // boundaries fall inside handler spans, at their entries and at
    // their RETMH.
    workloads::WorkloadParams wp;
    wp.scale = 0.02;
    const Program base = workloads::build("compress", wp);
    for (const auto mode : {core::InformingMode::TrapUnique,
                            core::InformingMode::CondCode}) {
        const Program p = core::instrument(base, mode, {.length = 3});
        EXPECT_GT(expectFastForwardMatchesStepping(
                      p, 5, core::informingModeName(mode), 64),
                  1000u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(100, 112));

} // namespace
