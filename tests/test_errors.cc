/**
 * @file
 * Tests for the structured error model: SimException mechanics,
 * configuration validation, static program verification, and the
 * watchdog/runaway conversion of non-terminating runs into structured
 * errors (pipeline::simulate() must never throw for input failures).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"
#include "common/faultinject.hh"
#include "isa/builder.hh"
#include "isa/verify.hh"
#include "pipeline/simulate.hh"

namespace
{

using namespace imo;

// --- SimException mechanics ---------------------------------------------

TEST(SimError, ThrowSimErrorFormatsAndCarriesCode)
{
    try {
        throwSimError(ErrCode::BadConfig, "width %u is bad", 7u);
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
        EXPECT_EQ(e.error().message, "width 7 is bad");
        EXPECT_NE(std::string(e.what()).find("BadConfig"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("width 7 is bad"),
                  std::string::npos);
    }
}

TEST(SimError, ContextChainAppearsInWhat)
{
    SimException e(ErrCode::Deadlock, "stuck");
    e.withContext("first note").withContext("second note");
    ASSERT_EQ(e.error().context.size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("first note"), std::string::npos);
    EXPECT_NE(what.find("second note"), std::string::npos);
}

TEST(SimError, SimThrowIfFalseDoesNotThrow)
{
    EXPECT_NO_THROW(
        sim_throw_if(false, ErrCode::BadConfig, "unreachable"));
}

TEST(SimError, CodeNamesAreStable)
{
    EXPECT_STREQ(errCodeName(ErrCode::BadProgram), "BadProgram");
    EXPECT_STREQ(errCodeName(ErrCode::RunawayExecution),
                 "RunawayExecution");
    EXPECT_STREQ(errCodeName(ErrCode::FaultInjected), "FaultInjected");
}

// --- Configuration validation -------------------------------------------

ErrCode
validationCode(const pipeline::MachineConfig &machine)
{
    try {
        machine.validate();
    } catch (const SimException &e) {
        return e.error().code;
    }
    return ErrCode::None;
}

TEST(ConfigValidate, DefaultsAreValid)
{
    EXPECT_NO_THROW(pipeline::makeOutOfOrderConfig().validate());
    EXPECT_NO_THROW(pipeline::makeInOrderConfig().validate());
}

TEST(ConfigValidate, ZeroIssueWidth)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.issueWidth = 0;
    EXPECT_EQ(validationCode(machine), ErrCode::BadConfig);
}

TEST(ConfigValidate, ZeroRob)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.robSize = 0;
    EXPECT_EQ(validationCode(machine), ErrCode::BadConfig);
}

// Memory ops may share the integer units only in order; an
// out-of-order machine without a memory unit is rejected, not given one.
TEST(ConfigValidate, OooZeroMemUnits)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.fus.memUnits = 0;
    EXPECT_EQ(validationCode(machine), ErrCode::BadConfig);
    const auto in_order = pipeline::makeInOrderConfig();
    EXPECT_EQ(in_order.fus.memUnits, 0u);
    EXPECT_TRUE(in_order.check().empty());
}

TEST(ConfigValidate, NonPowerOfTwoLine)
{
    auto machine = pipeline::makeInOrderConfig();
    machine.l1.lineBytes = 48;
    EXPECT_EQ(validationCode(machine), ErrCode::BadConfig);
}

TEST(ConfigValidate, InconsistentMemoryLatencies)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.mem.memLatency = machine.mem.l2Latency - 1;
    EXPECT_EQ(validationCode(machine), ErrCode::BadConfig);
}

TEST(ConfigValidate, CollectsEveryProblem)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.issueWidth = 0;
    machine.mem.mshrs = 0;
    machine.robSize = 0;
    EXPECT_GE(machine.check().size(), 3u);
    try {
        machine.validate();
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        // First problem in the message, the rest as context notes.
        EXPECT_GE(e.error().context.size(), 2u);
    }
}

// --- Static program verification ----------------------------------------

isa::Program
countedLoop(std::uint32_t trips)
{
    isa::ProgramBuilder b("counted-loop");
    const Addr base = b.allocData(64);
    b.li(1, static_cast<std::int64_t>(base));
    b.li(2, trips);
    isa::Label top = b.newLabel();
    b.bind(top);
    b.ld(3, 1, 0);
    b.addi(2, 2, -1);
    b.bne(2, 0, top);
    b.halt();
    return b.finish();
}

TEST(VerifyProgram, AcceptsWellFormedLoop)
{
    EXPECT_NO_THROW(isa::verifyProgram(countedLoop(4)));
}

TEST(VerifyProgram, RejectsWildBranchTarget)
{
    isa::Program prog = countedLoop(4);
    for (auto &in : prog.insts()) {
        if (in.op == isa::Op::BNE)
            in.imm = static_cast<std::int64_t>(prog.size()) + 100;
    }
    try {
        isa::verifyProgram(prog);
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadProgram);
    }
}

TEST(VerifyProgram, RejectsBadRegisterId)
{
    isa::Program prog = countedLoop(4);
    prog.insts()[2].rs1 = isa::numUnifiedRegs + 5;
    try {
        isa::verifyProgram(prog);
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadProgram);
    }
}

TEST(VerifyProgram, RejectsUnreachableHalt)
{
    // top: j top; halt   — the HALT exists but can never execute.
    isa::ProgramBuilder b("spin");
    isa::Label top = b.newLabel();
    b.bind(top);
    b.j(top);
    b.halt();
    const isa::Program prog = b.finish();
    try {
        isa::verifyProgram(prog);
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadProgram);
        EXPECT_NE(e.error().message.find("HALT"), std::string::npos);
    }
}

// --- simulate(): structured results, never throws -----------------------

TEST(SimulateErrors, BadConfigComesBackStructured)
{
    auto machine = pipeline::makeOutOfOrderConfig();
    machine.issueWidth = 0;
    const pipeline::RunResult r = pipeline::simulate(countedLoop(4),
                                                     machine);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadConfig);
}

TEST(SimulateErrors, RunawayLoopIsBounded)
{
    // bne is always taken (r3 pinned to 1): statically the HALT is
    // reachable, dynamically it never is.
    isa::ProgramBuilder b("runaway");
    b.li(3, 1);
    isa::Label top = b.newLabel();
    b.bind(top);
    b.addi(4, 4, 1);
    b.bne(3, 0, top);
    b.halt();
    const isa::Program prog = b.finish();

    auto machine = pipeline::makeInOrderConfig();
    machine.maxInstructions = 10'000;
    const pipeline::RunResult r = pipeline::simulate(prog, machine);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::RunawayExecution);
}

TEST(SimulateErrors, WildIndirectJumpIsBadProgram)
{
    isa::ProgramBuilder b("wild-jr");
    b.li(1, 99999);
    b.jr(1);
    b.halt();
    const isa::Program prog = b.finish();

    const pipeline::RunResult r =
        pipeline::simulate(prog, pipeline::makeOutOfOrderConfig());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadProgram);
}

isa::Program
coldMissStream()
{
    // Walk 128 KiB with one load per 32-byte line: every reference is
    // a cold miss in both reference cache levels.
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

TEST(SimulateErrors, MshrLivelockBecomesDeadlock)
{
    FaultSchedule sched;
    sched.seed = 11;
    sched.mshrExhaustion = 1.0;  // every allocation attempt refused
    FaultInjector faults(sched);

    auto machine = pipeline::makeOutOfOrderConfig();
    machine.watchdogCycles = 10'000;
    machine.faults = &faults;

    const pipeline::RunResult r = pipeline::simulate(coldMissStream(),
                                                     machine);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::Deadlock);
    EXPECT_NE(r.error.message.find("rejected"), std::string::npos);
    // The deadlock report carries the recent-event ring as context.
    EXPECT_FALSE(r.error.context.empty());
    EXPECT_GT(r.faultsInjected, 0u);
}

TEST(SimulateErrors, InOrderWatchdogAlsoFires)
{
    FaultSchedule sched;
    sched.seed = 13;
    sched.mshrExhaustion = 1.0;
    FaultInjector faults(sched);

    auto machine = pipeline::makeInOrderConfig();
    machine.watchdogCycles = 10'000;
    machine.faults = &faults;

    const pipeline::RunResult r = pipeline::simulate(coldMissStream(),
                                                     machine);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::Deadlock);
}

} // namespace
