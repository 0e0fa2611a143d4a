/**
 * @file
 * Functional-executor tests: baseline instruction semantics, control
 * flow, memory, and trace emission.
 */

#include <gtest/gtest.h>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "func/executor.hh"
#include "isa/builder.hh"

namespace
{

using namespace imo;
using namespace imo::isa;
using imo::func::Executor;
using imo::func::TraceRecord;

Executor::Config
smallConfig()
{
    return Executor::Config{
        .l1 = {.sizeBytes = 1024, .lineBytes = 32, .assoc = 1},
        .l2 = {.sizeBytes = 8192, .lineBytes = 32, .assoc = 2}};
}

std::uint64_t
runAndGetIreg(ProgramBuilder &b, std::uint8_t reg)
{
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    return e.state().ireg[reg];
}

TEST(Exec, IntegerArithmetic)
{
    ProgramBuilder b;
    b.li(intReg(1), 20);
    b.li(intReg(2), 3);
    b.add(intReg(3), intReg(1), intReg(2));
    b.sub(intReg(4), intReg(1), intReg(2));
    b.mul(intReg(5), intReg(1), intReg(2));
    b.div(intReg(6), intReg(1), intReg(2));
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.state().ireg[3], 23u);
    EXPECT_EQ(e.state().ireg[4], 17u);
    EXPECT_EQ(e.state().ireg[5], 60u);
    EXPECT_EQ(e.state().ireg[6], 6u);
}

TEST(Exec, DivideByZeroYieldsZero)
{
    ProgramBuilder b;
    b.li(intReg(1), 42);
    b.div(intReg(2), intReg(1), intReg(3));  // r3 == 0
    b.halt();
    EXPECT_EQ(runAndGetIreg(b, 2), 0u);
}

TEST(Exec, LogicalAndShifts)
{
    ProgramBuilder b;
    b.li(intReg(1), 0b1100);
    b.li(intReg(2), 0b1010);
    b.and_(intReg(3), intReg(1), intReg(2));
    b.or_(intReg(4), intReg(1), intReg(2));
    b.xor_(intReg(5), intReg(1), intReg(2));
    b.sll(intReg(6), intReg(1), 2);
    b.srl(intReg(7), intReg(1), 2);
    b.andi(intReg(8), intReg(1), 0b0100);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.state().ireg[3], 0b1000u);
    EXPECT_EQ(e.state().ireg[4], 0b1110u);
    EXPECT_EQ(e.state().ireg[5], 0b0110u);
    EXPECT_EQ(e.state().ireg[6], 0b110000u);
    EXPECT_EQ(e.state().ireg[7], 0b11u);
    EXPECT_EQ(e.state().ireg[8], 0b0100u);
}

TEST(Exec, ComparisonsAreSigned)
{
    ProgramBuilder b;
    b.li(intReg(1), -5);
    b.li(intReg(2), 3);
    b.slt(intReg(3), intReg(1), intReg(2));
    b.slt(intReg(4), intReg(2), intReg(1));
    b.slti(intReg(5), intReg(1), 0);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.state().ireg[3], 1u);
    EXPECT_EQ(e.state().ireg[4], 0u);
    EXPECT_EQ(e.state().ireg[5], 1u);
}

TEST(Exec, ZeroRegisterAlwaysZero)
{
    ProgramBuilder b;
    b.li(intReg(0), 99);
    b.addi(intReg(1), intReg(0), 7);
    b.halt();
    EXPECT_EQ(runAndGetIreg(b, 1), 7u);
}

TEST(Exec, FloatingPoint)
{
    ProgramBuilder b;
    b.li(intReg(1), 9);
    b.cvtif(fpReg(1), intReg(1));
    b.fsqrt(fpReg(2), fpReg(1));      // 3.0
    b.li(intReg(2), 2);
    b.cvtif(fpReg(3), intReg(2));
    b.fmul(fpReg(4), fpReg(2), fpReg(3));  // 6.0
    b.fadd(fpReg(5), fpReg(4), fpReg(2));  // 9.0
    b.fsub(fpReg(6), fpReg(5), fpReg(3));  // 7.0
    b.fdiv(fpReg(7), fpReg(6), fpReg(3));  // 3.5
    b.cvtfi(intReg(3), fpReg(7));          // 3
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_DOUBLE_EQ(e.state().freg[2], 3.0);
    EXPECT_DOUBLE_EQ(e.state().freg[7], 3.5);
    EXPECT_EQ(e.state().ireg[3], 3u);
}

TEST(Exec, LoadStoreRoundTrip)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(4);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.li(intReg(2), 0xdead);
    b.st(intReg(2), intReg(1), 8);
    b.ld(intReg(3), intReg(1), 8);
    b.halt();
    EXPECT_EQ(runAndGetIreg(b, 3), 0xdeadu);
}

TEST(Exec, DataSegmentInitialized)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(2);
    b.initData(buf, {111, 222});
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.ld(intReg(2), intReg(1), 0);
    b.ld(intReg(3), intReg(1), 8);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.state().ireg[2], 111u);
    EXPECT_EQ(e.state().ireg[3], 222u);
}

TEST(Exec, FloatLoadStoreRoundTrip)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(1);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.li(intReg(2), 7);
    b.cvtif(fpReg(1), intReg(2));
    b.fst(fpReg(1), intReg(1), 0);
    b.fld(fpReg(2), intReg(1), 0);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_DOUBLE_EQ(e.state().freg[2], 7.0);
}

TEST(Exec, CountedLoopRunsExactly)
{
    ProgramBuilder b;
    b.li(intReg(1), 0);
    b.li(intReg(2), 10);
    Label top = b.newLabel();
    b.bind(top);
    b.addi(intReg(3), intReg(3), 2);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), top);
    b.halt();
    EXPECT_EQ(runAndGetIreg(b, 3), 20u);
}

TEST(Exec, JalAndJrImplementCalls)
{
    ProgramBuilder b;
    Label fn = b.newLabel(), over = b.newLabel();
    b.j(over);
    b.bind(fn);
    b.addi(intReg(2), intReg(2), 5);
    b.jr(intReg(9));
    b.bind(over);
    b.jal(intReg(9), fn);
    b.jal(intReg(9), fn);
    b.halt();
    EXPECT_EQ(runAndGetIreg(b, 2), 10u);
}

TEST(Exec, BranchVariants)
{
    ProgramBuilder b;
    b.li(intReg(1), 5);
    b.li(intReg(2), 5);
    Label l1 = b.newLabel(), l2 = b.newLabel();
    b.beq(intReg(1), intReg(2), l1);
    b.li(intReg(10), 1);             // skipped
    b.bind(l1);
    b.bne(intReg(1), intReg(2), l2);
    b.li(intReg(11), 1);             // executed
    b.bind(l2);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.state().ireg[10], 0u);
    EXPECT_EQ(e.state().ireg[11], 1u);
}

TEST(Exec, TraceRecordsCarryOutcomes)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(16);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.ld(intReg(2), intReg(1), 0);
    b.ld(intReg(3), intReg(1), 0);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());

    TraceRecord r;
    ASSERT_TRUE(e.next(r));               // li
    EXPECT_EQ(r.inst.op, Op::LI);
    EXPECT_EQ(r.nextPc, 1u);
    ASSERT_TRUE(e.next(r));               // first ld: cold miss
    EXPECT_EQ(r.addr, buf);
    EXPECT_EQ(r.level, MemLevel::Memory);
    ASSERT_TRUE(e.next(r));               // second ld: hit
    EXPECT_EQ(r.level, MemLevel::L1);
    ASSERT_TRUE(e.next(r));               // halt
    EXPECT_EQ(r.inst.op, Op::HALT);
    EXPECT_FALSE(e.next(r));
}

TEST(Exec, StatsCountClasses)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(8);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.ld(intReg(2), intReg(1), 0);
    b.st(intReg(2), intReg(1), 8);
    b.prefetch(intReg(1), 64);
    Label skip = b.newLabel();
    b.beq(intReg(0), intReg(0), skip);
    b.nop();
    b.bind(skip);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.stats().dataRefs, 2u);
    EXPECT_EQ(e.stats().prefetches, 1u);
    EXPECT_EQ(e.stats().condBranches, 1u);
    EXPECT_EQ(e.stats().takenBranches, 1u);
    EXPECT_EQ(e.stats().instructions, 6u);  // nop skipped
}

TEST(Exec, PrefetchMovesLineIn)
{
    ProgramBuilder b;
    const Addr buf = b.allocData(8);
    b.li(intReg(1), static_cast<std::int64_t>(buf));
    b.prefetch(intReg(1), 0);
    b.ld(intReg(2), intReg(1), 0);
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    e.run();
    EXPECT_EQ(e.stats().l1Misses, 0u);
}

TEST(Exec, RunReturnsInstructionCount)
{
    ProgramBuilder b;
    b.nop();
    b.nop();
    b.halt();
    Program p = b.finish();
    Executor e(p, smallConfig());
    EXPECT_EQ(e.run(), 3u);
    // A halted executor produces nothing further.
    TraceRecord r;
    EXPECT_FALSE(e.next(r));
}

/** Run @p e forward and @return the BadProgram message it raises. */
std::string
badProgramMessage(Executor &e, bool stepwise)
{
    try {
        TraceRecord r;
        if (stepwise) {
            while (e.next(r)) {
            }
        } else {
            e.fastForward(1000);
        }
    } catch (const SimException &ex) {
        EXPECT_EQ(ex.code(), ErrCode::BadProgram);
        return ex.what();
    }
    ADD_FAILURE() << "no BadProgram error";
    return "";
}

TEST(Exec, WildJumpReportsItsTargetOnBothPaths)
{
    // The JR retires; the step after it raises the error, naming the
    // wild target, which stays the architectural pc. Asking again
    // raises the same error.
    ProgramBuilder b;
    b.li(intReg(1), 99999);
    b.jr(intReg(1));
    b.halt();
    const Program p = b.finish();
    for (const bool stepwise : {true, false}) {
        Executor e(p, smallConfig());
        for (int attempt = 0; attempt < 2; ++attempt) {
            const std::string msg = badProgramMessage(e, stepwise);
            EXPECT_NE(msg.find("pc 99999 out of range"), std::string::npos)
                << msg;
            EXPECT_EQ(e.state().pc, 99999u);
            EXPECT_EQ(e.stats().instructions, 2u);
        }
    }
}

TEST(Exec, RunningOffTheEndIsBadProgram)
{
    // A program may place its HALT anywhere; one that jumps over it
    // and runs past its last instruction fails at the pc one past it.
    ProgramBuilder b;
    Label body = b.newLabel();
    b.j(body);
    b.halt();
    b.bind(body);
    b.nop();
    const Program p = b.finish();
    for (const bool stepwise : {true, false}) {
        Executor e(p, smallConfig());
        const std::string msg = badProgramMessage(e, stepwise);
        EXPECT_NE(msg.find("pc 3 out of range"), std::string::npos) << msg;
        EXPECT_EQ(e.state().pc, 3u);
        EXPECT_EQ(e.stats().instructions, 2u);
    }
}

TEST(Exec, FastForwardStopsAtTheRunawayBound)
{
    ProgramBuilder b;
    Label top = b.newLabel();
    b.bind(top);
    b.addi(intReg(1), intReg(1), 1);
    b.j(top);
    b.halt();
    const Program p = b.finish();
    Executor::Config cfg = smallConfig();
    cfg.maxInstructions = 1000;
    Executor e(p, cfg);
    EXPECT_EQ(e.fastForward(600), 600u);
    try {
        e.fastForward(600);
        ADD_FAILURE() << "no RunawayExecution error";
    } catch (const SimException &ex) {
        EXPECT_EQ(ex.code(), ErrCode::RunawayExecution);
    }
    EXPECT_EQ(e.stats().instructions, 1000u);
    EXPECT_EQ(e.state().ireg[1], 500u);
}

TEST(Exec, CheckpointWithNonzeroR0IsRejected)
{
    // The executor reads r0 from its slot, so an image may not set it.
    // Only a corrupt image can: write the section's leading fields by
    // hand, the program fingerprint and then the integer registers.
    ProgramBuilder b;
    b.halt();
    const Program p = b.finish();
    Serializer s;
    s.beginSection("exec");
    s.u64(p.fingerprint());
    s.u64(5);
    for (unsigned r = 1; r < isa::numIntRegs; ++r)
        s.u64(0);
    s.endSection();
    Deserializer d(s.finish());
    d.openSection("exec");
    Executor dst(p, smallConfig());
    try {
        dst.restore(d);
        ADD_FAILURE() << "restore accepted r0 = 5";
    } catch (const SimException &ex) {
        EXPECT_EQ(ex.code(), ErrCode::BadCheckpoint);
        EXPECT_NE(std::string(ex.what()).find("checkpointed r0"),
                  std::string::npos) << ex.what();
    }
}

} // namespace
