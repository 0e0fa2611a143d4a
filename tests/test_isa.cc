/**
 * @file
 * Unit tests for the MRISC ISA: op classification, register usage,
 * the program builder, validation, and disassembly.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "isa/instruction.hh"
#include "isa/op.hh"
#include "isa/program.hh"

namespace
{

using namespace imo::isa;

TEST(Op, ClassesAreConsistent)
{
    EXPECT_EQ(opClass(Op::ADD), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::MUL), OpClass::IntMul);
    EXPECT_EQ(opClass(Op::DIV), OpClass::IntDiv);
    EXPECT_EQ(opClass(Op::FADD), OpClass::FpAlu);
    EXPECT_EQ(opClass(Op::FDIV), OpClass::FpDiv);
    EXPECT_EQ(opClass(Op::FSQRT), OpClass::FpSqrt);
    EXPECT_EQ(opClass(Op::LD), OpClass::Load);
    EXPECT_EQ(opClass(Op::FST), OpClass::Store);
    EXPECT_EQ(opClass(Op::PREFETCH), OpClass::Prefetch);
    EXPECT_EQ(opClass(Op::BEQ), OpClass::Branch);
    EXPECT_EQ(opClass(Op::BRMISS), OpClass::Branch);
    EXPECT_EQ(opClass(Op::J), OpClass::Jump);
    EXPECT_EQ(opClass(Op::RETMH), OpClass::Jump);
    EXPECT_EQ(opClass(Op::SETMHAR), OpClass::IntAlu);
    EXPECT_EQ(opClass(Op::NOP), OpClass::Nop);
}

TEST(Op, DataRefPredicates)
{
    for (Op op : {Op::LD, Op::ST, Op::FLD, Op::FST})
        EXPECT_TRUE(isDataRef(op));
    EXPECT_FALSE(isDataRef(Op::PREFETCH));
    EXPECT_FALSE(isDataRef(Op::ADD));
    EXPECT_TRUE(isLoad(Op::LD));
    EXPECT_TRUE(isLoad(Op::FLD));
    EXPECT_FALSE(isLoad(Op::ST));
    EXPECT_TRUE(isStore(Op::FST));
    EXPECT_FALSE(isStore(Op::FLD));
}

TEST(Op, ControlPredicates)
{
    EXPECT_TRUE(isControl(Op::BEQ));
    EXPECT_TRUE(isControl(Op::J));
    EXPECT_TRUE(isControl(Op::RETMH));
    EXPECT_TRUE(isControl(Op::BRMISS));
    EXPECT_FALSE(isControl(Op::LD));
    EXPECT_TRUE(isCondBranch(Op::BNE));
    EXPECT_FALSE(isCondBranch(Op::J));
}

TEST(Op, EveryOpHasAName)
{
    for (int i = 0; i < static_cast<int>(Op::NumOps); ++i) {
        const char *name = opName(static_cast<Op>(i));
        EXPECT_STRNE(name, "?") << "op " << i;
    }
}

// The switch-based classification the op table replaced, kept here as
// the reference it must match for every opcode.
namespace reference
{

OpClass
opClass(Op op)
{
    switch (op) {
      case Op::ADD: case Op::ADDI: case Op::SUB: case Op::AND:
      case Op::ANDI: case Op::OR: case Op::XOR: case Op::SLL:
      case Op::SRL: case Op::SLT: case Op::SLTI: case Op::LI:
      case Op::CVTFI:
      case Op::SETMHAR: case Op::SETMHARR: case Op::GETMHRR:
      case Op::SETMHRR: case Op::SETMHARPC: case Op::SETMHLVL:
        return OpClass::IntAlu;
      case Op::MUL:
        return OpClass::IntMul;
      case Op::DIV:
        return OpClass::IntDiv;
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FMOV:
      case Op::CVTIF:
        return OpClass::FpAlu;
      case Op::FDIV:
        return OpClass::FpDiv;
      case Op::FSQRT:
        return OpClass::FpSqrt;
      case Op::LD: case Op::FLD:
        return OpClass::Load;
      case Op::ST: case Op::FST:
        return OpClass::Store;
      case Op::PREFETCH:
        return OpClass::Prefetch;
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BRMISS: case Op::BRMISS2:
        return OpClass::Branch;
      case Op::J: case Op::JAL: case Op::JR: case Op::RETMH:
        return OpClass::Jump;
      case Op::NOP: case Op::HALT:
        return OpClass::Nop;
      case Op::NumOps:
        break;
    }
    return OpClass::NumClasses;
}

SrcRegs
srcRegs(const Instruction &inst)
{
    SrcRegs out;
    auto add = [&out](std::uint8_t r) { out.reg[out.count++] = r; };

    switch (inst.op) {
      case Op::ADD: case Op::SUB: case Op::MUL: case Op::DIV:
      case Op::AND: case Op::OR: case Op::XOR: case Op::SLT:
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::ST: case Op::FST:
        add(inst.rs1);
        add(inst.rs2);
        break;
      case Op::ADDI: case Op::ANDI: case Op::SLL: case Op::SRL:
      case Op::SLTI: case Op::FSQRT: case Op::FMOV: case Op::CVTIF:
      case Op::CVTFI: case Op::LD: case Op::FLD: case Op::PREFETCH:
      case Op::JR: case Op::SETMHARR: case Op::SETMHRR:
        add(inst.rs1);
        break;
      default:
        break;
    }

    SrcRegs filtered;
    for (std::uint8_t i = 0; i < out.count; ++i) {
        if (out.reg[i] != intReg(0))
            filtered.reg[filtered.count++] = out.reg[i];
    }
    return filtered;
}

int
dstReg(const Instruction &inst)
{
    switch (inst.op) {
      case Op::ADD: case Op::ADDI: case Op::SUB: case Op::MUL:
      case Op::DIV: case Op::AND: case Op::ANDI: case Op::OR:
      case Op::XOR: case Op::SLL: case Op::SRL: case Op::SLT:
      case Op::SLTI: case Op::LI: case Op::CVTFI: case Op::LD:
      case Op::GETMHRR: case Op::JAL:
        return inst.rd == intReg(0) ? -1 : inst.rd;
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FSQRT: case Op::FMOV: case Op::CVTIF: case Op::FLD:
        return inst.rd;
      default:
        return -1;
    }
}

/** Program validation's register-file rules. */
bool
rs1IsFp(Op op)
{
    switch (op) {
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FSQRT: case Op::FMOV: case Op::CVTFI:
        return true;
      default:
        return false;
    }
}

bool
rs2IsFp(Op op)
{
    switch (op) {
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FST:
        return true;
      default:
        return false;
    }
}

bool
writesFp(Op op)
{
    switch (op) {
      case Op::FADD: case Op::FSUB: case Op::FMUL: case Op::FDIV:
      case Op::FSQRT: case Op::FMOV: case Op::CVTIF: case Op::FLD:
        return true;
      default:
        return false;
    }
}

} // namespace reference

TEST(Isa, OpTableMatchesReference)
{
    const std::uint8_t regs[] = {intReg(0), intReg(7), fpReg(3)};
    for (int i = 0; i < static_cast<int>(Op::NumOps); ++i) {
        const Op op = static_cast<Op>(i);
        SCOPED_TRACE(opName(op));
        EXPECT_EQ(opClass(op), reference::opClass(op));
        EXPECT_EQ(isDataRef(op),
                  op == Op::LD || op == Op::ST || op == Op::FLD ||
                  op == Op::FST);
        EXPECT_EQ(isCondBranch(op),
                  reference::opClass(op) == OpClass::Branch);
        EXPECT_EQ(writesFp(op), reference::writesFp(op));
        EXPECT_EQ((opInfo(op).fpSrcs & fpRs1) != 0, reference::rs1IsFp(op));
        EXPECT_EQ((opInfo(op).fpSrcs & fpRs2) != 0, reference::rs2IsFp(op));
        for (const std::uint8_t rs1 : regs) {
            for (const std::uint8_t rs2 : regs) {
                for (const std::uint8_t rd : regs) {
                    const Instruction in{
                        .op = op, .rd = rd, .rs1 = rs1, .rs2 = rs2};
                    const SrcRegs got = srcRegs(in);
                    const SrcRegs want = reference::srcRegs(in);
                    EXPECT_EQ(got.count, want.count)
                        << "rs1 " << int(rs1) << " rs2 " << int(rs2);
                    EXPECT_EQ(got.reg, want.reg)
                        << "rs1 " << int(rs1) << " rs2 " << int(rs2);
                    EXPECT_EQ(dstReg(in), reference::dstReg(in))
                        << "rd " << int(rd);
                }
            }
        }
    }
}

TEST(Instruction, SrcRegsThreeOperand)
{
    Instruction in{.op = Op::ADD, .rd = 3, .rs1 = 1, .rs2 = 2};
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 2);
    EXPECT_EQ(s.reg[0], 1);
    EXPECT_EQ(s.reg[1], 2);
    EXPECT_EQ(dstReg(in), 3);
}

TEST(Instruction, ZeroRegisterCarriesNoDependence)
{
    Instruction in{.op = Op::ADD, .rd = 0, .rs1 = 0, .rs2 = 2};
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 1);
    EXPECT_EQ(s.reg[0], 2);
    EXPECT_EQ(dstReg(in), -1);  // writes to r0 are discarded
}

TEST(Instruction, StoreHasNoDest)
{
    Instruction in{.op = Op::ST, .rs1 = 4, .rs2 = 5};
    EXPECT_EQ(dstReg(in), -1);
    const SrcRegs s = srcRegs(in);
    EXPECT_EQ(s.count, 2);
}

TEST(Instruction, FpRegisterHelpers)
{
    EXPECT_EQ(fpReg(0), 32);
    EXPECT_EQ(fpReg(31), 63);
    EXPECT_TRUE(isFpRegId(fpReg(5)));
    EXPECT_FALSE(isFpRegId(intReg(5)));
}

TEST(Instruction, FldMixesFiles)
{
    Instruction in{.op = Op::FLD, .rd = fpReg(1), .rs1 = intReg(2)};
    EXPECT_EQ(dstReg(in), fpReg(1));
    const SrcRegs s = srcRegs(in);
    ASSERT_EQ(s.count, 1);
    EXPECT_EQ(s.reg[0], intReg(2));
}

TEST(Builder, ForwardLabelPatched)
{
    ProgramBuilder b("t");
    Label skip = b.newLabel();
    b.li(intReg(1), 5);
    b.beq(intReg(1), intReg(0), skip);
    b.li(intReg(2), 7);
    b.bind(skip);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(1).imm, 3);
}

TEST(Builder, BackwardLabelPatched)
{
    ProgramBuilder b("t");
    Label top = b.newLabel();
    b.li(intReg(1), 3);
    b.bind(top);
    b.addi(intReg(1), intReg(1), -1);
    b.bne(intReg(1), intReg(0), top);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(2).imm, 1);
}

TEST(Builder, DataAllocationAlignsAndAdvances)
{
    ProgramBuilder b("t");
    const auto a1 = b.allocData(3, 64);
    const auto a2 = b.allocData(1, 64);
    EXPECT_EQ(a1 % 64, 0u);
    EXPECT_EQ(a2 % 64, 0u);
    EXPECT_GE(a2, a1 + 3 * 8);
}

TEST(Builder, StaticRefIdsAreDense)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 0x20000);
    b.ld(intReg(2), intReg(1), 0);
    b.st(intReg(2), intReg(1), 8);
    b.fld(fpReg(0), intReg(1), 16);
    b.prefetch(intReg(1), 24);  // prefetch gets no ref id
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.numStaticRefs(), 3u);
    EXPECT_EQ(p.inst(1).staticRefId, 0u);
    EXPECT_EQ(p.inst(2).staticRefId, 1u);
    EXPECT_EQ(p.inst(3).staticRefId, 2u);
}

TEST(Builder, SetmharDisableIsZero)
{
    ProgramBuilder b("t");
    b.setmharDisable();
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.inst(0).op, Op::SETMHAR);
    EXPECT_EQ(p.inst(0).imm, 0);
}

TEST(Validate, MissingHaltRejected)
{
    Program p("t");
    p.insts().push_back({.op = Op::NOP});
    std::string why;
    EXPECT_FALSE(p.validate(&why));
    EXPECT_NE(why.find("HALT"), std::string::npos);
}

TEST(Validate, WrongRegisterFileRejected)
{
    Program p("t");
    // FADD with integer register operands.
    p.insts().push_back({.op = Op::FADD, .rd = fpReg(0), .rs1 = intReg(1),
                         .rs2 = fpReg(1)});
    p.insts().push_back({.op = Op::HALT});
    EXPECT_FALSE(p.validate());
}

TEST(Validate, BranchTargetOutOfRangeRejected)
{
    Program p("t");
    p.insts().push_back({.op = Op::J, .imm = 99});
    p.insts().push_back({.op = Op::HALT});
    EXPECT_FALSE(p.validate());
}

TEST(Validate, GoodProgramAccepted)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 1);
    b.halt();
    Program p = b.finish();
    std::string why;
    EXPECT_TRUE(p.validate(&why)) << why;
}

TEST(Disasm, RendersCommonOps)
{
    Instruction add{.op = Op::ADD, .rd = 1, .rs1 = 2, .rs2 = 3};
    EXPECT_EQ(disassemble(add), "add r1, r2, r3");

    Instruction ld{.op = Op::LD, .rd = 4, .rs1 = 5, .imm = 16};
    EXPECT_EQ(disassemble(ld), "ld r4, 16(r5)");

    Instruction fadd{.op = Op::FADD, .rd = fpReg(1), .rs1 = fpReg(2),
                     .rs2 = fpReg(3)};
    EXPECT_EQ(disassemble(fadd), "fadd f1, f2, f3");

    Instruction br{.op = Op::BRMISS, .imm = 12};
    EXPECT_EQ(disassemble(br), "brmiss @12");

    Instruction off{.op = Op::SETMHAR, .imm = 0};
    EXPECT_EQ(disassemble(off), "setmhar off");
}

TEST(Disasm, MarksNonInformingRefs)
{
    Instruction ld{.op = Op::LD, .rd = 1, .rs1 = 2, .imm = 0,
                   .informing = false};
    EXPECT_NE(disassemble(ld).find("!informing"), std::string::npos);
}

TEST(Disasm, WholeProgramHasOneLinePerInst)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 1);
    b.nop();
    b.halt();
    Program p = b.finish();
    const std::string text = disassemble(p);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

} // namespace
