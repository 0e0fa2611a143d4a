/**
 * @file
 * The MRISC operation set.
 *
 * MRISC is the small load/store ISA that every simulated program in this
 * repository is written in. It is a conventional 64-bit RISC plus the
 * informing-memory-operation extensions proposed by Horowitz et al.
 * (ISCA 1996):
 *
 *  - a cache-outcome condition code, set by every data memory operation
 *    and tested by BRMISS (conditional branch-and-link-if-miss);
 *  - the Miss Handler Address Register (MHAR) and Miss Handler Return
 *    Register (MHRR) with SETMHAR / RETMH for the low-overhead
 *    cache-miss-trap mechanism.
 */

#ifndef IMO_ISA_OP_HH
#define IMO_ISA_OP_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace imo::isa
{

/** Every MRISC operation. */
enum class Op : std::uint8_t
{
    // Integer ALU.
    ADD,    //!< rd = rs1 + rs2
    ADDI,   //!< rd = rs1 + imm
    SUB,    //!< rd = rs1 - rs2
    MUL,    //!< rd = rs1 * rs2
    DIV,    //!< rd = rs1 / rs2 (0 if rs2 == 0)
    AND,    //!< rd = rs1 & rs2
    ANDI,   //!< rd = rs1 & imm
    OR,     //!< rd = rs1 | rs2
    XOR,    //!< rd = rs1 ^ rs2
    SLL,    //!< rd = rs1 << (imm & 63)
    SRL,    //!< rd = rs1 >> (imm & 63) (logical)
    SLT,    //!< rd = (int64)rs1 < (int64)rs2
    SLTI,   //!< rd = (int64)rs1 < imm
    LI,     //!< rd = imm

    // Floating point (operates on the FP register file).
    FADD,   //!< fd = fs1 + fs2
    FSUB,   //!< fd = fs1 - fs2
    FMUL,   //!< fd = fs1 * fs2
    FDIV,   //!< fd = fs1 / fs2
    FSQRT,  //!< fd = sqrt(fs1)
    FMOV,   //!< fd = fs1
    CVTIF,  //!< fd = (double)(int64)rs1
    CVTFI,  //!< rd = (int64)fs1

    // Memory. Effective address is rs1 + imm.
    LD,     //!< rd = mem64[rs1 + imm]
    ST,     //!< mem64[rs1 + imm] = rs2
    FLD,    //!< fd = mem64[rs1 + imm] (as double bits)
    FST,    //!< mem64[rs1 + imm] = fs2
    PREFETCH, //!< hint: move line at rs1 + imm toward the primary cache

    // Control. Branch/jump targets are absolute instruction indices.
    BEQ,    //!< if (rs1 == rs2) pc = imm
    BNE,    //!< if (rs1 != rs2) pc = imm
    BLT,    //!< if ((int64)rs1 < (int64)rs2) pc = imm
    BGE,    //!< if ((int64)rs1 >= (int64)rs2) pc = imm
    J,      //!< pc = imm
    JAL,    //!< rd = pc + 1; pc = imm
    JR,     //!< pc = rs1

    // Informing-memory-operation extensions.
    SETMHAR,  //!< MHAR = imm (0 disables miss trapping)
    SETMHARR, //!< MHAR = rs1
    GETMHRR,  //!< rd = MHRR
    SETMHRR,  //!< MHRR = rs1
    RETMH,    //!< pc = MHRR; re-enables trapping (handler return)
    BRMISS,   //!< if (cache outcome CC == miss) { MHRR = pc + 1; pc = imm }
    // Extensions sketched in the paper: per-level condition codes
    // (section 2.1's "other levels of the memory hierarchy"), a
    // PC-relative MHAR load (footnote 2), and a trap-level threshold
    // enabling section 4.1.3's switch-on-secondary-miss policy.
    BRMISS2,  //!< like BRMISS, but tests the secondary-cache outcome
    SETMHARPC,//!< MHAR = pc + imm (cheap per-reference handler setup)
    SETMHLVL, //!< trap threshold: 1 = any L1 miss, 2 = L2 misses only

    // Miscellaneous.
    NOP,
    HALT,    //!< terminate the program

    NumOps
};

/** Functional-unit class of an operation, used by the timing models. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpDiv,
    FpSqrt,
    Load,
    Store,
    Prefetch,
    Branch,   //!< conditional branches (incl. BRMISS)
    Jump,     //!< unconditional control transfers (incl. RETMH)
    Nop,      //!< NOP / HALT / register-move to special regs
    NumClasses
};

/** Which register file, if any, an operation writes through rd. */
enum class DstKind : std::uint8_t
{
    None,   //!< no register result (or only a special register)
    Int,    //!< rd names an integer register; writes to r0 are dropped
    Fp,     //!< rd names an FP register
};

/** OpInfo::fpSrcs bits. */
constexpr std::uint8_t fpRs1 = 1;   //!< rs1 names an FP register
constexpr std::uint8_t fpRs2 = 2;   //!< rs2 names an FP register

/** Static properties of one operation. */
struct OpInfo
{
    const char *name = "?";           //!< mnemonic
    OpClass cls = OpClass::Nop;       //!< functional-unit class
    std::uint8_t srcs = 0;            //!< registers read: rs1, then rs2
    std::uint8_t fpSrcs = 0;          //!< fpRs1 | fpRs2 bits
    DstKind dst = DstKind::None;      //!< register file rd names
};

namespace detail
{

struct OpRow
{
    Op op;
    OpInfo info;
};

// One row per operation: the single source of truth for every
// classification helper below. Rows may appear in any order.
inline constexpr OpRow opRows[] = {
    // op           name          class            srcs fpSrcs        dst
    {Op::ADD,       {"add",       OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::ADDI,      {"addi",      OpClass::IntAlu,   1, 0,            DstKind::Int}},
    {Op::SUB,       {"sub",       OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::MUL,       {"mul",       OpClass::IntMul,   2, 0,            DstKind::Int}},
    {Op::DIV,       {"div",       OpClass::IntDiv,   2, 0,            DstKind::Int}},
    {Op::AND,       {"and",       OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::ANDI,      {"andi",      OpClass::IntAlu,   1, 0,            DstKind::Int}},
    {Op::OR,        {"or",        OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::XOR,       {"xor",       OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::SLL,       {"sll",       OpClass::IntAlu,   1, 0,            DstKind::Int}},
    {Op::SRL,       {"srl",       OpClass::IntAlu,   1, 0,            DstKind::Int}},
    {Op::SLT,       {"slt",       OpClass::IntAlu,   2, 0,            DstKind::Int}},
    {Op::SLTI,      {"slti",      OpClass::IntAlu,   1, 0,            DstKind::Int}},
    {Op::LI,        {"li",        OpClass::IntAlu,   0, 0,            DstKind::Int}},
    {Op::FADD,      {"fadd",      OpClass::FpAlu,    2, fpRs1 | fpRs2, DstKind::Fp}},
    {Op::FSUB,      {"fsub",      OpClass::FpAlu,    2, fpRs1 | fpRs2, DstKind::Fp}},
    {Op::FMUL,      {"fmul",      OpClass::FpAlu,    2, fpRs1 | fpRs2, DstKind::Fp}},
    {Op::FDIV,      {"fdiv",      OpClass::FpDiv,    2, fpRs1 | fpRs2, DstKind::Fp}},
    {Op::FSQRT,     {"fsqrt",     OpClass::FpSqrt,   1, fpRs1,        DstKind::Fp}},
    {Op::FMOV,      {"fmov",      OpClass::FpAlu,    1, fpRs1,        DstKind::Fp}},
    {Op::CVTIF,     {"cvtif",     OpClass::FpAlu,    1, 0,            DstKind::Fp}},
    {Op::CVTFI,     {"cvtfi",     OpClass::IntAlu,   1, fpRs1,        DstKind::Int}},
    {Op::LD,        {"ld",        OpClass::Load,     1, 0,            DstKind::Int}},
    {Op::ST,        {"st",        OpClass::Store,    2, 0,            DstKind::None}},
    {Op::FLD,       {"fld",       OpClass::Load,     1, 0,            DstKind::Fp}},
    {Op::FST,       {"fst",       OpClass::Store,    2, fpRs2,        DstKind::None}},
    {Op::PREFETCH,  {"prefetch",  OpClass::Prefetch, 1, 0,            DstKind::None}},
    {Op::BEQ,       {"beq",       OpClass::Branch,   2, 0,            DstKind::None}},
    {Op::BNE,       {"bne",       OpClass::Branch,   2, 0,            DstKind::None}},
    {Op::BLT,       {"blt",       OpClass::Branch,   2, 0,            DstKind::None}},
    {Op::BGE,       {"bge",       OpClass::Branch,   2, 0,            DstKind::None}},
    {Op::J,         {"j",         OpClass::Jump,     0, 0,            DstKind::None}},
    {Op::JAL,       {"jal",       OpClass::Jump,     0, 0,            DstKind::Int}},
    {Op::JR,        {"jr",        OpClass::Jump,     1, 0,            DstKind::None}},
    {Op::SETMHAR,   {"setmhar",   OpClass::IntAlu,   0, 0,            DstKind::None}},
    {Op::SETMHARR,  {"setmharr",  OpClass::IntAlu,   1, 0,            DstKind::None}},
    {Op::GETMHRR,   {"getmhrr",   OpClass::IntAlu,   0, 0,            DstKind::Int}},
    {Op::SETMHRR,   {"setmhrr",   OpClass::IntAlu,   1, 0,            DstKind::None}},
    {Op::RETMH,     {"retmh",     OpClass::Jump,     0, 0,            DstKind::None}},
    {Op::BRMISS,    {"brmiss",    OpClass::Branch,   0, 0,            DstKind::None}},
    {Op::BRMISS2,   {"brmiss2",   OpClass::Branch,   0, 0,            DstKind::None}},
    {Op::SETMHARPC, {"setmharpc", OpClass::IntAlu,   0, 0,            DstKind::None}},
    {Op::SETMHLVL,  {"setmhlvl",  OpClass::IntAlu,   0, 0,            DstKind::None}},
    {Op::NOP,       {"nop",       OpClass::Nop,      0, 0,            DstKind::None}},
    {Op::HALT,      {"halt",      OpClass::Nop,      0, 0,            DstKind::None}},
};

/** Index opRows by opcode. Every byte value has a row, so an invalid
 *  opcode (which program validation rejects) reads the default "?"
 *  row instead of out of bounds. */
consteval std::array<OpInfo, 256>
buildOpTable()
{
    std::array<OpInfo, 256> table{};
    for (const OpRow &row : opRows)
        table[static_cast<std::size_t>(row.op)] = row.info;
    return table;
}

/** True when every opcode below NumOps has exactly one row. */
consteval bool
opRowsComplete()
{
    std::array<int, static_cast<std::size_t>(Op::NumOps)> seen{};
    for (const OpRow &row : opRows) {
        if (row.op >= Op::NumOps)
            return false;
        ++seen[static_cast<std::size_t>(row.op)];
    }
    for (const int n : seen) {
        if (n != 1)
            return false;
    }
    return true;
}

static_assert(opRowsComplete(), "opRows must list every Op exactly once");

inline constexpr std::array<OpInfo, 256> opTable = buildOpTable();

} // namespace detail

// The helpers below run several times per simulated instruction in
// both timing models: each is one table read, with no switch.

/** @return the static properties of @p op. */
constexpr const OpInfo &
opInfo(Op op)
{
    return detail::opTable[static_cast<std::uint8_t>(op)];
}

/** @return the functional-unit class of @p op. */
constexpr OpClass
opClass(Op op)
{
    return opInfo(op).cls;
}

/** @return the mnemonic for @p op ("?" for an invalid opcode). */
constexpr const char *
opName(Op op)
{
    return opInfo(op).name;
}

/** @return true for loads (LD/FLD). Two compares on the op itself: the
 *  executor asks this of an op it has already dispatched on. */
constexpr bool
isLoad(Op op)
{
    return op == Op::LD || op == Op::FLD;
}

/** @return true for stores (ST/FST). */
constexpr bool
isStore(Op op)
{
    return op == Op::ST || op == Op::FST;
}

/** @return true for LD/ST/FLD/FST (PREFETCH excluded: it cannot trap). */
constexpr bool
isDataRef(Op op)
{
    const OpClass cls = opClass(op);
    return cls == OpClass::Load || cls == OpClass::Store;
}

/** @return true for conditional branches (outcome not known at decode). */
constexpr bool
isCondBranch(Op op)
{
    return opClass(op) == OpClass::Branch;
}

/** @return true for any op that may redirect the PC. */
constexpr bool
isControl(Op op)
{
    const OpClass cls = opClass(op);
    return cls == OpClass::Branch || cls == OpClass::Jump;
}

/** @return true if the op writes the FP register file. */
constexpr bool
writesFp(Op op)
{
    return opInfo(op).dst == DstKind::Fp;
}

} // namespace imo::isa

#endif // IMO_ISA_OP_HH
