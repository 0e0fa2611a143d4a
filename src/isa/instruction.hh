/**
 * @file
 * The MRISC instruction word and register-usage helpers.
 */

#ifndef IMO_ISA_INSTRUCTION_HH
#define IMO_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <limits>

#include "isa/op.hh"

namespace imo::isa
{

/**
 * Register identifiers are unified across the two register files:
 * 0..31 name the integer registers (r0 is hardwired to zero),
 * 32..63 name the floating-point registers.
 */
constexpr std::uint8_t numIntRegs = 32;
constexpr std::uint8_t numFpRegs = 32;
constexpr std::uint8_t numUnifiedRegs = numIntRegs + numFpRegs;

/** @return the unified id of integer register @p i. */
constexpr std::uint8_t intReg(std::uint8_t i) { return i; }

/** @return the unified id of floating-point register @p i. */
constexpr std::uint8_t fpReg(std::uint8_t i) { return numIntRegs + i; }

/** @return true if @p reg names an FP register. */
constexpr bool isFpRegId(std::uint8_t reg) { return reg >= numIntRegs; }

/** Sentinel for "this memory op has no static-reference id". */
constexpr std::uint32_t noRefId = std::numeric_limits<std::uint32_t>::max();

/**
 * One MRISC instruction.
 *
 * Branch and jump targets (and SETMHAR values) are absolute instruction
 * indices stored in @ref imm. Memory operations carry a staticRefId so
 * that instrumentation and profiling can name each static reference.
 */
struct Instruction
{
    Op op = Op::NOP;
    std::uint8_t rd = 0;    //!< destination register (unified id)
    std::uint8_t rs1 = 0;   //!< first source register (unified id)
    std::uint8_t rs2 = 0;   //!< second source register (unified id)
    std::int64_t imm = 0;   //!< immediate / displacement / target

    /**
     * For data references: does this op participate in the informing
     * mechanism? (The paper's alternative of "two sets of memory
     * operations", footnote 1.) Defaults to true: with the MHAR at
     * zero an informing op behaves exactly like a plain one.
     */
    bool informing = true;

    /** Stable id of this static memory reference, or noRefId. */
    std::uint32_t staticRefId = noRefId;
};

/** Up to two register sources of an instruction. */
struct SrcRegs
{
    std::array<std::uint8_t, 2> reg{};
    std::uint8_t count = 0;
};

/**
 * @return the register sources actually read by @p inst, rs1 before
 * rs2, with the unused slot zero. Reads of the hardwired integer zero
 * register carry no dependence: they are compacted out with selects,
 * not a loop, since the wakeup logic of both timing models calls this
 * once per instruction.
 */
inline SrcRegs
srcRegs(const Instruction &inst)
{
    const std::uint8_t n = opInfo(inst.op).srcs;
    const bool use1 = (n >= 1) & (inst.rs1 != intReg(0));
    const bool use2 = (n >= 2) & (inst.rs2 != intReg(0));
    SrcRegs out;
    out.reg[0] = use1 ? inst.rs1 : (use2 ? inst.rs2 : 0);
    out.reg[1] = use1 & use2 ? inst.rs2 : 0;
    out.count = static_cast<std::uint8_t>(use1 + use2);
    return out;
}

/**
 * @return the unified destination register written by @p inst, or -1 if
 * it writes none. Writes to integer r0 are reported as no destination.
 */
inline int
dstReg(const Instruction &inst)
{
    const DstKind kind = opInfo(inst.op).dst;
    const bool none = (kind == DstKind::None) |
        ((kind == DstKind::Int) & (inst.rd == intReg(0)));
    return none ? -1 : inst.rd;
}

} // namespace imo::isa

#endif // IMO_ISA_INSTRUCTION_HH
