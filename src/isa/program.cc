#include "isa/program.hh"

#include <cstdio>
#include <set>

namespace imo::isa
{

namespace
{

bool
complain(std::string *why, const char *fmt, InstAddr pc, const char *extra)
{
    if (why) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), fmt, pc, extra);
        *why = buf;
    }
    return false;
}

bool
hasImmTarget(Op op)
{
    switch (op) {
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::J: case Op::JAL: case Op::BRMISS: case Op::BRMISS2:
      case Op::SETMHAR:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

bool
Program::validate(std::string *why) const
{
    bool has_halt = false;
    std::set<std::uint32_t> ref_ids;

    for (InstAddr pc = 0; pc < size(); ++pc) {
        const Instruction &in = _insts[pc];

        if (in.op >= Op::NumOps)
            return complain(why, "pc %u: bad opcode%s", pc, "");

        if (in.op == Op::HALT)
            has_halt = true;

        auto check_reg = [&](std::uint8_t reg, bool want_fp,
                             const char *role) -> bool {
            if (reg >= numUnifiedRegs)
                return complain(why, "pc %u: %s register out of range",
                                pc, role);
            if (isFpRegId(reg) != want_fp)
                return complain(why, "pc %u: %s register in wrong file",
                                pc, role);
            return true;
        };

        const OpInfo &info = opInfo(in.op);
        if (info.srcs >= 1 &&
            !check_reg(in.rs1, info.fpSrcs & fpRs1, "rs1"))
            return false;
        if (info.srcs >= 2 &&
            !check_reg(in.rs2, info.fpSrcs & fpRs2, "rs2"))
            return false;
        if (dstReg(in) >= 0 &&
            !check_reg(static_cast<std::uint8_t>(dstReg(in)),
                       writesFp(in.op), "rd")) {
            return false;
        }

        if (hasImmTarget(in.op)) {
            const bool disable_mhar = in.op == Op::SETMHAR && in.imm == 0;
            if (!disable_mhar &&
                (in.imm < 0 || in.imm >= static_cast<std::int64_t>(size())))
                return complain(why, "pc %u: control target out of range%s",
                                pc, "");
        }

        if (in.op == Op::SETMHARPC) {
            const std::int64_t target = static_cast<std::int64_t>(pc)
                + in.imm;
            if (target < 0 || target >= static_cast<std::int64_t>(size()))
                return complain(why,
                                "pc %u: pc-relative MHAR out of range%s",
                                pc, "");
        }
        if (in.op == Op::SETMHLVL && (in.imm < 1 || in.imm > 2))
            return complain(why, "pc %u: bad trap level%s", pc, "");

        if (isDataRef(in.op) && in.staticRefId != noRefId)
            ref_ids.insert(in.staticRefId);
    }

    if (!has_halt)
        return complain(why, "program has no HALT (size %u)%s", size(), "");

    // Static-reference ids, when present, must be dense [0, n).
    if (!ref_ids.empty()) {
        if (*ref_ids.rbegin() != ref_ids.size() - 1 ||
            ref_ids.size() != _numStaticRefs) {
            return complain(why, "static ref ids not dense (%u declared)%s",
                            _numStaticRefs, "");
        }
    } else if (_numStaticRefs != 0) {
        return complain(why, "declared %u static refs but tagged none%s",
                        _numStaticRefs, "");
    }

    return true;
}

namespace
{

// FNV-1a, folded over every field that affects execution.
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (const char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 0x100000001b3ull;
        }
    }
};

} // anonymous namespace

std::uint64_t
Program::fingerprint() const
{
    Fnv f;
    f.mix(_name);
    f.mix(_insts.size());
    for (const Instruction &in : _insts) {
        f.mix(static_cast<std::uint64_t>(in.op));
        f.mix((static_cast<std::uint64_t>(in.rd) << 16) |
              (static_cast<std::uint64_t>(in.rs1) << 8) | in.rs2);
        f.mix(static_cast<std::uint64_t>(in.imm));
        f.mix(in.informing ? 1 : 0);
        f.mix(in.staticRefId);
    }
    f.mix(_data.size());
    for (const DataSegment &seg : _data) {
        f.mix(seg.base);
        f.mix(seg.words.size());
        for (const std::uint64_t w : seg.words)
            f.mix(w);
    }
    f.mix(_numStaticRefs);
    return f.h;
}

} // namespace imo::isa
