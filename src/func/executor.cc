#include "func/executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace imo::func
{

using isa::Op;

Executor::Executor(isa::Program program, const Config &config)
    : _program(std::move(program)), _numInsts(_program.size()),
      _config(config), _hier(config.l1, config.l2)
{
    std::string why;
    sim_throw_if(!_program.validate(&why), ErrCode::BadProgram,
                 "executor: invalid program '%s': %s",
                 _program.name().c_str(), why.c_str());
    for (const isa::DataSegment &seg : _program.data()) {
        for (std::size_t i = 0; i < seg.words.size(); ++i)
            _mem.write64(seg.base + i * 8, seg.words[i]);
    }
}

// The constructor validated the program, so every register operand
// names the file its op uses (Program::validate); the per-access file
// checks below are cross-checks for the IMO_PARANOID_XCHECK build
// only, off the per-instruction path of the normal builds. r0 reads
// as zero because its slot holds zero: writeIreg() never writes it,
// state() hands the registers out read-only, and restore() rejects an
// image that sets it.

std::uint64_t
Executor::readIreg(std::uint8_t unified) const
{
#ifdef IMO_PARANOID_XCHECK
    panic_if(isa::isFpRegId(unified), "int read of fp register");
#endif
    return _state.ireg[unified];
}

void
Executor::writeIreg(std::uint8_t unified, std::uint64_t value)
{
#ifdef IMO_PARANOID_XCHECK
    panic_if(isa::isFpRegId(unified), "int write of fp register");
#endif
    if (unified != 0)
        _state.ireg[unified] = value;
}

double
Executor::readFreg(std::uint8_t unified) const
{
#ifdef IMO_PARANOID_XCHECK
    panic_if(!isa::isFpRegId(unified), "fp read of int register");
#endif
    return _state.freg[unified - isa::numIntRegs];
}

void
Executor::writeFreg(std::uint8_t unified, double value)
{
#ifdef IMO_PARANOID_XCHECK
    panic_if(!isa::isFpRegId(unified), "fp write of int register");
#endif
    _state.freg[unified - isa::numIntRegs] = value;
}

// Dispatch is threaded: every op body ends by retiring its instruction
// and jumping straight to the next op's body through a table of label
// addresses (the GNU labels-as-values extension, which GCC and Clang
// both implement). The indirect jump is thus spread over the bodies
// (the compiler still merges some identical tails) instead of one
// `switch` jump serving every op-to-op transition, which gives the
// branch predictor more to go on. The program was validated at
// construction, so every opcode indexes the table.
#define IMO_EXEC_DISPATCH()                                            \
    do {                                                               \
        if constexpr (Guard) {                                         \
            sim_throw_if(count - left >= room,                         \
                         ErrCode::RunawayExecution,                    \
                         "program '%s' exceeded %llu instructions "    \
                         "without halting (runaway?)",                 \
                         _program.name().c_str(),                      \
                         static_cast<unsigned long long>(              \
                             _config.maxInstructions));                \
        }                                                              \
        if (pc >= num_insts) [[unlikely]]                              \
            goto pc_out_of_range;                                      \
        in = &code[pc];                                                \
        if constexpr (Fill) {                                          \
            out->inst = *in;                                           \
            out->pc = pc;                                              \
            out->addr = 0;                                             \
            out->level = MemLevel::L1;                                 \
            out->taken = false;                                        \
            out->trapped = false;                                      \
            out->handlerCode = in_handler;                             \
        }                                                              \
        next_pc = pc + 1;                                              \
        goto *body[static_cast<std::uint8_t>(in->op)];                 \
    } while (0)

#define IMO_EXEC_RETIRE()                                              \
    do {                                                               \
        pc = next_pc;                                                  \
        if constexpr (Fill)                                            \
            out->nextPc = next_pc;                                     \
        if (--left == 0)                                               \
            goto finish;                                               \
        IMO_EXEC_DISPATCH();                                           \
    } while (0)

// Every op, in `enum Op` order: the one list execute()'s table of op
// bodies is built from. A row out of place or missing fails to
// compile (bodyOrder below), so an opcode can only reach its own body.
#define IMO_EXEC_OPS(X)                                                \
    X(ADD) X(ADDI) X(SUB) X(MUL) X(DIV) X(AND) X(ANDI) X(OR) X(XOR)   \
    X(SLL) X(SRL) X(SLT) X(SLTI) X(LI)                                 \
    X(FADD) X(FSUB) X(FMUL) X(FDIV) X(FSQRT) X(FMOV) X(CVTIF) X(CVTFI) \
    X(LD) X(ST) X(FLD) X(FST) X(PREFETCH)                              \
    X(BEQ) X(BNE) X(BLT) X(BGE) X(J) X(JAL) X(JR)                      \
    X(SETMHAR) X(SETMHARR) X(GETMHRR) X(SETMHRR) X(RETMH) X(BRMISS)    \
    X(BRMISS2) X(SETMHARPC) X(SETMHLVL)                                \
    X(NOP) X(HALT)

namespace
{

#define IMO_EXEC_OP(name) Op::name,
constexpr Op bodyOrder[] = {IMO_EXEC_OPS(IMO_EXEC_OP)};
#undef IMO_EXEC_OP

consteval bool
inEnumOrder()
{
    if (std::size(bodyOrder) != static_cast<std::size_t>(Op::NumOps))
        return false;
    for (std::size_t i = 0; i < std::size(bodyOrder); ++i) {
        if (bodyOrder[i] != static_cast<Op>(i))
            return false;
    }
    return true;
}
static_assert(inEnumOrder(), "IMO_EXEC_OPS must list every Op in order");

} // namespace

template <bool Fill, bool Guard>
std::conditional_t<Fill, bool, std::uint64_t>
Executor::execute(std::uint64_t max_count, TraceRecord *out,
                  WarmSink *warm)
{
    // next() asks for one record at a time; a constant count lets the
    // compiler fold the countdown out of that per-instruction call.
    const std::uint64_t count = Fill ? 1 : max_count;

#define IMO_EXEC_LABEL(name) &&op_##name,
    static const void *const body[] = {
        IMO_EXEC_OPS(IMO_EXEC_LABEL)
    };
#undef IMO_EXEC_LABEL

    if (_state.halted || count == 0)
        return 0;

    // The pc, the instruction countdown and the handler flag live in
    // locals for the whole call and are written back once at the end
    // (or by the catch below when a step throws). Kept in members they
    // would go through memory on every step: the data-memory stores
    // may alias them, so the compiler must reload the pc from memory
    // at the top of each step. Handler instructions are counted per
    // handler span (entry to RETMH), not per step.
    const isa::Instruction *const code = _program.insts().data();
    const InstAddr num_insts = _numInsts;
    // Instructions left before the runaway bound (Guard only).
    const std::uint64_t room = _config.maxInstructions -
        std::min(_stats.instructions, _config.maxInstructions);
    InstAddr pc = _state.pc;
    bool in_handler = _inHandler;
    std::uint64_t left = count;
    std::uint64_t handler_from = 0;
    std::uint64_t handler_insts = 0;
    const isa::Instruction *in = nullptr;
    InstAddr next_pc = 0;
    bool taken = false;
    const auto write_back = [&] {
        const std::uint64_t done = count - left;
        if (in_handler)
            handler_insts += done - handler_from;
        _state.pc = pc;
        _inHandler = in_handler;
        _stats.instructions += done;
        _stats.handlerInstructions += handler_insts;
        return done;
    };

    // Entering a miss handler (a trap or a taken BRMISS): the handler's
    // instructions are counted from the next one on, once per entry.
    const auto enter_handler = [&] {
        if (!in_handler) {
            in_handler = true;
            handler_from = count - left + 1;
        }
    };

    auto as_i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

    try {
        IMO_EXEC_DISPATCH();

      // Integer ALU ---------------------------------------------------
      op_ADD:
        writeIreg(in->rd, readIreg(in->rs1) + readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_ADDI:
        writeIreg(in->rd,
                  readIreg(in->rs1) + static_cast<std::uint64_t>(in->imm));
        IMO_EXEC_RETIRE();
      op_SUB:
        writeIreg(in->rd, readIreg(in->rs1) - readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_MUL:
        writeIreg(in->rd, readIreg(in->rs1) * readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_DIV: {
        const std::uint64_t denom = readIreg(in->rs2);
        writeIreg(in->rd, denom ? readIreg(in->rs1) / denom : 0);
        IMO_EXEC_RETIRE();
      }
      op_AND:
        writeIreg(in->rd, readIreg(in->rs1) & readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_ANDI:
        writeIreg(in->rd,
                  readIreg(in->rs1) & static_cast<std::uint64_t>(in->imm));
        IMO_EXEC_RETIRE();
      op_OR:
        writeIreg(in->rd, readIreg(in->rs1) | readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_XOR:
        writeIreg(in->rd, readIreg(in->rs1) ^ readIreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_SLL:
        writeIreg(in->rd, readIreg(in->rs1) << (in->imm & 63));
        IMO_EXEC_RETIRE();
      op_SRL:
        writeIreg(in->rd, readIreg(in->rs1) >> (in->imm & 63));
        IMO_EXEC_RETIRE();
      op_SLT:
        writeIreg(in->rd,
                  as_i64(readIreg(in->rs1)) < as_i64(readIreg(in->rs2)));
        IMO_EXEC_RETIRE();
      op_SLTI:
        writeIreg(in->rd, as_i64(readIreg(in->rs1)) < in->imm);
        IMO_EXEC_RETIRE();
      op_LI:
        writeIreg(in->rd, static_cast<std::uint64_t>(in->imm));
        IMO_EXEC_RETIRE();

      // Floating point ------------------------------------------------
      op_FADD:
        writeFreg(in->rd, readFreg(in->rs1) + readFreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_FSUB:
        writeFreg(in->rd, readFreg(in->rs1) - readFreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_FMUL:
        writeFreg(in->rd, readFreg(in->rs1) * readFreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_FDIV:
        writeFreg(in->rd, readFreg(in->rs1) / readFreg(in->rs2));
        IMO_EXEC_RETIRE();
      op_FSQRT:
        writeFreg(in->rd, std::sqrt(readFreg(in->rs1)));
        IMO_EXEC_RETIRE();
      op_FMOV:
        writeFreg(in->rd, readFreg(in->rs1));
        IMO_EXEC_RETIRE();
      op_CVTIF:
        writeFreg(in->rd, static_cast<double>(as_i64(readIreg(in->rs1))));
        IMO_EXEC_RETIRE();
      op_CVTFI:
        writeIreg(in->rd, static_cast<std::uint64_t>(
            static_cast<std::int64_t>(readFreg(in->rs1))));
        IMO_EXEC_RETIRE();

      // Memory ----------------------------------------------------------
      op_LD:
      op_ST:
      op_FLD:
      op_FST: {
        const Addr addr =
            readIreg(in->rs1) + static_cast<std::uint64_t>(in->imm);
        const bool is_store = isa::isStore(in->op);
        const MemLevel level = _hier.access(addr, is_store);
        if (_refSink) [[unlikely]]
            _refSink->onAccess(addr, is_store);

        switch (in->op) {
          case Op::LD:
            writeIreg(in->rd, _mem.read64(addr));
            break;
          case Op::ST:
            _mem.write64(addr, readIreg(in->rs2));
            break;
          case Op::FLD:
            writeFreg(in->rd, std::bit_cast<double>(_mem.read64(addr)));
            break;
          case Op::FST:
            _mem.write64(addr, std::bit_cast<std::uint64_t>(
                readFreg(in->rs2)));
            break;
          default:
            break;
        }

        if constexpr (Fill) {
            out->addr = addr;
            out->level = level;
        }
        ++_stats.dataRefs;
        if (level != MemLevel::L1)
            ++_stats.l1Misses;
        if (level == MemLevel::Memory)
            ++_stats.l2Misses;

        // The cache-outcome condition codes track the most recent
        // data reference's outcome, one bit per hierarchy level
        // (section 2.1 and its multi-level extension).
        _state.ccMiss = level != MemLevel::L1;
        _state.ccMissL2 = level == MemLevel::Memory;

        // Low-overhead miss trap (section 2.2): dispatch if this is an
        // informing operation, trapping is armed, the MHAR is set, and
        // the miss reaches the configured trap level (section 4.1.3's
        // switch-on-secondary-miss filter).
        const bool trap_worthy = _state.trapLevel >= 2
            ? _state.ccMissL2 : _state.ccMiss;
        if (trap_worthy && in->informing && _trapArmed &&
            _state.mhar != 0) {
            if constexpr (Fill)
                out->trapped = true;
            ++_stats.traps;
            _state.mhrr = pc + 1;
            next_pc = static_cast<InstAddr>(_state.mhar);
            _trapArmed = false;
            enter_handler();
        }
        IMO_EXEC_RETIRE();
      }
      op_PREFETCH: {
        const Addr addr =
            readIreg(in->rs1) + static_cast<std::uint64_t>(in->imm);
        _hier.prefetch(addr);
        if (_refSink) [[unlikely]]
            _refSink->onPrefetch(addr);
        if constexpr (Fill)
            out->addr = addr;
        ++_stats.prefetches;
        IMO_EXEC_RETIRE();
      }

      // Control ---------------------------------------------------------
      op_BEQ:
        taken = readIreg(in->rs1) == readIreg(in->rs2);
        goto cond_branch;
      op_BNE:
        taken = readIreg(in->rs1) != readIreg(in->rs2);
        goto cond_branch;
      op_BLT:
        taken = as_i64(readIreg(in->rs1)) < as_i64(readIreg(in->rs2));
        goto cond_branch;
      op_BGE:
        taken = as_i64(readIreg(in->rs1)) >= as_i64(readIreg(in->rs2));
      cond_branch:
        ++_stats.condBranches;
        if (taken) {
            ++_stats.takenBranches;
            next_pc = static_cast<InstAddr>(in->imm);
        }
        if constexpr (Fill)
            out->taken = taken;
        else if (warm)
            warm->condBranch(pc, taken);
        IMO_EXEC_RETIRE();
      op_J:
        next_pc = static_cast<InstAddr>(in->imm);
        IMO_EXEC_RETIRE();
      op_JAL:
        writeIreg(in->rd, pc + 1);
        next_pc = static_cast<InstAddr>(in->imm);
        IMO_EXEC_RETIRE();
      op_JR:
        next_pc = static_cast<InstAddr>(readIreg(in->rs1));
        IMO_EXEC_RETIRE();

      // Informing extensions ---------------------------------------------
      op_SETMHAR:
        _state.mhar = static_cast<std::uint64_t>(in->imm);
        IMO_EXEC_RETIRE();
      op_SETMHARR:
        _state.mhar = readIreg(in->rs1);
        IMO_EXEC_RETIRE();
      op_SETMHARPC:
        _state.mhar = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(pc) + in->imm);
        IMO_EXEC_RETIRE();
      op_SETMHLVL:
        _state.trapLevel = static_cast<std::uint8_t>(in->imm);
        IMO_EXEC_RETIRE();
      op_GETMHRR:
        writeIreg(in->rd, _state.mhrr);
        IMO_EXEC_RETIRE();
      op_SETMHRR:
        _state.mhrr = readIreg(in->rs1);
        IMO_EXEC_RETIRE();
      op_RETMH:
        next_pc = static_cast<InstAddr>(_state.mhrr);
        _trapArmed = true;
        if (in_handler)
            handler_insts += count - left + 1 - handler_from;
        in_handler = false;
        IMO_EXEC_RETIRE();
      op_BRMISS:
      op_BRMISS2: {
        const bool cc = in->op == Op::BRMISS ? _state.ccMiss
                                             : _state.ccMissL2;
        ++_stats.condBranches;
        if (cc) {
            ++_stats.takenBranches;
            ++_stats.brmissTaken;
            _state.mhrr = pc + 1;
            next_pc = static_cast<InstAddr>(in->imm);
            enter_handler();
        }
        if constexpr (Fill)
            out->taken = cc;
        IMO_EXEC_RETIRE();
      }

      // Miscellaneous -----------------------------------------------------
      op_NOP:
        IMO_EXEC_RETIRE();
      op_HALT:
        _state.halted = true;
        --left;
        if constexpr (Fill)
            out->nextPc = pc;
        goto finish;

      // Static targets were validated; only a dynamic transfer (JR,
      // RETMH, or a trap through SETMHARR) or running off the end of
      // the program gets here, from the next dispatch.
      pc_out_of_range:
        throwSimError(ErrCode::BadProgram,
                      "program '%s': pc %u out of range (wild indirect "
                      "jump or handler return)",
                      _program.name().c_str(), pc);
    } catch (...) {
        write_back();
        throw;
    }
finish:
    return write_back();
}

#undef IMO_EXEC_RETIRE
#undef IMO_EXEC_DISPATCH
#undef IMO_EXEC_OPS

bool
Executor::next(TraceRecord &out)
{
    return execute<true, true>(1, &out, nullptr);
}

std::uint64_t
Executor::fastForward(std::uint64_t count, WarmSink *warm)
{
    // Every step retires exactly one instruction, so the first
    // `unguarded` steps cannot reach the runaway bound and skip its
    // check. The guarded loop then runs only if the bound is near (the
    // step that reaches it throws, exactly as under next()).
    const std::uint64_t room = _config.maxInstructions -
        std::min(_stats.instructions, _config.maxInstructions);
    const std::uint64_t unguarded = std::min(count, room);
    std::uint64_t done = execute<false, false>(unguarded, nullptr, warm);
    if (done < count)
        done += execute<false, true>(count - done, nullptr, warm);
    return done;
}

std::uint64_t
Executor::run()
{
    TraceRecord rec;
    while (next(rec)) {
    }
    return _stats.instructions;
}

void
Executor::registerStats(stats::StatGroup &parent)
{
    auto &g = parent.childGroup("exec");
    g.make<stats::Value>("instructions", "instructions retired",
                         [this] { return _stats.instructions; });
    g.make<stats::Value>("handler_instructions",
                         "instructions retired inside miss handlers",
                         [this] { return _stats.handlerInstructions; });
    g.make<stats::Value>("data_refs", "data references executed",
                         [this] { return _stats.dataRefs; });
    g.make<stats::Value>("l1_misses", "primary-cache misses",
                         [this] { return _stats.l1Misses; });
    g.make<stats::Value>("l2_misses", "secondary-cache misses",
                         [this] { return _stats.l2Misses; });
    g.make<stats::Value>("traps", "informing miss traps dispatched",
                         [this] { return _stats.traps; });
    g.make<stats::Value>("brmiss_taken", "BRMISS branches taken",
                         [this] { return _stats.brmissTaken; });
    g.make<stats::Value>("prefetches", "software prefetches executed",
                         [this] { return _stats.prefetches; });
    g.make<stats::Value>("cond_branches", "conditional branches executed",
                         [this] { return _stats.condBranches; });
    g.make<stats::Value>("taken_branches", "conditional branches taken",
                         [this] { return _stats.takenBranches; });
    g.make<stats::Derived>("l1_miss_rate", "l1_misses / data_refs",
                           [this] { return _stats.l1MissRate(); });
    _hier.registerStats(g);
}

void
Executor::save(Serializer &s) const
{
    s.u64(_program.fingerprint());

    for (const std::uint64_t r : _state.ireg)
        s.u64(r);
    for (const double r : _state.freg)
        s.f64(r);
    s.u32(_state.pc);
    s.u64(_state.mhar);
    s.u64(_state.mhrr);
    s.b(_state.ccMiss);
    s.b(_state.ccMissL2);
    s.u8(_state.trapLevel);
    s.b(_state.halted);

    s.u64(_stats.instructions);
    s.u64(_stats.handlerInstructions);
    s.u64(_stats.dataRefs);
    s.u64(_stats.l1Misses);
    s.u64(_stats.l2Misses);
    s.u64(_stats.traps);
    s.u64(_stats.brmissTaken);
    s.u64(_stats.prefetches);
    s.u64(_stats.condBranches);
    s.u64(_stats.takenBranches);

    s.b(_inHandler);
    s.b(_trapArmed);

    _mem.save(s);
    _hier.save(s);
}

void
Executor::restore(Deserializer &d)
{
    const std::uint64_t fp = d.u64();
    sim_throw_if(fp != _program.fingerprint(), ErrCode::BadCheckpoint,
                 "checkpoint was taken with a different program than "
                 "'%s' (fingerprint %#llx vs %#llx)",
                 _program.name().c_str(),
                 static_cast<unsigned long long>(fp),
                 static_cast<unsigned long long>(_program.fingerprint()));

    for (std::uint64_t &r : _state.ireg)
        r = d.u64();
    sim_throw_if(_state.ireg[0] != 0, ErrCode::BadCheckpoint,
                 "checkpointed r0 is %#llx, not zero",
                 static_cast<unsigned long long>(_state.ireg[0]));
    for (double &r : _state.freg)
        r = d.f64();
    _state.pc = d.u32();
    _state.mhar = d.u64();
    _state.mhrr = d.u64();
    _state.ccMiss = d.b();
    _state.ccMissL2 = d.b();
    _state.trapLevel = d.u8();
    _state.halted = d.b();
    sim_throw_if(!_state.halted && _state.pc >= _program.size(),
                 ErrCode::BadCheckpoint,
                 "checkpointed pc %u outside program of %u instructions",
                 _state.pc, _program.size());

    _stats.instructions = d.u64();
    _stats.handlerInstructions = d.u64();
    _stats.dataRefs = d.u64();
    _stats.l1Misses = d.u64();
    _stats.l2Misses = d.u64();
    _stats.traps = d.u64();
    _stats.brmissTaken = d.u64();
    _stats.prefetches = d.u64();
    _stats.condBranches = d.u64();
    _stats.takenBranches = d.u64();

    _inHandler = d.b();
    _trapArmed = d.b();

    _mem.restore(d);
    _hier.restore(d);
}

} // namespace imo::func
