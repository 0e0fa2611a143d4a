#include "pipeline/inorder/cpu.hh"

#include <algorithm>
#include <array>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"
#include "pipeline/core_timing.hh"

namespace imo::pipeline
{

using isa::Op;
using isa::OpClass;

/** All mutable state of one in-order timing run. */
struct InOrderCpu::Timing : CoreTiming
{
    explicit Timing(const MachineConfig &cfg)
        : CoreTiming(cfg),
          port(cfg.issueWidth,
               {cfg.fus.intUnits, cfg.fus.fpUnits, cfg.fus.branchUnits,
                cfg.fus.memUnits ? cfg.fus.memUnits : cfg.fus.intUnits,
                cfg.issueWidth})
    {
    }

    InOrderIssuePort port;

    // Presence bits beside regReady: whether each value is being
    // produced by an in-flight primary-cache miss, and when that miss
    // is detected (for replay-trap emulation).
    std::array<Cycle, isa::numUnifiedRegs> regMissDetect{};
    std::array<bool, isa::numUnifiedRegs> regFromMiss{};
    Cycle lastIssue = 0;

    // A pipeline flush (replay trap, misprediction) squashes every
    // younger in-flight instruction: none may issue before the refetch
    // reaches the issue stage again.
    Cycle issueFloor = 0;

    std::uint64_t consumed = 0;
};

InOrderCpu::InOrderCpu(const MachineConfig &config) : CpuCore(config)
{
    sim_throw_if(config.outOfOrder, ErrCode::BadConfig,
                 "InOrderCpu given an out-of-order configuration '%s'",
                 config.name.c_str());
}

void
InOrderCpu::reset()
{
    _t = std::make_unique<Timing>(_config);
}

std::uint64_t
InOrderCpu::retired() const
{
    return _t ? static_cast<const Timing &>(*_t).consumed : 0;
}

bool
InOrderCpu::step(func::TraceSource &src)
{
    panic_if(!_t, "InOrderCpu::step before reset()");
    Timing &t = static_cast<Timing &>(*_t);
    const MachineConfig &cfg = _config;

    auto flush_at = [&](Cycle refetch) {
        t.fetch.gate(refetch);
        t.issueFloor = std::max(t.issueFloor,
                                refetch + cfg.frontendDepth);
    };

    func::TraceRecord r;
    if (!src.next(r))
        return false;
    ++t.consumed;

    const isa::Instruction &in = r.inst;
    const OpClass cls = isa::opClass(in.op);
    const auto ci = static_cast<std::size_t>(cls);

    const Cycle fc = t.fetch.fetchNext();
    Cycle earliest = std::max({fc + cfg.frontendDepth, t.lastIssue,
                               t.issueFloor});

    // Source operands (presence bits), with the 21164 replay trap:
    // if this instruction would have issued inside a missing load's
    // hit shadow, it is flushed and replayed, paying the penalty. Both
    // source slots are always read; an unused slot is masked off, and
    // the trap test is a select, so the check is straight-line code.
    const Cycle base = earliest;
    const isa::SrcRegs srcs = isa::srcRegs(in);
    earliest = std::max(earliest, t.srcReady(srcs));
    bool replayed = false;
    for (std::uint8_t i = 0; i < 2; ++i) {
        const std::uint8_t s = srcs.reg[i];
        const bool trap = (i < srcs.count) & t.regFromMiss[s] &
            (base < t.regMissDetect[s]);
        earliest = std::max(earliest, trap ? t.regMissDetect[s] +
                                      cfg.replayTrapPenalty : 0);
        replayed |= trap;
    }
    if (replayed) {
        ++t.pipe.replayTraps;
        IMO_TRACE(t.trace, base, obs::Cat::Issue, "replay-trap", r.pc);
    }
    if (in.op == Op::BRMISS || in.op == Op::BRMISS2)
        earliest = std::max(earliest, t.ccReady);
    if (in.op == Op::RETMH || in.op == Op::GETMHRR)
        earliest = std::max(earliest, t.mhrrReady);

    const Cycle issue = t.port.reserve(t.fuOf[ci], earliest);
    t.lastIssue = issue;
    IMO_TRACE(t.trace, issue, obs::Cat::Issue, "issue", r.pc,
              static_cast<std::uint64_t>(in.op));

    Cycle complete = issue + t.latOf[ci];
    bool cache_stall = false;

    switch (cls) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Prefetch: {
        const MemAccess a = t.access(cfg, r, cls, issue);
        complete = a.complete;
        cache_stall = a.cacheStall;

        // An in-order machine issues memory operations
        // non-speculatively, so the section-3.3 extended MSHR
        // lifetime releases at completion (nothing can squash).
        if (cfg.mem.extendedMshrLifetime && a.mshr.valid())
            t.mem.notifyGraduated(a.mshr, complete);

        if (isa::isDataRef(in.op)) {
            if (const int rd = isa::dstReg(in); rd >= 0) {
                t.regReady[rd] = complete;
                t.regFromMiss[rd] = a.missed;
                t.regMissDetect[rd] = a.missDetect;
            }
            if (r.trapped) {
                // Informing dispatch via the replay-trap mechanism:
                // flush and refetch from the handler.
                t.mhrrReady = a.missDetect + 1;
                flush_at(a.missDetect + cfg.replayTrapPenalty);
                t.enterTrap(r, a.missDetect);
            }
        }
        break;
      }

      case OpClass::Branch: {
        const Cycle resolve = issue + 1;
        complete = resolve;
        ++t.pipe.condBranches;
        if (in.op == Op::BRMISS ||
            in.op == Op::BRMISS2) {
            // Statically predicted not-taken (the common case is a
            // hit); taken means a mispredict-style redirect.
            if (r.taken) {
                t.mhrrReady = resolve + 1;
                flush_at(resolve + cfg.redirectPenalty);
                ++t.pipe.mispredicts;
            }
        } else if (!t.predictBranch(cfg, r, resolve)) {
            flush_at(resolve + cfg.redirectPenalty);
        } else if (r.taken) {
            t.fetch.redirectTaken(fc);
        }
        break;
      }

      case OpClass::Jump: {
        complete = issue + 1;
        if (in.op == Op::JR) {
            // Register-indirect target resolves at execute.
            flush_at(complete + cfg.redirectPenalty);
        } else {
            // J/JAL/RETMH targets are available in the front end.
            t.fetch.redirectTaken(fc);
        }
        t.noteTrapExit(r, complete);
        if (const int rd = isa::dstReg(in); rd >= 0) {
            t.regReady[rd] = complete;
            t.regFromMiss[rd] = false;
        }
        break;
      }

      default: {
        if (const int rd = isa::dstReg(in); rd >= 0) {
            t.regReady[rd] = complete;
            t.regFromMiss[rd] = false;
        }
        if (in.op == Op::SETMHRR)
            t.mhrrReady = complete;
        if (in.op == Op::GETMHRR) {
            t.regReady[in.rd] = complete;
            t.regFromMiss[in.rd] = false;
        }
        break;
      }
    }

    // In order, an instruction graduates the cycle it completes.
    t.retire(cfg, r, complete, complete, cache_stall);
    return true;
}

void
InOrderCpu::save(Serializer &s) const
{
    panic_if(!_t, "InOrderCpu::save before reset()");
    const Timing &t = static_cast<const Timing &>(*_t);
    t.fetch.save(s);
    t.port.save(s);
    t.ledger.save(s);
    t.mem.save(s);
    t.bimodal.save(s);
    t.gshare.save(s);
    t.ring.save(s);
    for (const Cycle c : t.regReady)
        s.u64(c);
    for (const Cycle c : t.regMissDetect)
        s.u64(c);
    for (const bool f : t.regFromMiss)
        s.b(f);
    s.u64(t.ccReady);
    s.u64(t.mhrrReady);
    s.u64(t.lastIssue);
    s.u64(t.issueFloor);
    s.b(t.trapPending);
    s.u64(t.trapDispatch);
    s.u64(t.consumed);
    t.pipe.save(s);
}

void
InOrderCpu::restore(Deserializer &d)
{
    reset();
    Timing &t = static_cast<Timing &>(*_t);
    t.fetch.restore(d);
    t.port.restore(d);
    t.ledger.restore(d);
    t.mem.restore(d);
    t.bimodal.restore(d);
    t.gshare.restore(d);
    t.ring.restore(d);
    for (Cycle &c : t.regReady)
        c = d.u64();
    for (Cycle &c : t.regMissDetect)
        c = d.u64();
    for (std::size_t i = 0; i < t.regFromMiss.size(); ++i)
        t.regFromMiss[i] = d.b();
    t.ccReady = d.u64();
    t.mhrrReady = d.u64();
    t.lastIssue = d.u64();
    t.issueFloor = d.u64();
    t.trapPending = d.b();
    t.trapDispatch = d.u64();
    t.consumed = d.u64();
    t.pipe.restore(d);
}

} // namespace imo::pipeline
