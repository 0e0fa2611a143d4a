#include "pipeline/ooo/cpu.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"
#include "pipeline/core_timing.hh"

namespace imo::pipeline
{

using isa::Op;
using isa::OpClass;

/** All mutable state of one out-of-order timing run. */
struct OooCpu::Timing : CoreTiming
{
    explicit Timing(const MachineConfig &cfg)
        : CoreTiming(cfg),
          dispatchPort(cfg.issueWidth,
                       {cfg.issueWidth, cfg.issueWidth, cfg.issueWidth,
                        cfg.issueWidth, cfg.issueWidth}),
          fuInt(cfg.fus.intUnits), fuFp(cfg.fus.fpUnits),
          fuBr(cfg.fus.branchUnits), fuMem(cfg.fus.memUnits),
          gradHistory(cfg.robSize, 0)
    {
        for (std::size_t c = 0; c < numOpClasses; ++c)
            fuTable[c] = tableFor(fuOf[c]);
    }

    SlotTable *
    tableFor(FuGroup g)
    {
        switch (g) {
          case FuGroup::Int: return &fuInt;
          case FuGroup::Fp: return &fuFp;
          case FuGroup::Branch: return &fuBr;
          case FuGroup::Mem: return &fuMem;
          default: return nullptr;
        }
    }

    InOrderIssuePort dispatchPort;

    SlotTable fuInt;
    SlotTable fuFp;
    SlotTable fuBr;
    SlotTable fuMem;
    std::array<SlotTable *, numOpClasses> fuTable{};  //!< null: no unit

    // Reorder buffer occupancy: graduation cycle per slot. robPos is
    // index % robSize, advanced with a compare instead of a divide.
    std::vector<Cycle> gradHistory;
    std::size_t robPos = 0;

    // Unresolved predicted branches (shadow-state checkpoints).
    std::vector<Cycle> outstandingBranches;

    std::uint64_t index = 0;
    Cycle lastWrongPathAddr = 0;
};

OooCpu::OooCpu(const MachineConfig &config) : CpuCore(config)
{
    sim_throw_if(!config.outOfOrder, ErrCode::BadConfig,
                 "OooCpu given an in-order configuration '%s'",
                 config.name.c_str());
    sim_throw_if(config.robSize == 0, ErrCode::BadConfig,
                 "reorder buffer must be nonempty");
    sim_throw_if(config.fus.memUnits == 0, ErrCode::BadConfig,
                 "out-of-order machine needs a memory unit");
}

void
OooCpu::reset()
{
    _t = std::make_unique<Timing>(_config);
}

std::uint64_t
OooCpu::retired() const
{
    return _t ? static_cast<const Timing &>(*_t).index : 0;
}

bool
OooCpu::step(func::TraceSource &src)
{
    panic_if(!_t, "OooCpu::step before reset()");
    Timing &t = static_cast<Timing &>(*_t);
    const MachineConfig &cfg = _config;
    const bool branch_style =
        cfg.trapDispatch == TrapDispatch::BranchStyle;

    func::TraceRecord r;
    if (!src.next(r))
        return false;

    const isa::Instruction &in = r.inst;
    const OpClass cls = isa::opClass(in.op);
    const auto ci = static_cast<std::size_t>(cls);

    const Cycle fc = t.fetch.fetchNext();
    Cycle d = fc + cfg.frontendDepth;

    // Reorder-buffer space: reuse the entry of the instruction
    // robSize back, one cycle after it graduated.
    if (t.index >= cfg.robSize) {
        d = std::max(d, t.gradHistory[t.robPos] + 1);
    }
    d = t.dispatchPort.reserve(FuGroup::None, d);

    // Shadow-state checkpoints: conditional branches (and,
    // optionally, informing references in branch-style mode)
    // each hold one until they resolve.
    const bool needs_checkpoint =
        isa::isCondBranch(in.op) ||
        (cfg.informingTakesCheckpoint && branch_style &&
         isa::isDataRef(in.op) && in.informing);
    if (needs_checkpoint && cfg.maxUnresolvedBranches > 0) {
        std::erase_if(t.outstandingBranches,
                      [d](Cycle c) { return c <= d; });
        if (t.outstandingBranches.size() >=
            cfg.maxUnresolvedBranches) {
            const Cycle earliest = *std::min_element(
                t.outstandingBranches.begin(),
                t.outstandingBranches.end());
            d = std::max(d, earliest);
            std::erase_if(t.outstandingBranches,
                          [d](Cycle c) { return c <= d; });
        }
    }

    // Wakeup: true data dependences only (renaming removes WAR/WAW).
    Cycle ready = std::max(d + 1, t.srcReady(isa::srcRegs(in)));
    if (in.op == Op::BRMISS || in.op == Op::BRMISS2)
        ready = std::max(ready, t.ccReady);
    if (in.op == Op::RETMH || in.op == Op::GETMHRR)
        ready = std::max(ready, t.mhrrReady);

    SlotTable *fu = t.fuTable[ci];
    const Cycle issue = fu ? fu->reserve(ready) : ready;
    IMO_TRACE(t.trace, issue, obs::Cat::Issue, "issue", r.pc,
              static_cast<std::uint64_t>(in.op));

    Cycle complete = issue + t.latOf[ci];
    bool cache_stall = false;
    Cycle resolve_for_checkpoint = 0;
    memory::MshrRef mshr_ref;

    switch (cls) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Prefetch: {
        const MemAccess a = t.access(cfg, r, cls, issue);
        complete = a.complete;
        cache_stall = a.cacheStall;
        resolve_for_checkpoint = a.missDetect;
        // A prefetch is fire and forget: no result, trap or MSHR pin.
        if (isa::isDataRef(in.op)) {
            if (const int rd = isa::dstReg(in); rd >= 0)
                t.regReady[rd] = complete;
            if (r.trapped && branch_style) {
                // Redirect like a mispredicted branch as soon as the
                // miss is detected. Exception-style dispatch is
                // applied after this instruction's graduation (below).
                t.mhrrReady = a.missDetect + 1;
                t.fetch.gate(a.missDetect + cfg.redirectPenalty);
                t.enterTrap(r, a.missDetect);
            }
            mshr_ref = a.mshr;
        }
        break;
      }

      case OpClass::Branch: {
        const Cycle resolve = issue + 1;
        complete = resolve;
        resolve_for_checkpoint = resolve;
        ++t.pipe.condBranches;
        if (in.op == Op::BRMISS ||
            in.op == Op::BRMISS2) {
            if (r.taken) {
                ++t.pipe.mispredicts;
                t.mhrrReady = resolve + 1;
                t.fetch.gate(resolve + cfg.redirectPenalty);
            }
        } else if (!t.predictBranch(cfg, r, resolve)) {
            t.fetch.gate(resolve + cfg.redirectPenalty);
            if (_wrongPathProbes > 0) {
                // Inject squashed speculative line fetches past the
                // mispredicted branch (section 3.3). They execute as
                // soon as the wrong-path loads could issue (right
                // after dispatch) and are squashed when the branch
                // resolves; fills that complete in between must be
                // invalidated.
                for (std::uint32_t p = 0; p < _wrongPathProbes; ++p) {
                    const Addr a = r.addr + 0x4000 +
                        (++t.lastWrongPathAddr * cfg.mem.lineBytes);
                    memory::MemRequestResult wr = t.mem.request(
                        a, MemLevel::L2, d + 1);
                    if (wr.accepted && wr.mshr.valid())
                        t.mem.notifySquashed(wr.mshr, resolve);
                }
            }
        } else if (r.taken) {
            t.fetch.redirectTaken(fc);
        }
        break;
      }

      case OpClass::Jump: {
        complete = issue + 1;
        if (in.op == Op::JR) {
            t.fetch.gate(complete + cfg.redirectPenalty);
        } else {
            t.fetch.redirectTaken(fc);
        }
        t.noteTrapExit(r, complete);
        if (const int rd = isa::dstReg(in); rd >= 0)
            t.regReady[rd] = complete;
        break;
      }

      default: {
        if (const int rd = isa::dstReg(in); rd >= 0)
            t.regReady[rd] = complete;
        if (in.op == Op::SETMHRR)
            t.mhrrReady = complete;
        if (in.op == Op::GETMHRR)
            t.regReady[in.rd] = complete;
        break;
      }
    }

    if (needs_checkpoint && cfg.maxUnresolvedBranches > 0)
        t.outstandingBranches.push_back(resolve_for_checkpoint);

    if (isa::isDataRef(in.op) && r.trapped && !branch_style) {
        // Exception-style informing dispatch: postponed until the
        // reference reaches the head of the reorder buffer (all
        // older instructions have graduated) and its miss is known;
        // the machine is then flushed and the handler fetched. The
        // reference itself still graduates when its data returns,
        // overlapping the handler.
        const Cycle at_head =
            std::max(resolve_for_checkpoint, t.ledger.lastCycle());
        t.mhrrReady = at_head + cfg.exceptionFlushPenalty;
        t.fetch.gate(at_head + cfg.exceptionFlushPenalty);
        t.enterTrap(r, at_head + cfg.exceptionFlushPenalty);
    }

    // A reorder-buffer entry graduates the cycle after it completes.
    const Cycle grad = t.retire(cfg, r, complete, complete + 1, cache_stall);
    t.gradHistory[t.robPos] = grad;

    // With the extended MSHR lifetime of section 3.3, demand-miss
    // entries stay pinned until the owning instruction graduates.
    // (Wrong-path probes were squashed at resolve above.)
    if (cfg.mem.extendedMshrLifetime && mshr_ref.valid())
        t.mem.notifyGraduated(mshr_ref, grad);

    // Periodically prune reservation bookkeeping behind the ROB.
    if ((t.index & 0xfff) == 0 && t.index >= cfg.robSize) {
        const Cycle frontier = t.gradHistory[t.robPos];
        t.fuInt.pruneBelow(frontier);
        t.fuFp.pruneBelow(frontier);
        t.fuBr.pruneBelow(frontier);
        t.fuMem.pruneBelow(frontier);
    }

    ++t.index;
    if (++t.robPos == t.gradHistory.size())
        t.robPos = 0;
    return true;
}

void
OooCpu::save(Serializer &s) const
{
    panic_if(!_t, "OooCpu::save before reset()");
    const Timing &t = static_cast<const Timing &>(*_t);
    s.u32(_wrongPathProbes);
    t.fetch.save(s);
    t.dispatchPort.save(s);
    t.ledger.save(s);
    t.mem.save(s);
    t.bimodal.save(s);
    t.gshare.save(s);
    t.ring.save(s);
    t.fuInt.save(s);
    t.fuFp.save(s);
    t.fuBr.save(s);
    t.fuMem.save(s);
    for (const Cycle c : t.regReady)
        s.u64(c);
    s.u64(t.ccReady);
    s.u64(t.mhrrReady);
    s.u64(t.gradHistory.size());
    for (const Cycle c : t.gradHistory)
        s.u64(c);
    s.vecU64(t.outstandingBranches);
    s.u64(t.index);
    s.u64(t.lastWrongPathAddr);
    s.b(t.trapPending);
    s.u64(t.trapDispatch);
    t.pipe.save(s);
}

void
OooCpu::restore(Deserializer &d)
{
    reset();
    Timing &t = static_cast<Timing &>(*_t);
    _wrongPathProbes = d.u32();
    t.fetch.restore(d);
    t.dispatchPort.restore(d);
    t.ledger.restore(d);
    t.mem.restore(d);
    t.bimodal.restore(d);
    t.gshare.restore(d);
    t.ring.restore(d);
    t.fuInt.restore(d);
    t.fuFp.restore(d);
    t.fuBr.restore(d);
    t.fuMem.restore(d);
    for (Cycle &c : t.regReady)
        c = d.u64();
    t.ccReady = d.u64();
    t.mhrrReady = d.u64();
    const std::uint64_t rob = d.u64();
    sim_throw_if(rob != t.gradHistory.size(), ErrCode::BadCheckpoint,
                 "checkpointed reorder buffer has %llu entries, "
                 "configured machine has %zu",
                 static_cast<unsigned long long>(rob),
                 t.gradHistory.size());
    for (Cycle &c : t.gradHistory)
        c = d.u64();
    t.outstandingBranches = d.vecU64();
    t.index = d.u64();
    t.robPos = static_cast<std::size_t>(t.index % t.gradHistory.size());
    t.lastWrongPathAddr = d.u64();
    t.trapPending = d.b();
    t.trapDispatch = d.u64();
    t.pipe.restore(d);
}

} // namespace imo::pipeline
