#include "pipeline/ooo/cpu.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "branch/predictor.hh"
#include "common/checkpoint.hh"
#include "common/diagring.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"
#include "memory/timing.hh"
#include "obs/observer.hh"
#include "pipeline/pipe_stats.hh"
#include "pipeline/timing_util.hh"
#include "pipeline/watchdog.hh"

namespace imo::pipeline
{

using isa::Op;
using isa::OpClass;

namespace
{

FuGroup
fuGroupOf(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: case OpClass::IntMul: case OpClass::IntDiv:
        return FuGroup::Int;
      case OpClass::FpAlu: case OpClass::FpDiv: case OpClass::FpSqrt:
        return FuGroup::Fp;
      case OpClass::Branch: case OpClass::Jump:
        return FuGroup::Branch;
      case OpClass::Load: case OpClass::Store: case OpClass::Prefetch:
        return FuGroup::Mem;
      default:
        return FuGroup::None;
    }
}

} // anonymous namespace

/** All mutable state of one out-of-order timing run. */
struct OooCpu::Timing
{
    explicit Timing(const MachineConfig &cfg)
        : fetch(cfg.issueWidth, cfg.takenBranchBubble),
          dispatchPort(cfg.issueWidth,
                       {cfg.issueWidth, cfg.issueWidth, cfg.issueWidth,
                        cfg.issueWidth, cfg.issueWidth}),
          ledger(cfg.issueWidth), mem(cfg.mem),
          bimodal(cfg.predictorEntries), gshare(cfg.predictorEntries),
          ring(32), fuInt(cfg.fus.intUnits), fuFp(cfg.fus.fpUnits),
          fuBr(cfg.fus.branchUnits),
          fuMem(std::max<std::uint32_t>(cfg.fus.memUnits, 1)),
          gradHistory(cfg.robSize, 0)
    {
        mem.setFaultInjector(cfg.faults);
        obs = cfg.obs;
        trace = obs ? obs->traceSink() : nullptr;
        mem.setTraceSink(trace);
    }

    FetchEngine fetch;
    InOrderIssuePort dispatchPort;
    GraduationLedger ledger;
    memory::TimingMemorySystem mem;
    branch::TwoBitPredictor bimodal;
    branch::GsharePredictor gshare;
    DiagRing ring;

    SlotTable fuInt;
    SlotTable fuFp;
    SlotTable fuBr;
    SlotTable fuMem;

    // Renamed register file: availability time of the newest version.
    std::array<Cycle, isa::numUnifiedRegs> regReady{};
    Cycle ccReady = 0;
    Cycle mhrrReady = 0;

    // Reorder buffer occupancy: graduation cycle per slot.
    std::vector<Cycle> gradHistory;

    // Unresolved predicted branches (shadow-state checkpoints).
    std::vector<Cycle> outstandingBranches;

    // Informing trap service measurement: dispatch cycle of the trap
    // whose RETMH has not yet completed (handlers cannot nest).
    bool trapPending = false;
    Cycle trapDispatch = 0;

    std::uint64_t index = 0;
    Cycle lastWrongPathAddr = 0;
    PipeStats pipe;  //!< live counters; RunResult derives from these
    obs::Observer *obs = nullptr;
    obs::TraceSink *trace = nullptr;
};

OooCpu::OooCpu(const MachineConfig &config) : _config(config)
{
    sim_throw_if(!config.outOfOrder, ErrCode::BadConfig,
                 "OooCpu given an in-order configuration '%s'",
                 config.name.c_str());
    sim_throw_if(config.robSize == 0, ErrCode::BadConfig,
                 "reorder buffer must be nonempty");
}

OooCpu::~OooCpu() = default;

void
OooCpu::reset()
{
    _t = std::make_unique<Timing>(_config);
}

std::uint64_t
OooCpu::retired() const
{
    return _t ? _t->index : 0;
}

void
OooCpu::warmCondBranch(InstAddr pc, bool taken)
{
    panic_if(!_t, "OooCpu::warmCondBranch before reset()");
    // update() only: warming must leave accuracy statistics untouched
    // (no lookup happened in the pipeline) while keeping the counter
    // table — and gshare's global history — exactly as trained.
    if (_config.useGshare)
        _t->gshare.update(pc, taken);
    else
        _t->bimodal.update(pc, taken);
}

void
OooCpu::saveWarmState(Serializer &s) const
{
    panic_if(!_t, "OooCpu::saveWarmState before reset()");
    _t->bimodal.save(s);
    _t->gshare.save(s);
}

void
OooCpu::restoreWarmState(Deserializer &d)
{
    panic_if(!_t, "OooCpu::restoreWarmState before reset()");
    _t->bimodal.restore(d);
    _t->gshare.restore(d);
}

void
OooCpu::copyWarmState(const OooCpu &from)
{
    panic_if(!_t || !from._t, "OooCpu::copyWarmState before reset()");
    sim_throw_if(from._config.predictorEntries != _config.predictorEntries,
                 ErrCode::BadConfig,
                 "warm state of a %u-entry predictor cannot seed a "
                 "%u-entry one", from._config.predictorEntries,
                 _config.predictorEntries);
    _t->bimodal = from._t->bimodal;
    _t->gshare = from._t->gshare;
}

bool
OooCpu::step(func::TraceSource &src)
{
    panic_if(!_t, "OooCpu::step before reset()");
    Timing &t = *_t;
    const MachineConfig &cfg = _config;
    const Cycle watchdog = cfg.watchdogCycles;
    const bool branch_style =
        cfg.trapDispatch == TrapDispatch::BranchStyle;

    auto predict_and_update = [&](InstAddr pc, bool taken) {
        bool correct = cfg.useGshare
            ? t.gshare.predictAndUpdate(pc, taken)
            : t.bimodal.predictAndUpdate(pc, taken);
        if (cfg.faults && cfg.faults->fire(FaultPoint::MispredictStorm))
            correct = false;
        return correct;
    };
    auto fu_for = [&](FuGroup g) -> SlotTable * {
        switch (g) {
          case FuGroup::Int: return &t.fuInt;
          case FuGroup::Fp: return &t.fuFp;
          case FuGroup::Branch: return &t.fuBr;
          case FuGroup::Mem: return &t.fuMem;
          default: return nullptr;
        }
    };

    func::TraceRecord r;
    if (!src.next(r))
        return false;

    const isa::Instruction &in = r.inst;
    const OpClass cls = isa::opClass(in.op);
    const FuGroup group = fuGroupOf(cls);

    const Cycle fc = t.fetch.fetchNext();
    Cycle d = fc + cfg.frontendDepth;

    // Reorder-buffer space: reuse the entry of the instruction
    // robSize back, one cycle after it graduated.
    if (t.index >= cfg.robSize) {
        d = std::max(d, t.gradHistory[t.index % cfg.robSize] + 1);
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
    Cycle ready = d + 1;
    const isa::SrcRegs srcs = isa::srcRegs(in);
    for (std::uint8_t i = 0; i < srcs.count; ++i)
        ready = std::max(ready, t.regReady[srcs.reg[i]]);
    if (in.op == Op::BRMISS || in.op == Op::BRMISS2)
        ready = std::max(ready, t.ccReady);
    if (in.op == Op::RETMH || in.op == Op::GETMHRR)
        ready = std::max(ready, t.mhrrReady);

    SlotTable *fu = fu_for(group);
    const Cycle issue = fu ? fu->reserve(ready) : ready;
    IMO_TRACE(t.trace, issue, obs::Cat::Issue, "issue", r.pc,
              static_cast<std::uint64_t>(in.op));

    Cycle complete = issue + cfg.lat.forClass(cls);
    bool cache_reason = false;
    Cycle resolve_for_checkpoint = 0;
    memory::MshrRef mshr_ref;

    switch (cls) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Prefetch: {
        // Retry structural-hazard rejections (bank/MSHR busy); a
        // reference that is rejected forever is a livelock the
        // watchdog converts into a structured Deadlock error.
        Cycle probe = issue;
        memory::MemRequestResult mr;
        for (;;) {
            mr = t.mem.request(r.addr, r.level, probe);
            if (mr.accepted)
                break;
            probe = std::max(mr.retryCycle, probe + 1);
            if (watchdog && probe > issue + watchdog) {
                t.ring.push(probe, "stuck-ref", r.pc,
                            t.mem.mshrFile().busyEntries(probe));
                raiseDeadlock(t.ring, simFormat(
                    "memory reference at pc %u (addr %#llx) "
                    "rejected for %llu cycles (MSHR/bank livelock; "
                    "%u of %u MSHRs busy)",
                    r.pc, static_cast<unsigned long long>(r.addr),
                    static_cast<unsigned long long>(probe - issue),
                    t.mem.mshrFile().busyEntries(probe),
                    t.mem.mshrFile().capacity()));
            }
        }
        t.ring.push(probe, "mem-accept", r.pc, r.addr);
        const Cycle miss_detect = probe + 1;
        const bool missed = r.level != MemLevel::L1;

        if (cls == OpClass::Load) {
            complete = std::max(mr.dataReady, probe + 1);
            cache_reason = missed;
        } else {
            complete = probe + 1;
        }
        resolve_for_checkpoint = miss_detect;

        if (isa::isDataRef(in.op)) {
            ++t.pipe.dataRefs;
            if (missed) {
                ++t.pipe.l1Misses;
                if (t.obs) {
                    t.obs->profiler.noteMiss(
                        r.pc, r.level == MemLevel::Memory,
                        mr.dataReady > probe ? mr.dataReady - probe : 0,
                        r.trapped);
                }
            }
            t.ccReady = miss_detect;

            const int rd = isa::dstReg(in);
            if (rd >= 0)
                t.regReady[rd] = complete;

            if (r.trapped) {
                ++t.pipe.traps;
                t.ring.push(miss_detect, "trap", r.pc, r.addr);
                if (branch_style) {
                    // Redirect like a mispredicted branch as soon
                    // as the miss is detected.
                    t.mhrrReady = miss_detect + 1;
                    t.fetch.gate(miss_detect + cfg.redirectPenalty);
                    t.trapPending = true;
                    t.trapDispatch = miss_detect;
                    IMO_TRACE(t.trace, miss_detect, obs::Cat::Trap,
                              "trap-enter", r.pc, r.addr);
                }
                // Exception-style dispatch is applied after this
                // instruction's graduation (below).
            }

            mshr_ref = mr.mshr;
        } else {
            // Prefetch: fire and forget.
            complete = probe + 1;
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
        } else {
            const bool correct = predict_and_update(r.pc, r.taken);
            if (!correct) {
                ++t.pipe.mispredicts;
                t.fetch.gate(resolve + cfg.redirectPenalty);
                t.ring.push(resolve, "mispredict", r.pc, r.taken);
                IMO_TRACE(t.trace, resolve, obs::Cat::Fetch, "mispredict",
                          r.pc, r.taken);
                if (_wrongPathProbes > 0) {
                    // Inject squashed speculative line fetches past
                    // the mispredicted branch (section 3.3). They
                    // execute as soon as the wrong-path loads could
                    // issue (right after dispatch) and are squashed
                    // when the branch resolves; fills that complete
                    // in between must be invalidated.
                    for (std::uint32_t p = 0; p < _wrongPathProbes;
                         ++p) {
                        const Addr a = r.addr + 0x4000 +
                            (++t.lastWrongPathAddr *
                             cfg.mem.lineBytes);
                        memory::MemRequestResult wr = t.mem.request(
                            a, MemLevel::L2, d + 1);
                        if (wr.accepted && wr.mshr.valid())
                            t.mem.notifySquashed(wr.mshr, resolve);
                    }
                }
            } else if (r.taken) {
                t.fetch.redirectTaken(fc);
            }
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
        if (in.op == Op::RETMH && t.trapPending) {
            t.pipe.trapService.sample(complete - t.trapDispatch);
            t.trapPending = false;
            IMO_TRACE(t.trace, t.trapDispatch, obs::Cat::Trap, "trap-exit",
                      r.pc, 0, 0, complete - t.trapDispatch);
        }
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

    if (r.handlerCode)
        ++t.pipe.handlerInstructions;

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
        t.trapPending = true;
        t.trapDispatch = at_head + cfg.exceptionFlushPenalty;
        IMO_TRACE(t.trace, t.trapDispatch, obs::Cat::Trap, "trap-enter",
                  r.pc, r.addr);
    }

    // Retirement watchdog: a completion time that runs away from
    // the graduation frontier means nothing will retire for an
    // implausibly long time (e.g. a stuck fill).
    if (watchdog && complete > t.ledger.lastCycle() + watchdog) {
        t.ring.push(complete, "no-retire", r.pc, t.ledger.lastCycle());
        raiseDeadlock(t.ring, simFormat(
            "no retirement for %llu cycles: pc %u completes at "
            "cycle %llu, last graduation at %llu",
            static_cast<unsigned long long>(
                complete - t.ledger.lastCycle()),
            r.pc, static_cast<unsigned long long>(complete),
            static_cast<unsigned long long>(t.ledger.lastCycle())));
    }

    t.ring.push(complete, "grad", r.pc,
                static_cast<std::uint64_t>(in.op));
    IMO_TRACE(t.trace, complete, obs::Cat::Grad, "grad", r.pc,
              static_cast<std::uint64_t>(in.op));
    Cycle grad;
    if (t.obs && cache_reason) {
        const std::uint64_t before = t.ledger.cacheStallSlots();
        grad = t.ledger.graduate(complete + 1, cache_reason);
        t.obs->profiler.noteStall(r.pc,
                                  t.ledger.cacheStallSlots() - before);
    } else {
        grad = t.ledger.graduate(complete + 1, cache_reason);
    }
    t.gradHistory[t.index % cfg.robSize] = grad;

    // With the extended MSHR lifetime of section 3.3, demand-miss
    // entries stay pinned until the owning instruction graduates.
    // (Wrong-path probes were squashed at resolve above.)
    if (cfg.mem.extendedMshrLifetime && mshr_ref.valid())
        t.mem.notifyGraduated(mshr_ref, grad);

    // Periodically prune reservation bookkeeping behind the ROB.
    if ((t.index & 0xfff) == 0 && t.index >= cfg.robSize) {
        const Cycle frontier = t.gradHistory[t.index % cfg.robSize];
        t.fuInt.pruneBelow(frontier);
        t.fuFp.pruneBelow(frontier);
        t.fuBr.pruneBelow(frontier);
        t.fuMem.pruneBelow(frontier);
    }

    ++t.index;
    return true;
}

RunResult
OooCpu::result() const
{
    if (!_t) {
        RunResult res;
        res.machine = _config.name;
        res.issueWidth = _config.issueWidth;
        return res;
    }
    const Timing &t = *_t;
    RunResult res;
    res.machine = _config.name;
    res.issueWidth = _config.issueWidth;
    res.dataRefs = t.pipe.dataRefs.value();
    res.l1Misses = t.pipe.l1Misses.value();
    res.traps = t.pipe.traps.value();
    res.replayTraps = t.pipe.replayTraps.value();
    res.condBranches = t.pipe.condBranches.value();
    res.mispredicts = t.pipe.mispredicts.value();
    res.handlerInstructions = t.pipe.handlerInstructions.value();
    res.cycles = t.ledger.totalCycles();
    res.instructions = t.ledger.graduated();
    res.cacheStallSlots = t.ledger.cacheStallSlots();
    res.otherStallSlots = t.ledger.otherStallSlots();
    res.mshrFullRejects = t.mem.mshrFile().fullRejects();
    res.bankConflicts = t.mem.bankConflicts();
    res.squashInvalidations = t.mem.mshrFile().squashInvalidations();
    return res;
}

void
OooCpu::registerStats(stats::StatGroup &parent)
{
    panic_if(!_t, "OooCpu::registerStats before reset()");
    Timing *t = _t.get();
    auto &g = parent.childGroup("cpu");
    g.make<stats::Value>("cycles", "total simulated cycles",
                         [t] { return t->ledger.totalCycles(); });
    g.make<stats::Value>("instructions", "instructions graduated",
                         [t] { return t->ledger.graduated(); });
    g.make<stats::Value>("cache_stall_slots",
                         "graduation slots lost to cache misses",
                         [t] { return t->ledger.cacheStallSlots(); });
    g.make<stats::Value>("other_stall_slots",
                         "graduation slots lost to other causes",
                         [t] { return t->ledger.otherStallSlots(); });
    g.make<stats::Derived>("ipc", "instructions per cycle", [t] {
        const Cycle c = t->ledger.totalCycles();
        return c ? static_cast<double>(t->ledger.graduated()) / c : 0.0;
    });
    g.adoptChild(t->pipe.group);
    if (_config.useGshare)
        t->gshare.registerStats(g, "predictor");
    else
        t->bimodal.registerStats(g, "predictor");
    t->mem.registerStats(g);
}

RunResult
OooCpu::run(func::TraceSource &src)
{
    reset();
    while (step(src)) {
    }
    return result();
}

void
OooCpu::save(Serializer &s) const
{
    panic_if(!_t, "OooCpu::save before reset()");
    const Timing &t = *_t;
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
    Timing &t = *_t;
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
    t.lastWrongPathAddr = d.u64();
    t.trapPending = d.b();
    t.trapDispatch = d.u64();
    t.pipe.restore(d);
}

} // namespace imo::pipeline
