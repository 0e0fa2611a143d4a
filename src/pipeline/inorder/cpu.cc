#include "pipeline/inorder/cpu.hh"

#include <algorithm>
#include <array>

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
fuGroupOf(OpClass cls, const FuPool &fus)
{
    switch (cls) {
      case OpClass::IntAlu: case OpClass::IntMul: case OpClass::IntDiv:
        return FuGroup::Int;
      case OpClass::FpAlu: case OpClass::FpDiv: case OpClass::FpSqrt:
        return FuGroup::Fp;
      case OpClass::Branch: case OpClass::Jump:
        return FuGroup::Branch;
      case OpClass::Load: case OpClass::Store: case OpClass::Prefetch:
        return fus.memUnits == 0 ? FuGroup::Int : FuGroup::Mem;
      default:
        return FuGroup::None;
    }
}

} // anonymous namespace

/** All mutable state of one in-order timing run. */
struct InOrderCpu::Timing
{
    explicit Timing(const MachineConfig &cfg)
        : fetch(cfg.issueWidth, cfg.takenBranchBubble),
          port(cfg.issueWidth,
               {cfg.fus.intUnits, cfg.fus.fpUnits, cfg.fus.branchUnits,
                cfg.fus.memUnits ? cfg.fus.memUnits : cfg.fus.intUnits,
                cfg.issueWidth}),
          ledger(cfg.issueWidth), mem(cfg.mem), bimodal(cfg.predictorEntries),
          gshare(cfg.predictorEntries), ring(32)
    {
        mem.setFaultInjector(cfg.faults);
        obs = cfg.obs;
        trace = obs ? obs->traceSink() : nullptr;
        mem.setTraceSink(trace);
    }

    FetchEngine fetch;
    InOrderIssuePort port;
    GraduationLedger ledger;
    memory::TimingMemorySystem mem;
    branch::TwoBitPredictor bimodal;
    branch::GsharePredictor gshare;
    DiagRing ring;

    // Register scoreboard: when each value becomes available, and
    // whether it is being produced by an in-flight primary-cache miss
    // (for replay-trap emulation).
    std::array<Cycle, isa::numUnifiedRegs> regReady{};
    std::array<Cycle, isa::numUnifiedRegs> regMissDetect{};
    std::array<bool, isa::numUnifiedRegs> regFromMiss{};
    Cycle ccReady = 0;
    Cycle mhrrReady = 0;
    Cycle lastIssue = 0;

    // A pipeline flush (replay trap, misprediction) squashes every
    // younger in-flight instruction: none may issue before the refetch
    // reaches the issue stage again.
    Cycle issueFloor = 0;

    // Informing trap service measurement: dispatch cycle of the trap
    // whose RETMH has not yet completed (handlers cannot nest).
    bool trapPending = false;
    Cycle trapDispatch = 0;

    std::uint64_t consumed = 0;
    PipeStats pipe;  //!< live counters; RunResult derives from these
    obs::Observer *obs = nullptr;
    obs::TraceSink *trace = nullptr;
};

InOrderCpu::InOrderCpu(const MachineConfig &config) : _config(config)
{
    sim_throw_if(config.outOfOrder, ErrCode::BadConfig,
                 "InOrderCpu given an out-of-order configuration '%s'",
                 config.name.c_str());
}

InOrderCpu::~InOrderCpu() = default;

void
InOrderCpu::reset()
{
    _t = std::make_unique<Timing>(_config);
}

std::uint64_t
InOrderCpu::retired() const
{
    return _t ? _t->consumed : 0;
}

void
InOrderCpu::warmCondBranch(InstAddr pc, bool taken)
{
    panic_if(!_t, "InOrderCpu::warmCondBranch before reset()");
    // update() only: warming must leave accuracy statistics untouched
    // (no lookup happened in the pipeline) while keeping the counter
    // table — and gshare's global history — exactly as trained.
    if (_config.useGshare)
        _t->gshare.update(pc, taken);
    else
        _t->bimodal.update(pc, taken);
}

void
InOrderCpu::saveWarmState(Serializer &s) const
{
    panic_if(!_t, "InOrderCpu::saveWarmState before reset()");
    _t->bimodal.save(s);
    _t->gshare.save(s);
}

void
InOrderCpu::restoreWarmState(Deserializer &d)
{
    panic_if(!_t, "InOrderCpu::restoreWarmState before reset()");
    _t->bimodal.restore(d);
    _t->gshare.restore(d);
}

void
InOrderCpu::copyWarmState(const InOrderCpu &from)
{
    panic_if(!_t || !from._t, "InOrderCpu::copyWarmState before reset()");
    sim_throw_if(from._config.predictorEntries != _config.predictorEntries,
                 ErrCode::BadConfig,
                 "warm state of a %u-entry predictor cannot seed a "
                 "%u-entry one", from._config.predictorEntries,
                 _config.predictorEntries);
    _t->bimodal = from._t->bimodal;
    _t->gshare = from._t->gshare;
}

bool
InOrderCpu::step(func::TraceSource &src)
{
    panic_if(!_t, "InOrderCpu::step before reset()");
    Timing &t = *_t;
    const MachineConfig &cfg = _config;
    const Cycle watchdog = cfg.watchdogCycles;

    auto predict_and_update = [&](InstAddr pc, bool taken) {
        bool correct = cfg.useGshare
            ? t.gshare.predictAndUpdate(pc, taken)
            : t.bimodal.predictAndUpdate(pc, taken);
        if (cfg.faults && cfg.faults->fire(FaultPoint::MispredictStorm))
            correct = false;
        return correct;
    };
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

    const Cycle fc = t.fetch.fetchNext();
    Cycle earliest = std::max({fc + cfg.frontendDepth, t.lastIssue,
                               t.issueFloor});

    // Source operands (presence bits), with the 21164 replay trap:
    // if this instruction would have issued inside a missing load's
    // hit shadow, it is flushed and replayed, paying the penalty.
    const Cycle base = earliest;
    const isa::SrcRegs srcs = isa::srcRegs(in);
    bool replayed = false;
    for (std::uint8_t i = 0; i < srcs.count; ++i) {
        const std::uint8_t s = srcs.reg[i];
        Cycle constraint = t.regReady[s];
        if (t.regFromMiss[s] && base < t.regMissDetect[s]) {
            constraint = std::max(constraint,
                                  t.regMissDetect[s] +
                                  cfg.replayTrapPenalty);
            replayed = true;
        }
        earliest = std::max(earliest, constraint);
    }
    if (replayed) {
        ++t.pipe.replayTraps;
        IMO_TRACE(t.trace, base, obs::Cat::Issue, "replay-trap", r.pc);
    }
    if (in.op == Op::BRMISS || in.op == Op::BRMISS2)
        earliest = std::max(earliest, t.ccReady);
    if (in.op == Op::RETMH || in.op == Op::GETMHRR)
        earliest = std::max(earliest, t.mhrrReady);

    const Cycle issue = t.port.reserve(fuGroupOf(cls, cfg.fus), earliest);
    t.lastIssue = issue;
    IMO_TRACE(t.trace, issue, obs::Cat::Issue, "issue", r.pc,
              static_cast<std::uint64_t>(in.op));

    Cycle complete = issue + cfg.lat.forClass(cls);
    bool cache_reason = false;

    switch (cls) {
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::Prefetch: {
        // Present the reference to the lockup-free memory system,
        // retrying on structural hazards (bank/MSHR busy). A
        // reference that keeps being rejected is a livelock: the
        // watchdog converts it into a structured Deadlock error.
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
            // Stores and prefetches retire into the write buffer /
            // MSHR without blocking graduation.
            complete = probe + 1;
        }

        // An in-order machine issues memory operations
        // non-speculatively, so the section-3.3 extended MSHR
        // lifetime releases at completion (nothing can squash).
        if (cfg.mem.extendedMshrLifetime && mr.mshr.valid())
            t.mem.notifyGraduated(mr.mshr, complete);

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
            if (rd >= 0) {
                t.regReady[rd] = complete;
                t.regFromMiss[rd] = missed;
                t.regMissDetect[rd] = miss_detect;
            }

            if (r.trapped) {
                // Informing dispatch via the replay-trap mechanism:
                // flush and refetch from the handler.
                ++t.pipe.traps;
                t.mhrrReady = miss_detect + 1;
                flush_at(miss_detect + cfg.replayTrapPenalty);
                t.ring.push(miss_detect, "trap", r.pc, r.addr);
                t.trapPending = true;
                t.trapDispatch = miss_detect;
                IMO_TRACE(t.trace, miss_detect, obs::Cat::Trap,
                          "trap-enter", r.pc, r.addr);
            }
        }
        break;
      }

      case OpClass::Branch: {
        const Cycle resolve = issue + 1;
        complete = resolve;
        if (in.op == Op::BRMISS ||
            in.op == Op::BRMISS2) {
            // Statically predicted not-taken (the common case is a
            // hit); taken means a mispredict-style redirect.
            ++t.pipe.condBranches;
            if (r.taken) {
                t.mhrrReady = resolve + 1;
                flush_at(resolve + cfg.redirectPenalty);
                ++t.pipe.mispredicts;
            }
        } else {
            ++t.pipe.condBranches;
            const bool correct = predict_and_update(r.pc, r.taken);
            if (!correct) {
                ++t.pipe.mispredicts;
                flush_at(resolve + cfg.redirectPenalty);
                t.ring.push(resolve, "mispredict", r.pc, r.taken);
                IMO_TRACE(t.trace, resolve, obs::Cat::Fetch, "mispredict",
                          r.pc, r.taken);
            } else if (r.taken) {
                t.fetch.redirectTaken(fc);
            }
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
        if (in.op == Op::RETMH && t.trapPending) {
            t.pipe.trapService.sample(complete - t.trapDispatch);
            t.trapPending = false;
            IMO_TRACE(t.trace, t.trapDispatch, obs::Cat::Trap, "trap-exit",
                      r.pc, 0, 0, complete - t.trapDispatch);
        }
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

    if (r.handlerCode)
        ++t.pipe.handlerInstructions;

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
    if (t.obs && cache_reason) {
        const std::uint64_t before = t.ledger.cacheStallSlots();
        t.ledger.graduate(complete, cache_reason);
        t.obs->profiler.noteStall(r.pc,
                                  t.ledger.cacheStallSlots() - before);
    } else {
        t.ledger.graduate(complete, cache_reason);
    }
    return true;
}

RunResult
InOrderCpu::result() const
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
InOrderCpu::registerStats(stats::StatGroup &parent)
{
    panic_if(!_t, "InOrderCpu::registerStats before reset()");
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
InOrderCpu::run(func::TraceSource &src)
{
    reset();
    while (step(src)) {
    }
    return result();
}

void
InOrderCpu::save(Serializer &s) const
{
    panic_if(!_t, "InOrderCpu::save before reset()");
    const Timing &t = *_t;
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
    Timing &t = *_t;
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
