#include "pipeline/core_timing.hh"

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "pipeline/cpu_core.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"

namespace imo::pipeline
{

namespace
{

/** The functional-unit group @p cls issues to. With no memory units,
 *  memory operations go through the integer units (FuPool). */
FuGroup
fuGroupOf(isa::OpClass cls, const FuPool &fus)
{
    using isa::OpClass;
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

CoreTiming::CoreTiming(const MachineConfig &cfg)
    : fetch(cfg.issueWidth, cfg.takenBranchBubble), ledger(cfg.issueWidth),
      mem(cfg.mem), bimodal(cfg.predictorEntries),
      gshare(cfg.predictorEntries), obs(cfg.obs),
      trace(cfg.obs ? cfg.obs->traceSink() : nullptr)
{
    for (std::size_t c = 0; c < numOpClasses; ++c) {
        const auto cls = static_cast<isa::OpClass>(c);
        latOf[c] = cfg.lat.forClass(cls);
        fuOf[c] = fuGroupOf(cls, cfg.fus);
    }
    mem.setFaultInjector(cfg.faults);
    mem.setTraceSink(trace);
}

void
CoreTiming::stuckReference(const func::TraceRecord &r, Cycle issue,
                           Cycle probe)
{
    ring.push(probe, "stuck-ref", r.pc, mem.mshrFile().busyEntries(probe));
    throwWithRing(ErrCode::Deadlock, ring, simFormat(
        "memory reference at pc %u (addr %#llx) rejected for %llu "
        "cycles (MSHR/bank livelock; %u of %u MSHRs busy)",
        r.pc, static_cast<unsigned long long>(r.addr),
        static_cast<unsigned long long>(probe - issue),
        mem.mshrFile().busyEntries(probe), mem.mshrFile().capacity()));
}

void
CoreTiming::noRetirement(const func::TraceRecord &r, Cycle complete)
{
    ring.push(complete, "no-retire", r.pc, ledger.lastCycle());
    throwWithRing(ErrCode::Deadlock, ring, simFormat(
        "no retirement for %llu cycles: pc %u completes at cycle %llu, "
        "last graduation at %llu",
        static_cast<unsigned long long>(complete - ledger.lastCycle()),
        r.pc, static_cast<unsigned long long>(complete),
        static_cast<unsigned long long>(ledger.lastCycle())));
}

template <typename Cpu>
CpuCore<Cpu>::~CpuCore() = default;

template <typename Cpu>
void
CpuCore<Cpu>::warmCondBranch(InstAddr pc, bool taken)
{
    panic_if(!_t, "%s cpu: warmCondBranch before reset()", Cpu::kind);
    // update() only: warming must leave accuracy statistics untouched
    // (no lookup happened in the pipeline) while keeping the counter
    // table — and gshare's global history — exactly as trained.
    if (_config.useGshare)
        _t->gshare.update(pc, taken);
    else
        _t->bimodal.update(pc, taken);
}

template <typename Cpu>
void
CpuCore<Cpu>::saveWarmState(Serializer &s) const
{
    panic_if(!_t, "%s cpu: saveWarmState before reset()", Cpu::kind);
    _t->bimodal.save(s);
    _t->gshare.save(s);
}

template <typename Cpu>
void
CpuCore<Cpu>::restoreWarmState(Deserializer &d)
{
    panic_if(!_t, "%s cpu: restoreWarmState before reset()", Cpu::kind);
    _t->bimodal.restore(d);
    _t->gshare.restore(d);
}

template <typename Cpu>
void
CpuCore<Cpu>::copyWarmState(const Cpu &from)
{
    panic_if(!_t || !from._t, "%s cpu: copyWarmState before reset()",
             Cpu::kind);
    sim_throw_if(from._config.predictorEntries != _config.predictorEntries,
                 ErrCode::BadConfig,
                 "warm state of a %u-entry predictor cannot seed a "
                 "%u-entry one", from._config.predictorEntries,
                 _config.predictorEntries);
    _t->bimodal = from._t->bimodal;
    _t->gshare = from._t->gshare;
}

template <typename Cpu>
RunResult
CpuCore<Cpu>::result() const
{
    RunResult res;
    res.machine = _config.name;
    res.issueWidth = _config.issueWidth;
    if (!_t)
        return res;
    const CoreTiming &t = *_t;
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

template <typename Cpu>
RunResult
CpuCore<Cpu>::run(func::TraceSource &src)
{
    Cpu &cpu = static_cast<Cpu &>(*this);
    cpu.reset();
    while (cpu.step(src)) {
    }
    return result();
}

template <typename Cpu>
void
CpuCore<Cpu>::registerStats(stats::StatGroup &parent)
{
    panic_if(!_t, "%s cpu: registerStats before reset()", Cpu::kind);
    CoreTiming *t = _t.get();
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

template class CpuCore<OooCpu>;
template class CpuCore<InOrderCpu>;

} // namespace imo::pipeline
