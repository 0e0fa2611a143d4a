#include "sample/sharedpass.hh"

#include "common/error.hh"
#include "func/executor.hh"
#include "memory/multicache.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"

namespace imo::sample
{

namespace
{

/** Forwards warming branch outcomes to the shared accumulator. */
template <typename Cpu>
class PredictorWarmer final : public func::WarmSink
{
  public:
    explicit PredictorWarmer(Cpu &cpu) : _cpu(cpu) {}

    void
    condBranch(InstAddr pc, bool taken) override
    {
        _cpu.warmCondBranch(pc, taken);
    }

  private:
    Cpu &_cpu;
};

/**
 * RefSink that drives the multi-config engine with the executor's raw
 * reference stream; the engine's own capture spans record each demand
 * reference's per-class service level, aligned with the window's
 * data-reference ordinals.
 */
class EngineSink final : public func::RefSink
{
  public:
    explicit EngineSink(memory::MultiCacheSim &engine) : _engine(engine)
    {
    }

    void
    onAccess(Addr addr, bool is_write) override
    {
        _engine.access(addr, is_write);
    }

    void
    onPrefetch(Addr addr) override
    {
        _engine.prefetch(addr);
    }

  private:
    memory::MultiCacheSim &_engine;
};

/**
 * Replays one buffered window span, substituting each demand data
 * reference's level with one classification config's outcome. The
 * patched stream is exactly what the member's own executor would have
 * produced, so the timing model cannot tell the difference.
 */
class PatchedWindowSource final : public func::TraceSource
{
  public:
    PatchedWindowSource(const std::vector<func::TraceRecord> &records,
                        const std::vector<std::uint8_t> &levels)
        : _records(records), _levels(levels)
    {
    }

    bool
    next(func::TraceRecord &out) override
    {
        if (_pos >= _records.size())
            return false;
        out = _records[_pos++];
        if (isa::isDataRef(out.inst.op))
            out.level = static_cast<MemLevel>(_levels[_ref++]);
        return true;
    }

  private:
    const std::vector<func::TraceRecord> &_records;
    const std::vector<std::uint8_t> &_levels;
    std::size_t _pos = 0;
    std::size_t _ref = 0;
};


template <typename Cpu>
SharedPassResult
runSharedPassImpl(const isa::Program &program,
                  const std::vector<pipeline::MachineConfig> &members,
                  const SampleParams &params)
{
    // Dedupe classification work: the per-member window replay applies
    // the latency/MSHR knobs, so one engine config serves each class.
    std::vector<std::size_t> classOf;
    const std::vector<memory::MultiCacheConfig> classCfgs =
        geometryClasses(members, &classOf);

    memory::MultiCacheSim engine(classCfgs);
    EngineSink sink(engine);

    // The executor runs under the first member's geometry; its own
    // hierarchy outcome is never consumed (levels are patched per
    // member), it merely keeps the execution semantics identical to a
    // dedicated pass. The engine observes the stream via the RefSink.
    func::Executor exec(program,
                        func::Executor::Config{
                            .l1 = members[0].l1,
                            .l2 = members[0].l2,
                            .maxInstructions =
                                members[0].maxInstructions});
    exec.setRefSink(&sink);

    Cpu accum(members[0]);
    accum.reset();
    PredictorWarmer<Cpu> warmer(accum);
    // The accumulator's state at the window boundary, held while the
    // window span trains the accumulator on.
    Cpu warm(members[0]);
    warm.reset();

    const std::uint64_t U = params.fastForward;
    const std::uint64_t W = params.warmup;
    const std::uint64_t M = params.measure;

    SharedPassResult res;
    res.samples.resize(members.size());
    res.totals.resize(members.size());

    std::vector<func::TraceRecord> window;
    window.reserve(W + M);

    // Mirror of Sampler::runPass interleaved mode, pass 0: the first
    // gap is U (pass-0 phase offset is zero), later gaps are U.
    for (;;) {
        if (exec.fastForward(U, &warmer) < U)
            break; // program halted inside the gap

        warm.copyWarmState(accum);

        // Buffer the window span once, training the accumulator with
        // every conditional branch exactly as the dedicated tee would.
        window.clear();
        engine.beginCapture();
        func::TraceRecord rec;
        while (window.size() < W + M && exec.next(rec)) {
            switch (rec.inst.op) {
              case isa::Op::BEQ:
              case isa::Op::BNE:
              case isa::Op::BLT:
              case isa::Op::BGE:
                accum.warmCondBranch(rec.pc, rec.taken);
                break;
              default:
                break;
            }
            window.push_back(rec);
        }
        engine.endCapture();
        ++res.windows;

        // Replay the span once per member on a fresh machine seeded
        // with the shared warm state.
        for (std::size_t m = 0; m < members.size(); ++m) {
            PatchedWindowSource src(
                window, engine.capturedLevels(classOf[m]));
            Cpu win(members[m]);
            win.reset();
            win.copyWarmState(warm);

            WindowSample ws;
            ws.warmed = stepWindow(win, src, W);
            if (ws.warmed == W) {
                const pipeline::RunResult r0 = win.result();
                ws.measured = stepWindow(win, src, M);
                const pipeline::RunResult r1 = win.result();
                ws.cycles = r1.cycles - r0.cycles;
                ws.misses = r1.l1Misses - r0.l1Misses;
                ws.refs = r1.dataRefs - r0.dataRefs;
            }
            res.samples[m].push_back(ws);
        }

        if (window.size() < W + M)
            break; // program halted inside the window span
    }

    exec.setRefSink(nullptr);
    engine.sync(); // settle deferred L2 work before reading counters

    const func::ExecStats &es = exec.stats();
    for (std::size_t m = 0; m < members.size(); ++m) {
        res.totals[m] = ExactTotals{
            .instructions = es.instructions,
            .dataRefs = es.dataRefs,
            .l1Misses = engine.l1Misses(classOf[m]),
            .traps = es.traps};
    }
    res.configs = classCfgs.size();
    res.streamLength = engine.accesses();
    res.prefetches = engine.prefetches();
    return res;
}

} // namespace

std::vector<memory::MultiCacheConfig>
geometryClasses(const std::vector<pipeline::MachineConfig> &members,
                std::vector<std::size_t> *classOf)
{
    const auto same = [](const memory::CacheGeometry &a,
                         const memory::CacheGeometry &b) {
        return a.sizeBytes == b.sizeBytes && a.lineBytes == b.lineBytes &&
               a.assoc == b.assoc;
    };
    std::vector<memory::MultiCacheConfig> classes;
    if (classOf)
        classOf->assign(members.size(), 0);
    for (std::size_t m = 0; m < members.size(); ++m) {
        const pipeline::MachineConfig &cfg = members[m];
        std::size_t k = 0;
        while (k < classes.size() && !(same(classes[k].l1, cfg.l1) &&
                                       same(classes[k].l2, cfg.l2)))
            ++k;
        if (k == classes.size())
            classes.push_back({cfg.l1, cfg.l2});
        if (classOf)
            (*classOf)[m] = k;
    }
    return classes;
}

bool
sharedPassEligible(const isa::Program &program)
{
    for (const isa::Instruction &in : program.insts()) {
        switch (in.op) {
          case isa::Op::BRMISS:
          case isa::Op::BRMISS2:
          case isa::Op::SETMHAR:
          case isa::Op::SETMHARR:
          case isa::Op::SETMHARPC:
            return false;
          default:
            break;
        }
    }
    return true;
}

SharedPassResult
runSharedGeometryPass(const isa::Program &program,
                      const std::vector<pipeline::MachineConfig> &members,
                      const SampleParams &params)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "shared pass: no member configurations");
    sim_throw_if(!sharedPassEligible(program), ErrCode::BadConfig,
                 "shared pass: program '%s' contains cache-outcome-"
                 "dependent operations; its reference stream is not "
                 "geometry-invariant",
                 program.name().c_str());
    params.validate();
    for (const pipeline::MachineConfig &cfg : members) {
        cfg.validate();
        sim_throw_if(cfg.outOfOrder != members[0].outOfOrder ||
                     cfg.maxInstructions != members[0].maxInstructions,
                     ErrCode::BadConfig,
                     "shared pass: member machine kinds or instruction "
                     "budgets differ");
    }

    if (members[0].outOfOrder)
        return runSharedPassImpl<pipeline::OooCpu>(program, members,
                                                   params);
    return runSharedPassImpl<pipeline::InOrderCpu>(program, members,
                                                   params);
}

} // namespace imo::sample
