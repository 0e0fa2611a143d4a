#include "sample/sample.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/checkpoint.hh"
#include "isa/verify.hh"
#include "pipeline/cpu_model.hh"
#include "pipeline/image.hh"

namespace imo::sample
{

void
SampleParams::validate() const
{
    sim_throw_if(fastForward == 0, ErrCode::BadConfig,
                 "sample: fast-forward gap (U) must be nonzero; use the "
                 "full detailed simulation instead of U=0");
    sim_throw_if(measure == 0, ErrCode::BadConfig,
                 "sample: measurement window (M) must be nonzero");
    sim_throw_if(maxPasses == 0, ErrCode::BadConfig,
                 "sample: maxPasses must be at least 1");
    sim_throw_if(targetRelErr < 0.0 || targetRelErr >= 1.0,
                 ErrCode::BadConfig,
                 "sample: target relative error %g outside [0, 1)",
                 targetRelErr);
}

std::string
SampleParams::spec() const
{
    return simFormat("%llu:%llu:%llu",
                     static_cast<unsigned long long>(fastForward),
                     static_cast<unsigned long long>(warmup),
                     static_cast<unsigned long long>(measure));
}

SampleParams
SampleParams::parse(const std::string &spec)
{
    std::vector<std::string> parts;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ':'))
        parts.push_back(item);
    sim_throw_if(parts.size() != 3, ErrCode::BadConfig,
                 "sample spec '%s' is not of the form U:W:M "
                 "(e.g. 10000:500:500)", spec.c_str());

    auto num = [&spec](const std::string &s, const char *what) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        // Digits only: strtoull would otherwise accept "-1" by
        // wrapping it to a huge unsigned value.
        sim_throw_if(s.empty() ||
                     s.find_first_not_of("0123456789") !=
                         std::string::npos ||
                     end == s.c_str() || *end != '\0',
                     ErrCode::BadConfig,
                     "sample spec '%s': bad %s value '%s'",
                     spec.c_str(), what, s.c_str());
        return static_cast<std::uint64_t>(v);
    };
    SampleParams p;
    p.fastForward = num(parts[0], "fast-forward (U)");
    p.warmup = num(parts[1], "warmup (W)");
    p.measure = num(parts[2], "measure (M)");
    p.validate();
    return p;
}

SampleParams
SampleParams::preset(const std::string &name,
                     const std::string &workload)
{
    if (name == "default")
        return SampleParams{};
    sim_throw_if(name != "periodic", ErrCode::BadConfig,
                 "unknown sample preset '%s' (known: default, periodic)",
                 name.c_str());

    // Workloads whose misses concentrate in a narrow periodic phase.
    // The default 9973-gap stride samples such a phase too sparsely:
    // most windows land in the compute body and the few that catch the
    // miss burst dominate the variance. A denser prime gap with wider
    // windows covers every period of the phase; the gaps differ per
    // workload so the stride stays co-prime with each one's loop
    // period. Tuned against the exact detailed run in EXPERIMENTS.md.
    SampleParams p;
    if (workload == "eqntott") {
        p.fastForward = 1999; // short bitmap-scan period
        p.warmup = 400;
        p.measure = 400;
    } else if (workload == "xlisp") {
        p.fastForward = 2503; // GC mark/sweep bursts
        p.warmup = 500;
        p.measure = 500;
    } else if (workload == "doduc") {
        p.fastForward = 3001; // nuclear-kernel inner loops
        p.warmup = 400;
        p.measure = 400;
    } else if (workload == "ora") {
        p.fastForward = 1499; // tight ray-step recurrence
        p.warmup = 300;
        p.measure = 300;
    }
    // Anything else keeps the defaults: the preset only overrides the
    // workloads with a demonstrated aliasing problem.
    p.validate();
    return p;
}

Sampler::Sampler(isa::Program program,
                 const pipeline::MachineConfig &config,
                 const SampleParams &params)
    : _program(std::move(program)), _config(config), _params(params)
{
}

bool
Sampler::foldWindow(const WindowSample &ws)
{
    _est.detailedInstructions += ws.warmed;
    if (ws.warmed < _params.warmup)
        return false; // halted during warmup
    _est.detailedInstructions += ws.measured;
    if (ws.measured < _params.measure)
        return false; // truncated window: not a full-length sample, drop

    _cpi.sample(static_cast<double>(ws.cycles) /
                static_cast<double>(_params.measure));
    // Zero-ref windows are legitimate ratio-estimator samples
    // (they pull the estimate's weight, not its value), but a
    // per-window ratio only exists when there are refs.
    _winMisses.push_back(static_cast<double>(ws.misses));
    _winRefs.push_back(static_cast<double>(ws.refs));
    if (ws.refs) {
        _missRate.sample(static_cast<double>(ws.misses) /
                         static_cast<double>(ws.refs));
    }
    return true;
}

void
Sampler::checkStop(const pipeline::SimulateOptions &opt) const
{
    if (opt.stopFlag && *opt.stopFlag) [[unlikely]] {
        // Graceful stop between windows; run() surfaces it as a
        // structured Interrupted estimate failure.
        throwSimError(ErrCode::Interrupted,
                      "interrupted after %llu sampled windows",
                      static_cast<unsigned long long>(_cpi.count()));
    }
}

template <typename Cpu>
void
Sampler::runWindows(const std::vector<LivePoint> &points,
                    const pipeline::SimulateOptions &opt)
{
    // One runner for every window: each restore overwrites the whole
    // executor, so samples stay pure functions of their live points
    // while the expensive executor construction (program copy, cache
    // and page arrays) happens once.
    WindowRunner<Cpu> runner(_program, _config);
    for (const LivePoint &p : points) {
        checkStop(opt);
        if (!foldWindow(runner.run(p, _params.warmup, _params.measure)))
            break;
    }
}

template <typename Cpu>
void
Sampler::runPassFromLibrary(const pipeline::SimulateOptions &opt)
{
    validateLibrary();
    const LivePointLibrary &lib = *_library;

    // The capture pass ran the whole program once; its exact totals
    // travel in the library header, which is what lets a library
    // consumer skip the functional pass entirely.
    _est.instructions = lib.totals.instructions;
    _est.dataRefs = lib.totals.dataRefs;
    _est.l1Misses = lib.totals.l1Misses;
    _est.traps = lib.totals.traps;

    runWindows<Cpu>(lib.points, opt);
}

template <typename Cpu>
void
Sampler::runPass(std::uint32_t pass, const pipeline::SimulateOptions &opt)
{
    if (_library) {
        runPassFromLibrary<Cpu>(opt);
        return;
    }

    func::Executor exec(_program,
                        func::Executor::Config{
                            .l1 = _config.l1,
                            .l2 = _config.l2,
                            .maxInstructions = _config.maxInstructions});
    // The accumulator machine is never measured: it soaks up warmCond-
    // Branch() for every conditional branch — gaps and window spans
    // alike — so its predictor tables at any window boundary are a
    // pure fold over the whole instruction prefix, independent of how
    // the windows themselves are executed.
    Cpu accum(_config);
    accum.reset();

    std::vector<std::uint8_t> in_image;
    const std::vector<std::uint8_t> *resume = opt.resumeImage;
    if (!resume && !opt.checkpointIn.empty()) {
        in_image = Deserializer::readFile(opt.checkpointIn);
        resume = &in_image;
    }
    if (resume) {
        _est.resumedInstructions =
            pipeline::restoreImage(*resume, Cpu::kind, exec, accum,
                                   _config.faults);
    }

    PredictorWarmer<Cpu> warmer(accum);

    const std::uint64_t U = _params.fastForward;
    const std::uint64_t W = _params.warmup;
    const std::uint64_t M = _params.measure;

    // Deterministic phase offset: extension pass p shifts its first
    // gap by p*U/maxPasses so its windows interleave with pass 0's
    // instead of re-measuring the same instructions. A pure function
    // of the parameters — no RNG, no wall clock.
    std::uint64_t gap =
        U + U * pass / std::max<std::uint32_t>(_params.maxPasses, 1);

    if (!_retainCapture) {
        // Interleaved mode: each window runs in place on the live
        // executor, on a fresh machine seeded with the accumulator's
        // warm state. The tee keeps the accumulator warm across the
        // window span; no machine state is ever serialized.
        WarmingTraceSource<Cpu> tee(exec, accum);
        for (;;) {
            checkStop(opt);
            if (exec.fastForward(gap, &warmer) < gap)
                break; // program halted inside the gap
            gap = U;

            Cpu win(_config);
            win.reset();
            win.copyWarmState(accum);
            if (!foldWindow(measureWindow(win, tee, W, M)))
                break;
        }
    } else {
        // Capture mode: the functional pass snapshots a live point at
        // every window boundary (fast-forwarding straight through the
        // window spans), then the windows replay from their live
        // points.
        auto lib = std::make_shared<LivePointLibrary>();
        lib->kind = Cpu::kind;
        lib->workload = _program.name();
        lib->programFingerprint = _program.fingerprint();
        lib->digest = captureDigest(_config);
        lib->fastForward = U;
        lib->warmup = W;
        lib->measure = M;
        for (;;) {
            checkStop(opt);
            if (exec.fastForward(gap, &warmer) < gap)
                break;
            gap = U;
            lib->points.push_back(
                {makeWarmImage(accum), makeExecImage(exec)});
            if (exec.fastForward(W + M, &warmer) < W + M)
                break; // halted inside the window span
        }
        const func::ExecStats &cs = exec.stats();
        lib->totals = ExactTotals{cs.instructions, cs.dataRefs,
                                  cs.l1Misses, cs.traps};
        if (pass == 0)
            _captured = lib;
        runWindows<Cpu>(lib->points, opt);
    }

    // The functional side executed the whole program regardless of how
    // the windows fell, so these totals are exact (and identical in
    // every pass — only the window placement differs).
    const func::ExecStats &es = exec.stats();
    _est.instructions = es.instructions;
    _est.dataRefs = es.dataRefs;
    _est.l1Misses = es.l1Misses;
    _est.traps = es.traps;

    if (pass == 0 && !opt.checkpointOut.empty()) {
        // The accumulator is quiesced (it only ever received warming
        // updates), so the image is taken at a valid boundary in every
        // mode.
        writeCheckpointFile(
            opt.checkpointOut,
            pipeline::makeImage(Cpu::kind, _program, exec, accum,
                                _config.faults, es.instructions));
    }
}

template <typename Cpu>
void
Sampler::runPasses(const pipeline::SimulateOptions &opt)
{
    runPass<Cpu>(0, opt);
    _est.passes = 1;
    // Error-targeted auto-extension: pool more phase-offset passes
    // until the CPI confidence interval meets the target (at least two
    // windows are needed for the interval to mean anything).
    while (_params.targetRelErr > 0.0 && _est.passes < _params.maxPasses &&
           (_cpi.count() < 2 ||
            _cpi.relativeError() > _params.targetRelErr)) {
        runPass<Cpu>(_est.passes, opt);
        ++_est.passes;
    }
}

void
Sampler::finishMissRateEstimate()
{
    // Ratio estimator over the measured windows: R = pooled misses /
    // pooled refs, var(R) ~= sum((m_i - R r_i)^2) / (n-1) / (n rbar^2)
    // (Taylor linearization). Each window is weighted by its refs, so
    // ref-heavy miss-heavy windows cannot bias the estimate the way an
    // equal-weighted mean of per-window ratios would.
    const std::size_t n = _winMisses.size();
    double sum_m = 0.0;
    double sum_r = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum_m += _winMisses[i];
        sum_r += _winRefs[i];
    }
    if (sum_r <= 0.0)
        return;
    const double ratio = sum_m / sum_r;
    _est.missRateMean = ratio;
    if (n < 2)
        return;
    const double rbar = sum_r / static_cast<double>(n);
    double dev2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = _winMisses[i] - ratio * _winRefs[i];
        dev2 += d * d;
    }
    _est.missRateVariance = dev2 / static_cast<double>(n - 1) /
        (static_cast<double>(n) * rbar * rbar);
    _est.missRateCi95 = 1.96 * std::sqrt(_est.missRateVariance);
}

void
Sampler::resetAccumulators()
{
    _cpi.reset();
    _missRate.reset();
    _winMisses.clear();
    _winRefs.clear();
    _captured.reset();
    _est = SampleEstimate{};
    _est.machine = _config.name;
    _est.workload = _program.name();
    _est.spec = _params.spec();
}

void
Sampler::finishEstimate()
{
    _est.windows = _cpi.count();
    _est.cpiMean = _cpi.mean();
    _est.cpiVariance = _cpi.variance();
    _est.cpiCi95 = _cpi.ci95();
    finishMissRateEstimate();
}

std::string
libraryMismatch(const LivePointLibrary &lib, const isa::Program &program,
                const pipeline::MachineConfig &config,
                const SampleParams &params)
{
    const char *kind = pipeline::withCpuModel(
        config, []<typename Cpu>(std::type_identity<Cpu>) {
            return Cpu::kind;
        });
    if (lib.kind != kind) {
        return simFormat("live-point library was captured on a '%s' "
                         "machine, this configuration is '%s'",
                         lib.kind.c_str(), kind);
    }
    if (lib.programFingerprint != program.fingerprint()) {
        return simFormat(
            "live-point library was captured from workload '%s' "
            "(fingerprint %llx), not this program (%llx)",
            lib.workload.c_str(),
            static_cast<unsigned long long>(lib.programFingerprint),
            static_cast<unsigned long long>(program.fingerprint()));
    }
    if (lib.digest != captureDigest(config)) {
        return simFormat(
            "live-point library was captured under a different "
            "cache/predictor geometry (digest %llx, this configuration "
            "%llx)",
            static_cast<unsigned long long>(lib.digest),
            static_cast<unsigned long long>(captureDigest(config)));
    }
    if (lib.fastForward != params.fastForward ||
        lib.warmup != params.warmup || lib.measure != params.measure) {
        return simFormat(
            "live-point library was captured on a %llu:%llu:%llu "
            "schedule, not %s",
            static_cast<unsigned long long>(lib.fastForward),
            static_cast<unsigned long long>(lib.warmup),
            static_cast<unsigned long long>(lib.measure),
            params.spec().c_str());
    }
    return {};
}

void
Sampler::validateLibrary() const
{
    const std::string why =
        libraryMismatch(*_library, _program, _config, _params);
    sim_throw_if(!why.empty(), ErrCode::BadConfig, "%s", why.c_str());
}

template <typename Body>
SampleEstimate
Sampler::guarded(Body &&body)
{
    resetAccumulators();

    try {
        _params.validate();
        _config.validate();
        isa::verifyProgram(_program);
        body();
    } catch (const SimException &e) {
        _est.ok = false;
        _est.error = e.error();
    } catch (const std::exception &e) {
        _est.ok = false;
        _est.error = SimError{ErrCode::Internal, e.what(), {}};
    }
    return _est;
}

SampleEstimate
Sampler::run(const pipeline::SimulateOptions &options)
{
    return guarded([&] {
        if (_library) {
            sim_throw_if(_params.targetRelErr > 0.0, ErrCode::BadConfig,
                         "error-targeted extension re-runs the "
                         "functional pass with new phase offsets; it "
                         "cannot sample from a live-point library");
            sim_throw_if(!options.checkpointOut.empty() ||
                         !options.checkpointIn.empty() ||
                         options.resumeImage, ErrCode::BadConfig,
                         "checkpoint options do not apply when "
                         "sampling from a live-point library (no "
                         "functional pass runs)");
        }

        pipeline::withCpuModel(
            _config, [&]<typename Cpu>(std::type_identity<Cpu>) {
                runPasses<Cpu>(options);
            });

        finishEstimate();
        xcheckAgainstFull();
    });
}

SampleEstimate
Sampler::runFromSharedPass(const ExactTotals &totals,
                           const std::vector<WindowSample> &samples)
{
    return guarded([&] {
        // Mirror the interleaved pass exactly: fold in window order
        // and stop at the first truncated window (program halt).
        // foldWindow() never reads the totals, so they may be applied
        // in any order.
        for (const WindowSample &ws : samples)
            if (!foldWindow(ws))
                break;

        _est.instructions = totals.instructions;
        _est.dataRefs = totals.dataRefs;
        _est.l1Misses = totals.l1Misses;
        _est.traps = totals.traps;
        _est.passes = 1;

        finishEstimate();
        xcheckAgainstFull();
    });
}

void
Sampler::xcheckAgainstFull()
{
#ifdef IMO_PARANOID_XCHECK
    // Fault injection consumes PRNG draws per detailed event, so a
    // full run and a sampled run see different fault streams and are
    // not comparable; a windowless run estimates nothing. Resumed runs
    // cover a program suffix a cold full run would not match.
    if (_config.faults || _est.windows == 0 ||
        _est.resumedInstructions != 0) {
        return;
    }

    pipeline::MachineConfig full_cfg = _config;
    full_cfg.obs = nullptr;
    const pipeline::RunResult full =
        pipeline::simulate(_program, full_cfg);
    sim_throw_if(!full.ok, ErrCode::Internal,
                 "xcheck: full reference run failed: %s",
                 full.error.message.c_str());

    // The sampled estimate must land inside its own reported interval
    // around the detailed truth. The interval is floored at 2% of the
    // reference value (the accuracy budget this engine targets) so a
    // handful of near-identical windows reporting a degenerate
    // zero-width CI cannot turn an accurate estimate into a false
    // alarm, and at an absolute 0.002 for miss rates near zero.
    const double full_cpi = full.instructions
        ? static_cast<double>(full.cycles) / full.instructions : 0.0;
    const double cpi_tol = std::max(_est.cpiCi95, 0.02 * full_cpi);
    sim_throw_if(std::abs(full_cpi - _est.cpiMean) > cpi_tol,
                 ErrCode::Internal,
                 "xcheck: sampled CPI %.6f +/- %.6f misses full-run "
                 "CPI %.6f (%s, %s, %s, %llu windows)",
                 _est.cpiMean, cpi_tol, full_cpi,
                 _est.machine.c_str(), _est.workload.c_str(),
                 _est.spec.c_str(),
                 static_cast<unsigned long long>(_est.windows));

    const double full_rate = full.dataRefs
        ? static_cast<double>(full.l1Misses) / full.dataRefs : 0.0;
    const double rate_tol = std::max(
        {_est.missRateCi95, 0.02 * full_rate, 0.002});
    sim_throw_if(std::abs(full_rate - _est.missRateMean) > rate_tol,
                 ErrCode::Internal,
                 "xcheck: sampled L1 miss rate %.6f +/- %.6f misses "
                 "full-run rate %.6f (%s, %s, %s)",
                 _est.missRateMean, rate_tol, full_rate,
                 _est.machine.c_str(), _est.workload.c_str(),
                 _est.spec.c_str());
#endif
}

void
Sampler::registerStats(stats::StatGroup &parent)
{
    auto &g = parent.childGroup("sample");
    g.adopt(_cpi);
    g.adopt(_missRate);
    g.make<stats::Value>("windows", "full measurement windows pooled",
                         [this] { return _est.windows; });
    g.make<stats::Value>("passes", "sampling passes run", [this] {
        return static_cast<std::uint64_t>(_est.passes);
    });
    g.make<stats::Value>("instructions",
                         "instructions executed functionally (exact)",
                         [this] { return _est.instructions; });
    g.make<stats::Value>("detailed_instructions",
                         "instructions stepped through the timing model",
                         [this] { return _est.detailedInstructions; });
    g.make<stats::Derived>("est_cycles",
                           "window CPI mean x exact instructions",
                           [this] { return _est.estCycles(); });
    g.make<stats::Derived>("exact_l1_miss_rate",
                           "functionally exact L1 miss rate",
                           [this] { return _est.exactMissRate(); });
}

} // namespace imo::sample
