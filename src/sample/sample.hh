/**
 * @file
 * SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003,
 * applied to this reproduction's two-phase engine).
 *
 * The controller alternates three regimes on instruction boundaries:
 *
 *   fast-forward (U)  -> detailed warmup (W) -> detailed measure (M)
 *
 * During fast-forward the functional executor advances architectural
 * state at full speed with *functional warming*: the reference cache
 * hierarchy is driven by every data reference (it always is — the
 * executor owns it), and conditional-branch outcomes are streamed into
 * the timing model's branch predictor via Cpu::warmCondBranch(). No
 * pipeline slots, MSHR timing, or bank contention are simulated in the
 * gap. Informing-op semantics stay exact: miss traps dispatch, handlers
 * execute, condition codes update — architectural state never forks.
 *
 * Each detailed window first steps the timing model W instructions to
 * re-establish short-lived micro-architectural state (pipeline
 * occupancy, MSHR residency, future-cycle bookkeeping), then measures M
 * instructions. Per-window CPI and L1 miss-rate samples accumulate in
 * stats::Distribution accumulators (Welford mean/variance/95% CI).
 *
 * The schedule is a pure function of the parameters and the instruction
 * stream — no wall clock, no RNG — so sampled results are bit-identical
 * across invocations and across sweep worker counts. The optional
 * error-targeted auto-extension reruns the program with deterministic
 * phase offsets (pass p starts its first gap at p*U/maxPasses extra
 * instructions) until the CPI CI meets the target or maxPasses is hit.
 *
 * Every measurement window runs on a *fresh* timing model seeded only
 * with the warm predictor state a continuously warmed "accumulator"
 * machine has reached at the window's boundary; short-lived state
 * (pipeline occupancy, MSHRs, BTB) is re-established by the W warmup
 * span. Windows are therefore independent by construction
 * (sample/livepoint.hh): the controller runs them interleaved with the
 * functional pass (the sequential path), or captures per-window live
 * points in memory and runs them after the pass (setRetainCapture), or
 * skips the functional pass entirely and replays a captured library
 * (setLibrary). All three modes fold the same per-window samples in the
 * same order, so their estimates — and any report derived from them —
 * are byte-identical.
 *
 * Under -DIMO_PARANOID_XCHECK=ON every run() additionally performs the
 * full detailed simulation and asserts the sampled CPI and miss-rate
 * estimates land inside their own reported confidence intervals
 * (widened by a 2% floor against degenerate zero-variance windows).
 */

#ifndef IMO_SAMPLE_SAMPLE_HH
#define IMO_SAMPLE_SAMPLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/stats.hh"
#include "isa/program.hh"
#include "pipeline/config.hh"
#include "pipeline/simulate.hh"
#include "sample/livepoint.hh"

namespace imo::sample
{

/** The sampling schedule: the U:W:M triple plus extension policy. */
struct SampleParams
{
    // The default gap is prime so the sampling stride (U+W+M) stays
    // co-prime with loop periods; a round stride like 11000 aliases
    // with periodic workloads and silently biases the window samples
    // (tight CI around the wrong value).
    std::uint64_t fastForward = 9973; //!< U: functional-warming gap
    std::uint64_t warmup = 300;       //!< W: detailed, discarded
    std::uint64_t measure = 300;      //!< M: detailed, measured

    /**
     * Target relative CPI error (ci95 / mean), e.g. 0.02 for 2%. When
     * nonzero and unmet after a pass, the controller runs another
     * phase-offset pass (up to maxPasses) and pools the windows.
     * 0 disables extension (single pass).
     */
    double targetRelErr = 0.0;
    std::uint32_t maxPasses = 8;

    /** @throw SimException(BadConfig) on an unusable schedule. */
    void validate() const;

    /** Render as "U:W:M" (the --sample argument format). */
    std::string spec() const;

    /**
     * Parse "U:W:M" (e.g. "10000:500:500").
     * @throw SimException(BadConfig) on malformed input.
     */
    static SampleParams parse(const std::string &spec);

    /**
     * Named schedule presets (the --sample-preset argument):
     *
     *  - "default": the default 9973:300:300 for every workload.
     *  - "periodic": denser per-workload schedules for the workloads
     *    whose misses concentrate in a narrow periodic phase (eqntott,
     *    xlisp, doduc, ora) and would alias with the default stride;
     *    other workloads get the default. All gaps stay prime.
     *
     * @throw SimException(BadConfig) for an unknown preset name.
     */
    static SampleParams preset(const std::string &name,
                               const std::string &workload);
};

/** The sampled estimate: exact functional totals plus interval
 *  estimates of the timing-only quantities. */
struct SampleEstimate
{
    bool ok = true; //!< false: @ref error describes the failure
    SimError error;

    std::string machine;
    std::string workload;
    std::string spec; //!< the U:W:M schedule that produced this

    // Exact totals: the executor runs every instruction of the program
    // (fast-forwarded or detailed), so these are not estimates.
    std::uint64_t instructions = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t traps = 0;

    // Sampling bookkeeping.
    std::uint32_t passes = 0;
    std::uint64_t windows = 0; //!< full measurement windows pooled
    std::uint64_t detailedInstructions = 0; //!< warmup + measured
    std::uint64_t resumedInstructions = 0;  //!< checkpoint-in position

    // Per-window CPI distribution (cycles per instruction).
    double cpiMean = 0.0;
    double cpiVariance = 0.0;
    double cpiCi95 = 0.0;

    // L1 miss-rate ratio estimate over the measured windows: pooled
    // misses / pooled refs, with the classic linearized ratio-estimator
    // variance. (An equal-weighted mean of per-window ratios would bias
    // low whenever ref-heavy windows also miss more; the ratio
    // estimator weights each window by its refs and does not.)
    double missRateMean = 0.0;
    double missRateVariance = 0.0;
    double missRateCi95 = 0.0;

    double ipcMean() const { return cpiMean > 0.0 ? 1.0 / cpiMean : 0.0; }

    /** Estimated total cycles: mean window CPI x exact instructions. */
    double estCycles() const { return cpiMean * instructions; }

    /** The exact (functionally counted) L1 miss rate. */
    double
    exactMissRate() const
    {
        return dataRefs
            ? static_cast<double>(l1Misses) / dataRefs : 0.0;
    }

    /** Relative CPI error: ci95 / mean (0 when undefined). */
    double
    cpiRelErr() const
    {
        return cpiMean > 0.0 ? cpiCi95 / cpiMean : 0.0;
    }

    bool
    cpiCiContains(double cpi) const
    {
        return cpi >= cpiMean - cpiCi95 && cpi <= cpiMean + cpiCi95;
    }

    bool
    missRateCiContains(double rate) const
    {
        return rate >= missRateMean - missRateCi95 &&
               rate <= missRateMean + missRateCi95;
    }
};

/**
 * Why @p library cannot serve a sampled run of @p program on @p config
 * under @p params: the machine kind, the instrumented program's
 * fingerprint, the captureDigest() of the cache/predictor geometry and
 * the U:W:M schedule must all agree. Returns the first mismatch's
 * reason, or an empty string when the library matches. The one
 * library-match policy: Sampler throws the reason before a replay.
 */
std::string libraryMismatch(const LivePointLibrary &library,
                            const isa::Program &program,
                            const pipeline::MachineConfig &config,
                            const SampleParams &params);

/**
 * The sampling controller. Owns the per-window distributions so they
 * can be exposed to a stats report tree via registerStats().
 *
 * run() honors SimulateOptions.checkpointIn / resumeImage (every pass
 * resumes from the image — the shared pipeline/image.hh format, so a
 * checkpoint from a full detailed run seeds a sampled run and vice
 * versa) and SimulateOptions.checkpointOut (final machine state of the
 * first pass). Periodic checkpoints (checkpointEvery/onCheckpoint) are
 * a detailed-run feature and are ignored here.
 *
 * Like pipeline::simulate(), run() never throws for input- or
 * run-level failures: they come back in SampleEstimate::error.
 */
class Sampler
{
  public:
    /** Copies @p program and @p config; self-contained thereafter. */
    Sampler(isa::Program program, const pipeline::MachineConfig &config,
            const SampleParams &params);

    /** Capture mode: the functional pass snapshots a live point at
     *  every window boundary, then the windows run from those points,
     *  and the pass-0 library stays in memory (capturedLibrary()). */
    void setRetainCapture(bool retain) { _retainCapture = retain; }

    /**
     * Sample from @p library instead of running the functional pass:
     * the windows replay from the stored live points and the exact
     * totals come from the library header. run() then rejects
     * checkpoint options and error-targeted extension (both need the
     * functional pass), and fails with BadConfig unless the library
     * matches this sampler's machine kind, program, capture digest,
     * and U:W:M schedule.
     */
    void
    setLibrary(std::shared_ptr<const LivePointLibrary> library)
    {
        _library = std::move(library);
    }

    /** The pass-0 library captured by the last run() in capture mode
     *  (null otherwise). Shared so sweep drivers can reuse it across
     *  every configuration with the same capture digest. */
    const std::shared_ptr<const LivePointLibrary> &
    capturedLibrary() const
    {
        return _captured;
    }

    /** Execute the sampling schedule. @return the pooled estimate. */
    SampleEstimate run(const pipeline::SimulateOptions &options = {});

    /**
     * Fold the window samples a shared multi-configuration reference
     * pass produced for this configuration, exactly as run() would
     * have folded locally executed windows: same fold order, same
     * halt-truncation handling, totals applied after the fold, one
     * pass. The estimate is byte-identical to a dedicated run()
     * because the shared pass replays each window on a fresh machine
     * of this exact configuration, seeded with the same warm state the
     * dedicated pass would have seeded it with.
     */
    SampleEstimate
    runFromSharedPass(const ExactTotals &totals,
                      const std::vector<WindowSample> &samples);

    /** Estimate from the most recent run() (empty before). */
    const SampleEstimate &estimate() const { return _est; }

    /** Expose the window distributions and schedule counters as a
     *  "sample" group under @p parent. Valid for this object's life. */
    void registerStats(stats::StatGroup &parent);

  private:
    template <typename Cpu>
    void runPasses(const pipeline::SimulateOptions &options);

    template <typename Cpu>
    void runPass(std::uint32_t pass,
                 const pipeline::SimulateOptions &options);

    template <typename Cpu>
    void runPassFromLibrary(const pipeline::SimulateOptions &options);

    /** Run the windows of @p points in order and fold them. */
    template <typename Cpu>
    void runWindows(const std::vector<LivePoint> &points,
                    const pipeline::SimulateOptions &options);

    /** Reset the accumulators, validate schedule, config and
     *  program, then run @p body; any failure becomes the estimate's
     *  structured error. @return the estimate. */
    template <typename Body>
    SampleEstimate guarded(Body &&body);

    /** @throw SimException(Interrupted) once @p options' stop flag
     *  is set; called between windows. */
    void checkStop(const pipeline::SimulateOptions &options) const;

    /** Fold one window. @return false when the pass must stop (the
     *  program halted inside the window). */
    bool foldWindow(const WindowSample &ws);

    /** @throw SimException(BadConfig) with the libraryMismatch()
     *  reason unless _library serves this sampler. */
    void validateLibrary() const;

    void resetAccumulators();
    void finishEstimate();

    void finishMissRateEstimate();
    void xcheckAgainstFull();

    isa::Program _program;
    pipeline::MachineConfig _config;
    SampleParams _params;

    bool _retainCapture = false;
    std::shared_ptr<const LivePointLibrary> _library;
    std::shared_ptr<const LivePointLibrary> _captured;

    // Per-measured-window (misses, refs) pairs across all passes, the
    // raw material of the miss-rate ratio estimator.
    std::vector<double> _winMisses;
    std::vector<double> _winRefs;

    stats::Distribution _cpi{"cpi",
        "per-measurement-window cycles per instruction"};
    stats::Distribution _missRate{"l1_miss_rate",
        "per-measurement-window L1 miss rate"};

    SampleEstimate _est;
};

} // namespace imo::sample

#endif // IMO_SAMPLE_SAMPLE_HH
