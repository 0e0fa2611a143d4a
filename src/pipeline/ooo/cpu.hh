/**
 * @file
 * OooCpu: detailed timing model of a 4-issue out-of-order superscalar
 * in the style of the MIPS R10000 (paper section 3.2).
 *
 * Key modeled behaviors:
 *  - register renaming (dataflow issue: only true dependences stall);
 *  - a 32-entry reorder buffer with in-order graduation, 4 per cycle;
 *  - shadow-state branch checkpoints: at most maxUnresolvedBranches
 *    predicted branches in flight; further branches stall dispatch;
 *  - 2-bit branch prediction with resolve-time redirects;
 *  - informing miss traps dispatched either branch-style (redirect at
 *    miss detection) or exception-style (postponed until the informing
 *    operation reaches the head of the reorder buffer and the machine
 *    is flushed) -- the two alternatives the paper compares;
 *  - the lockup-free memory system, optionally with the section-3.3
 *    extended MSHR lifetime and wrong-path probe injection so that
 *    squashed speculative fills are invalidated.
 *
 * Like InOrderCpu, the model is trace-driven with all in-flight effects
 * held as future-cycle bookkeeping, so between step() calls the machine
 * is quiesced and checkpointable (save()/restore()).
 */

#ifndef IMO_PIPELINE_OOO_CPU_HH
#define IMO_PIPELINE_OOO_CPU_HH

#include <cstdint>
#include <memory>

#include "common/stats.hh"
#include "func/trace.hh"
#include "pipeline/config.hh"
#include "pipeline/result.hh"

namespace imo
{
class Serializer;
class Deserializer;
} // namespace imo

namespace imo::pipeline
{

/** The out-of-order timing model. */
class OooCpu
{
  public:
    explicit OooCpu(const MachineConfig &config);
    ~OooCpu();

    /**
     * Enable wrong-path probe injection: on every branch misprediction,
     * @p probes speculative line fetches are issued past the branch and
     * squashed at resolve. Requires cfg.mem.extendedMshrLifetime to
     * demonstrate the section-3.3 invalidation guarantee.
     */
    void setWrongPathProbes(std::uint32_t probes) { _wrongPathProbes = probes; }

    /** Discard all timing state and start a fresh run. */
    void reset();

    /**
     * Consume one record from @p src and advance the timing model.
     * Requires reset() (or restore()) first.
     * @return false once @p src is exhausted.
     */
    bool step(func::TraceSource &src);

    /** Records consumed since reset()/restore(). */
    std::uint64_t retired() const;

    /**
     * Functional warming: train the active branch predictor with a
     * resolved direction without advancing the pipeline or touching
     * lookup/mispredict statistics. Used by the sampling controller
     * while the executor fast-forwards between detailed windows, so
     * predictor state on re-entry matches a continuously stepped run.
     * Requires reset() (or restore()) first.
     */
    void warmCondBranch(InstAddr pc, bool taken);

    /**
     * Snapshot the result so far. Callable at any step boundary and
     * after a step() threw (partial statistics for failure reports).
     */
    RunResult result() const;

    /** Replay @p src to exhaustion and return the timing result. */
    RunResult run(func::TraceSource &src);

    /**
     * Expose the model's full stats tree (pipeline counters, trap
     * service histogram, predictors, memory system, MSHRs) as a "cpu"
     * group under @p parent. Requires reset() first; valid until the
     * next reset().
     */
    void registerStats(stats::StatGroup &parent);

    /**
     * Checkpoint hooks. Only meaningful between step() calls (the
     * quiesced boundary). restore() implies reset() and requires a
     * configuration matching the one that produced the image (the
     * wrong-path probe count is part of the image).
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

    /**
     * Live-point warm-state hooks: the subset of timing state that
     * functional warming trains across a fast-forward gap — the branch
     * predictor tables (and gshare history). A sampled measure window
     * starts from a freshly reset machine plus this warm state;
     * short-lived state (pipeline occupancy, MSHRs, BTB) is
     * re-established by the window's warmup span. Both require
     * reset() (or restore()) first.
     */
    void saveWarmState(Serializer &s) const;
    void restoreWarmState(Deserializer &d);

    /**
     * Seed this machine with @p from's warm state directly: the same
     * state a saveWarmState()/restoreWarmState() round trip carries,
     * without encoding it. For in-process windows that never need an
     * image. Both machines must be reset and share a predictor size.
     */
    void copyWarmState(const OooCpu &from);

  private:
    struct Timing;

    MachineConfig _config;
    std::uint32_t _wrongPathProbes = 0;
    std::unique_ptr<Timing> _t;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_OOO_CPU_HH
