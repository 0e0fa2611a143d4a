/**
 * @file
 * InOrderCpu: detailed timing model of a 4-issue in-order superscalar
 * in the style of the Alpha 21164 (paper section 3.1).
 *
 * Key modeled behaviors:
 *  - in-order issue with register presence bits (an instruction issues
 *    only when its sources are ready, and blocks younger instructions);
 *  - the 21164 replay trap: a consumer issued speculatively in a load's
 *    hit shadow is replayed when the load misses, costing a pipeline
 *    flush (replayTrapPenalty);
 *  - informing miss traps implemented with the same replay-trap
 *    machinery: on a miss of an informing reference, fetch redirects to
 *    the handler at miss detection plus the replay penalty;
 *  - 2-bit branch prediction with resolve-time misprediction redirects;
 *  - the lockup-free memory system (banks, MSHRs, bandwidth).
 *
 * The model is trace-driven and holds all in-flight effects as
 * future-cycle bookkeeping, so between step() calls the machine is
 * architecturally quiesced: that boundary is where checkpoints are
 * taken (see save()/restore()).
 */

#ifndef IMO_PIPELINE_INORDER_CPU_HH
#define IMO_PIPELINE_INORDER_CPU_HH

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

/** The in-order timing model. */
class InOrderCpu
{
  public:
    explicit InOrderCpu(const MachineConfig &config);
    ~InOrderCpu();

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
     * configuration matching the one that produced the image.
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
    void copyWarmState(const InOrderCpu &from);

  private:
    struct Timing;

    MachineConfig _config;
    std::unique_ptr<Timing> _t;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_INORDER_CPU_HH
