/**
 * @file
 * CpuCore: the public methods both timing models share. OooCpu and
 * InOrderCpu derive from CpuCore<Self> and add only their own policy:
 * reset(), step(), retired() and their checkpoint layouts
 * (save()/restore()). The result snapshot, the stats tree, predictor
 * warming and the run-to-completion loop are written once, against
 * the shared per-run state (CoreTiming, pipeline/core_timing.hh).
 */

#ifndef IMO_PIPELINE_CPU_CORE_HH
#define IMO_PIPELINE_CPU_CORE_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
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

struct CoreTiming;

/** Shared base of the timing model @p Cpu (OooCpu or InOrderCpu). */
template <typename Cpu>
class CpuCore
{
  public:
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
    void copyWarmState(const Cpu &from);

  protected:
    explicit CpuCore(const MachineConfig &config) : _config(config) {}
    ~CpuCore();

    MachineConfig _config;
    /** The model's Timing (a CoreTiming); null before reset(). */
    std::unique_ptr<CoreTiming> _t;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_CPU_CORE_HH
