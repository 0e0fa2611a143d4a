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
 * is quiesced and checkpointable (save()/restore()). The machinery both
 * models share lives in CpuCore and CoreTiming.
 */

#ifndef IMO_PIPELINE_OOO_CPU_HH
#define IMO_PIPELINE_OOO_CPU_HH

#include <cstdint>

#include "pipeline/cpu_core.hh"

namespace imo::pipeline
{

/** The out-of-order timing model. */
class OooCpu final : public CpuCore<OooCpu>
{
  public:
    /** Machine kind recorded in checkpoint images and libraries. */
    static constexpr const char *kind = "ooo";

    explicit OooCpu(const MachineConfig &config);

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
     * Checkpoint hooks. Only meaningful between step() calls (the
     * quiesced boundary). restore() implies reset() and requires a
     * configuration matching the one that produced the image (the
     * wrong-path probe count is part of the image).
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    struct Timing;

    std::uint32_t _wrongPathProbes = 0;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_OOO_CPU_HH
