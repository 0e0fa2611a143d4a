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
 * taken (see save()/restore()). The machinery both models share lives
 * in CpuCore and CoreTiming.
 */

#ifndef IMO_PIPELINE_INORDER_CPU_HH
#define IMO_PIPELINE_INORDER_CPU_HH

#include <cstdint>

#include "pipeline/cpu_core.hh"

namespace imo::pipeline
{

/** The in-order timing model. */
class InOrderCpu final : public CpuCore<InOrderCpu>
{
  public:
    /** Machine kind recorded in checkpoint images and libraries. */
    static constexpr const char *kind = "inorder";

    explicit InOrderCpu(const MachineConfig &config);

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
     * configuration matching the one that produced the image.
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    struct Timing;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_INORDER_CPU_HH
