/**
 * @file
 * Machine configurations for the two detailed processor models.
 *
 * The parameters mirror the paper's Table 1: a 4-issue out-of-order
 * machine in the style of the MIPS R10000 and a 4-issue in-order
 * machine in the style of the Alpha 21164, each with the corresponding
 * two-level memory hierarchy.
 */

#ifndef IMO_PIPELINE_CONFIG_HH
#define IMO_PIPELINE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/op.hh"
#include "memory/geometry.hh"
#include "memory/timing.hh"

namespace imo
{
class FaultInjector;
} // namespace imo

namespace imo::obs
{
struct Observer;
} // namespace imo::obs

namespace imo::pipeline
{

/** How an out-of-order machine dispatches an informing miss trap
 *  (paper section 3.2). */
enum class TrapDispatch : std::uint8_t
{
    /** Treated like a mispredicted branch: redirect as soon as the miss
     *  is detected. Costs shadow-state resources. */
    BranchStyle,
    /** Treated like an exception: the trap is postponed until the
     *  informing operation reaches the head of the reorder buffer. */
    ExceptionStyle,
};

/** Execution latencies (paper Table 1, "Pipeline Parameters"). */
struct LatencyTable
{
    Cycle intAlu = 1;
    Cycle intMul = 12;
    Cycle intDiv = 76;
    Cycle fpAlu = 2;
    Cycle fpDiv = 15;
    Cycle fpSqrt = 20;

    /** @return the execution latency for @p cls (memory classes return
     *  1: their real latency comes from the memory system). The
     *  timing models read it per class once per run (CoreTiming). */
    Cycle
    forClass(isa::OpClass cls) const
    {
        switch (cls) {
          case isa::OpClass::IntAlu: return intAlu;
          case isa::OpClass::IntMul: return intMul;
          case isa::OpClass::IntDiv: return intDiv;
          case isa::OpClass::FpAlu: return fpAlu;
          case isa::OpClass::FpDiv: return fpDiv;
          case isa::OpClass::FpSqrt: return fpSqrt;
          default: return 1;
        }
    }

    bool operator==(const LatencyTable &) const = default;
};

/** Functional-unit counts. memUnits == 0 routes memory operations
 *  through the integer units (the in-order machine's model). */
struct FuPool
{
    std::uint8_t intUnits = 2;
    std::uint8_t fpUnits = 2;
    std::uint8_t branchUnits = 1;
    std::uint8_t memUnits = 1;

    bool operator==(const FuPool &) const = default;
};

/** Complete parameterization of one processor model. */
struct MachineConfig
{
    std::string name;
    bool outOfOrder = true;

    std::uint32_t issueWidth = 4;
    /** Fetch-to-issue (in-order) / fetch-to-dispatch (OOO) stages. */
    Cycle frontendDepth = 3;
    /** Fetch bubble after a correctly handled taken control transfer. */
    Cycle takenBranchBubble = 1;
    /** Cycles between resolving a misprediction and refetching. */
    Cycle redirectPenalty = 1;

    // Out-of-order resources.
    std::uint32_t robSize = 32;
    /** Shadow-state limit: predicted branches in flight (R10000: ~3-4;
     *  the paper says three). */
    std::uint32_t maxUnresolvedBranches = 3;
    /** Ablation: informing references also consume branch shadow state
     *  (the paper's "3x shadow state" discussion assumes they do not,
     *  because the resource is scaled up). */
    bool informingTakesCheckpoint = false;
    TrapDispatch trapDispatch = TrapDispatch::BranchStyle;
    /** Pipeline-drain cost when a trap is dispatched exception-style. */
    Cycle exceptionFlushPenalty = 4;

    // In-order trap/replay machinery (paper section 3.1).
    Cycle replayTrapPenalty = 5;

    // Branch prediction (Table 1: 2-bit counters).
    std::uint32_t predictorEntries = 2048;
    std::uint32_t btbEntries = 512;
    /** Ablation: use a gshare predictor instead of plain 2-bit
     *  counters (not a paper configuration). */
    bool useGshare = false;

    FuPool fus;
    LatencyTable lat;

    /** Timing-side memory parameters (Table 1, "Memory Parameters"). */
    memory::TimingMemoryParams mem;
    /** Content geometry for the functional reference hierarchy. */
    memory::CacheGeometry l1;
    memory::CacheGeometry l2;

    // Robustness knobs (not paper parameters).

    /**
     * Forward-progress watchdog: if an instruction's completion lands
     * more than this many cycles past the last graduation, or a memory
     * reference keeps being rejected (MSHR/bank livelock) for this
     * long, the run is stopped with a structured Deadlock error
     * carrying a recent-event dump. 0 disables the watchdog.
     */
    Cycle watchdogCycles = 2'000'000;

    /** Functional runaway bound forwarded to func::Executor; exceeding
     *  it raises a RunawayExecution error. */
    std::uint64_t maxInstructions = 400'000'000;

    /** Optional fault injector (not owned; nullptr = no faults). */
    FaultInjector *faults = nullptr;

    /** Optional observability sinks — trace events, per-PC miss
     *  profile, captured stats (not owned; nullptr = unobserved). */
    obs::Observer *obs = nullptr;

    /**
     * Collect every problem that makes this configuration
     * unrealizable or internally inconsistent. Empty means valid.
     */
    std::vector<std::string> check() const;

    /** Throw SimException(BadConfig) listing the problems, if any. */
    void validate() const;

    /** Field by field, every field included: the shared pass keys its
     *  window-replay sharing on this, so a new field joins the key. */
    bool operator==(const MachineConfig &) const = default;
};

/** @return the out-of-order (MIPS R10000-like) configuration. */
MachineConfig makeOutOfOrderConfig();

/** @return the in-order (Alpha 21164-like) configuration. */
MachineConfig makeInOrderConfig();

} // namespace imo::pipeline

#endif // IMO_PIPELINE_CONFIG_HH
