/**
 * @file
 * Seed-deterministic fault injection.
 *
 * A FaultInjector is threaded (as a non-owning pointer on
 * pipeline::MachineConfig) into the timing memory system and both
 * pipeline models. Each named injection point draws from its own PRNG
 * stream, so a given (seed, schedule, program, config) tuple always
 * fires the same faults at the same dynamic sites — runs are exactly
 * reproducible, which is what makes fuzzing and regression triage
 * possible.
 *
 * Points and their semantics:
 *  - MemLatencySpike: a miss's fill is delayed by spikeCycles
 *    (transient slow DRAM / row conflict).
 *  - MshrExhaustion: one MSHR allocation attempt is refused
 *    (structural-hazard storm); the pipeline retries next cycle.
 *  - MispredictStorm: a correctly predicted conditional branch is
 *    treated as mispredicted.
 *  - StuckFill: a miss's fill is delayed by stuckCycles (effectively
 *    forever); the forward-progress watchdog converts the stall into a
 *    structured Deadlock error.
 *  - HardFault: the injection point throws SimException(FaultInjected)
 *    outright, exercising error propagation from deep inside the
 *    timing model.
 *  - DroppedInvalidation: a coherence invalidation message is lost in
 *    the network; the protocol retransmits (bounded), and persistent
 *    loss surfaces as a structured error, never directory corruption.
 *  - DelayedAck: a coherence acknowledgement is delayed by
 *    ackDelayCycles, stretching the requester's stall.
 *
 * Farm-level points (drawn by the src/farm/ execution tier, never by
 * the timing models):
 *  - WorkerKill: a worker SIGKILLs itself right after accepting a
 *    lease (crash / preemption); the coordinator re-dispatches.
 *  - WorkerStall: a worker stops heartbeating and hangs; the lease
 *    expires and the coordinator kills and replaces it.
 *  - DroppedResult: a worker completes a point but never sends the
 *    result (network loss); surfaces as a lease expiry and retry.
 *  - StoreBitFlip: a result-store record is corrupted after being
 *    written (disk rot); the store's CRC validation catches it and the
 *    point is recovered from memory or re-simulated.
 *  - LeaseWriteFail: an idle worker dies unseen (OOM-kill, external
 *    preemption) just before the coordinator writes it a lease; the
 *    write hits EPIPE, the slot returns to the queue, and the worker
 *    is replaced.
 *
 * Network-transport points (drawn in a worker's socket send path, for
 * multi-machine farms over TCP):
 *  - ConnDrop: the connection dies mid-frame — half the frame is
 *    written, then the socket is shut down. The coordinator sees a
 *    dirty EOF, requeues the slot, and the worker reconnects with
 *    backoff.
 *  - ConnStutter: a frame is delivered one byte per write() with a
 *    forced segment boundary, exercising the coordinator's
 *    incremental partial-read frame parsing.
 *  - HandshakeCorrupt: one byte of the Hello admission frame is
 *    corrupted on the wire; the coordinator's frame CRC rejects it
 *    and drops the connection, and the worker's reconnect retries the
 *    handshake cleanly.
 */

#ifndef IMO_COMMON_FAULTINJECT_HH
#define IMO_COMMON_FAULTINJECT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace imo
{

class Serializer;
class Deserializer;

/** Named fault-injection points. */
enum class FaultPoint : std::uint8_t
{
    MemLatencySpike,
    MshrExhaustion,
    MispredictStorm,
    StuckFill,
    HardFault,
    DroppedInvalidation,
    DelayedAck,
    WorkerKill,
    WorkerStall,
    DroppedResult,
    StoreBitFlip,
    LeaseWriteFail,
    ConnDrop,
    ConnStutter,
    HandshakeCorrupt,
    NumPoints
};

constexpr std::size_t numFaultPoints =
    static_cast<std::size_t>(FaultPoint::NumPoints);

/** @return the stable CLI name, e.g. "mem-latency-spike". */
const char *faultPointName(FaultPoint point);

/** Parse a CLI name. @return false if @p name is unknown. */
bool faultPointFromName(const std::string &name, FaultPoint *out);

/** Per-run fault plan: firing probabilities and magnitudes. */
struct FaultSchedule
{
    std::uint64_t seed = 0;

    /** Firing probability per visit of each injection point. */
    double memLatencySpike = 0.0;
    double mshrExhaustion = 0.0;
    double mispredictStorm = 0.0;
    double stuckFill = 0.0;
    double hardFault = 0.0;
    double droppedInvalidation = 0.0;
    double delayedAck = 0.0;
    double workerKill = 0.0;
    double workerStall = 0.0;
    double droppedResult = 0.0;
    double storeBitFlip = 0.0;
    double leaseWriteFail = 0.0;
    double connDrop = 0.0;
    double connStutter = 0.0;
    double handshakeCorrupt = 0.0;

    /** Extra fill latency added by MemLatencySpike. */
    Cycle spikeCycles = 200;
    /** Extra fill latency added by StuckFill (past any sane watchdog). */
    Cycle stuckCycles = 50'000'000;
    /** Extra latency a DelayedAck adds to a coherence action. */
    Cycle ackDelayCycles = 500;

    double probabilityOf(FaultPoint point) const;
    void setProbability(FaultPoint point, double p);
    bool any() const;
};

/** Parse a CLI "name=prob" spec, prob in [0, 1], into @p schedule.
 *  @return false, leaving @p schedule untouched, if it is malformed. */
bool parseFaultSpec(const std::string &spec, FaultSchedule &schedule);

/** Deterministic per-point fault source. Default-constructed: inert. */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultSchedule &schedule);

    bool enabled() const { return _enabled; }
    const FaultSchedule &schedule() const { return _schedule; }

    /**
     * Draw at @p point. @return true if the fault fires this visit.
     * Each point consumes from its own stream, so adding a draw at one
     * point does not perturb the others.
     */
    bool
    fire(FaultPoint point)
    {
        if (!_enabled)
            return false;
        const auto i = static_cast<std::size_t>(point);
        const double p = _schedule.probabilityOf(point);
        if (p <= 0.0 || !_rng[i].chance(p))
            return false;
        ++_count[i];
        return true;
    }

    /** Number of times @p point has fired so far. */
    std::uint64_t
    fired(FaultPoint point) const
    {
        return _count[static_cast<std::size_t>(point)];
    }

    /** Total faults fired across all points. */
    std::uint64_t totalFired() const;

    /** One-line per-point firing summary for reports. */
    std::string summary() const;

    /**
     * Checkpoint hooks: the schedule, every per-point PRNG stream, and
     * the firing counts round-trip, so a restored run draws exactly
     * the faults an uninterrupted run would have drawn.
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    bool _enabled = false;
    FaultSchedule _schedule;
    std::array<Rng, numFaultPoints> _rng;
    std::array<std::uint64_t, numFaultPoints> _count{};
};

} // namespace imo

#endif // IMO_COMMON_FAULTINJECT_HH
