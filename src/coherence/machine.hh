/**
 * @file
 * CoherentMachine: an event-driven 16-processor shared-memory machine
 * (TangoLite-style direct execution) used for the fine-grained
 * access-control case study of section 4.3.
 *
 * Each processor replays a reference stream (with embedded compute
 * delays and barriers) against its private two-level cache and the
 * global protection directory. The scheduler always steps the runnable
 * processor with the smallest local clock, lowest index on ties; when
 * every unfinished processor waits at a barrier, the barrier releases
 * them all at the latest arrival's clock. The configured AccessMethod
 * determines where detection/lookup overhead is paid:
 *
 *  - ReferenceCheck: a protection-table lookup on every shared
 *    reference;
 *  - EccFault: a fault on reads of INVALID blocks and on writes to
 *    pages containing READONLY data;
 *  - Informing: a miss-handler lookup on shared references that miss
 *    the primary cache (invalid blocks are evicted, so accesses
 *    requiring protocol work always miss).
 *
 * Robustness features:
 *  - a forward-progress watchdog (CoherenceParams::watchdogEvents)
 *    converts scheduler livelock into a structured Deadlock error
 *    carrying the last protocol events;
 *  - an optional FaultInjector exercises lost invalidation messages
 *    (bounded retransmission, then a structured error — never a
 *    corrupt directory) and delayed protocol acknowledgements;
 *  - full checkpoint/restore at the event boundary (save()/restore(),
 *    or run() with RunHooks for periodic images and resume).
 */

#ifndef IMO_COHERENCE_MACHINE_HH
#define IMO_COHERENCE_MACHINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/params.hh"
#include "common/diagring.hh"
#include "common/stats.hh"
#include "memory/cache.hh"
#include "obs/observer.hh"

namespace imo
{
class FaultInjector;
class Serializer;
class Deserializer;
} // namespace imo

namespace imo::coherence
{

/** One element of a processor's reference stream. */
struct TraceItem
{
    enum class Kind : std::uint8_t { Ref, Barrier };

    Kind kind = Kind::Ref;
    Addr addr = 0;
    bool write = false;
    bool shared = false;     //!< accesses potentially-shared data
    std::uint16_t computeBefore = 0; //!< local compute preceding it
};

/** A complete parallel workload: one stream per processor. */
struct ParallelWorkload
{
    std::string name;
    std::vector<std::vector<TraceItem>> streams;
};

/** Outcome of one machine run. */
struct CoherenceResult
{
    std::string workload;
    AccessMethod method = AccessMethod::Informing;

    Cycle execTime = 0;          //!< max processor completion time
    std::uint64_t refs = 0;
    std::uint64_t sharedRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t lookups = 0;       //!< ref-check or informing lookups
    std::uint64_t faults = 0;        //!< ECC faults taken
    std::uint64_t protocolEvents = 0; //!< directory state changes
    std::uint64_t networkRounds = 0;
    std::uint64_t invalidations = 0; //!< remote copies invalidated
    std::uint64_t droppedInvalidations = 0; //!< injected message losses
    std::uint64_t delayedAcks = 0;          //!< injected ack delays

    Cycle computeCycles = 0;
    Cycle memoryCycles = 0;
    Cycle accessControlCycles = 0;  //!< lookup + fault + state change
    Cycle networkCycles = 0;
    Cycle barrierWaitCycles = 0;
};

/** The event-driven multiprocessor simulator. */
class CoherentMachine
{
  public:
    /** Checkpoint behavior of one run() call. */
    struct RunHooks
    {
        /** Image to resume from (nullptr: cold start). */
        const std::vector<std::uint8_t> *resumeImage = nullptr;

        /** Take an image every N processed references (0: none). */
        std::uint64_t checkpointEveryRefs = 0;

        /** Receives each periodic image and the reference count. */
        std::function<void(const std::vector<std::uint8_t> &,
                           std::uint64_t)> onCheckpoint;
    };

    CoherentMachine(const CoherenceParams &params, AccessMethod method);

    /**
     * Attach a fault injector (not owned; may be nullptr). The
     * DroppedInvalidation and DelayedAck points are then consulted on
     * protocol actions.
     */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /**
     * Attach observability sinks (not owned; may be nullptr). Protocol
     * events (directory reads/writes, invalidations, barriers, injected
     * faults) are then emitted as Cat::Coh trace events.
     */
    void
    setObserver(obs::Observer *o)
    {
        _obs = o;
        _trace = o ? o->traceSink() : nullptr;
    }

    /**
     * Expose the machine's counters as a "coherence" group under
     * @p parent. Valid for the machine's lifetime; values track the
     * current/most recent run.
     */
    void registerStats(stats::StatGroup &parent);

    /** Run @p workload to completion. */
    CoherenceResult run(const ParallelWorkload &workload);

    /** Run with checkpoint hooks (resume and/or periodic images). The
     *  workload is fingerprinted only when a hook needs an image. */
    CoherenceResult run(const ParallelWorkload &workload,
                        const RunHooks &hooks);

    /** @return the directory (for invariant checks in tests). */
    const Directory &directory() const { return _directory; }

    /**
     * Order-sensitive digest of @p workload (name, streams, items).
     * Embedded in checkpoints so an image cannot be resumed against a
     * different workload.
     */
    static std::uint64_t fingerprintWorkload(
        const ParallelWorkload &workload);

    /**
     * Checkpoint hooks: per-processor clocks, stream positions,
     * caches, the directory, page-protection bookkeeping, the
     * diagnostic ring, and the partial result all round-trip. Only
     * meaningful at the event boundary (between trace items). The
     * fault injector is checkpointed by the caller (see run()).
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    struct Proc
    {
        Cycle clock = 0;
        std::size_t pos = 0;
        bool atBarrier = false;
        memory::SetAssocCache l1;
        memory::SetAssocCache l2;
    };

    /** Scheduling key of a processor that cannot be picked. */
    static constexpr std::uint64_t idleKey = ~std::uint64_t{0};

    /** Key bits below the clock; holds any index under the 32-processor
     *  cap CoherenceParams::validate() enforces. */
    static constexpr unsigned keyProcBits = 5;

    /** Recompute @p p's scheduling key: clock << keyProcBits | p while
     *  it is runnable, idleKey when finished or waiting at a barrier. */
    void refreshKey(std::uint32_t p, const ParallelWorkload &workload);

    /** Process one trace item on processor @p p; updates its clock. */
    void step(std::uint32_t p, const TraceItem &item);

    /** Charge the plain memory-hierarchy cost of a reference,
     *  optionally forcing a primary miss. @return true on L1 miss. */
    bool chargeCacheAccess(Proc &proc, Addr addr, bool write,
                           bool force_miss);

    /**
     * Invalidate remote cached copies named by @p mask on behalf of
     * requester @p p. Under injected DroppedInvalidation faults each
     * message is retransmitted a bounded number of times (charging the
     * requester); persistent loss raises a structured FaultInjected
     * error with the directory left consistent.
     */
    void invalidateRemote(std::uint32_t p, std::uint32_t mask, Addr addr);

    /** Track ECC page protection: blocks in READONLY per page. */
    void noteReadonly(std::uint32_t p, Addr addr, bool entering);
    bool pageHasReadonly(std::uint32_t p, Addr addr) const;

    /** Assemble a resumable image of the whole machine. */
    std::vector<std::uint8_t> makeImage(std::uint64_t workload_fp) const;

    CoherenceParams _params;
    AccessMethod _method;
    Directory _directory;
    std::vector<Proc> _procs;

    /**
     * One scheduling key per processor (see refreshKey()); the next
     * processor to step is the minimum, i.e. the smallest clock, lowest
     * index on ties. Derived from _procs: rebuilt at the start of every
     * run() and never serialized.
     */
    std::vector<std::uint64_t> _keys;

    FaultInjector *_faults = nullptr;
    obs::Observer *_obs = nullptr;
    obs::TraceSink *_trace = nullptr;
    DiagRing _ring;
    CoherenceResult _res;

    /** (proc, page) -> count of READONLY blocks on that page. */
    std::unordered_map<std::uint64_t, std::uint32_t> _roBlocksPerPage;
};

} // namespace imo::coherence

#endif // IMO_COHERENCE_MACHINE_HH
