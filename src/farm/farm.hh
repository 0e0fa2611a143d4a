/**
 * @file
 * Fault-tolerant coordinator/worker execution tier for sweeps.
 *
 * runFarm() shards a set of SweepPoints across worker peers — local
 * processes fork()ed from the coordinator (pipes as the transport)
 * and, with listen=true, remote imo-worker daemons over TCP; the
 * framed protocol in proto.hh is identical on both — under a leasing
 * discipline:
 *
 *  - Every point is a member of one farm Task (proto.hh): a task of
 *    its own, or its multi-cache group's. Identical tasks collapse
 *    into one *slot*; overlapping grids are simulated once.
 *  - A slot is leased to a worker with a deadline. Heartbeats refresh
 *    the deadline while the worker makes progress; a worker that
 *    crashes (EOF), stalls (deadline passes), or drops its result is
 *    SIGKILLed, replaced, and the slot is retried with exponential
 *    backoff — up to maxAttempts, after which the farm fails with a
 *    structured LeaseExpired error. A lease write that fails because
 *    an idle worker died unseen returns the slot to the queue and
 *    replaces the worker.
 *  - A point the *simulator* rejects fails deterministically; the
 *    worker reports the structured error back and the farm fails fast
 *    with that diagnosis instead of retrying.
 *  - A healthy-but-slow slot past stragglerMs is re-dispatched to an
 *    idle worker; the first result wins and any duplicate result must
 *    be byte-identical (ResultMismatch otherwise — the determinism
 *    contract is enforced, not assumed).
 *  - Finished fragments land in the content-addressed ResultStore (if
 *    configured); before the merged report is emitted, an integrity
 *    pass re-validates every record's key and CRC on disk.
 *
 * The merged report is assembled from per-point JSON fragments in grid
 * order, so it is byte-identical to single-process imo-sweep for any
 * worker count and any failure schedule.
 */

#ifndef IMO_FARM_FARM_HH
#define IMO_FARM_FARM_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/faultinject.hh"
#include "sweep/sweep.hh"

namespace imo::obs
{
class TraceSink;
} // namespace imo::obs

namespace imo::farm
{

/** Knobs of one farm run. */
struct FarmOptions
{
    /** Local worker processes. With listen=true, 0 means "remote
     *  workers only"; otherwise at least 1 is required. */
    unsigned workers = 1;

    /** Accept remote imo-worker daemons over TCP. */
    bool listen = false;

    /** Listen address; port 0 binds an ephemeral port reported via
     *  onListen. */
    std::string listenHost = "127.0.0.1";
    std::uint16_t listenPort = 0;

    /** Called once the listener is bound, with the real port — how
     *  the CLI's --port-file and in-process tests learn an ephemeral
     *  port. */
    std::function<void(std::uint16_t)> onListen;

    /** Shared admission secret; every worker (local or remote) must
     *  prove knowledge of it during the Challenge/Hello handshake. */
    std::string token;

    /** Minimum admitted-and-ready peers: if the farm stays below this
     *  for a full lease period while work is pending, it fails with a
     *  structured error instead of waiting forever. */
    unsigned minWorkers = 1;

    /** Result-store directory; empty disables memoization. */
    std::string storeDir;

    /** Allow reusing a store that already holds records (resume or
     *  memoized re-run). */
    bool resume = false;

    /** Single-pass multi-configuration cache simulation: sampled
     *  points differing only in cache geometry / timing knobs form
     *  one multi-point task — one worker classifies every member
     *  geometry in one pass over the shared reference stream
     *  (sweep::MultiCache). Report bytes are unchanged. */
    bool multiCache = false;

    /** Lease deadline: a worker that neither heartbeats nor delivers
     *  for this long is declared lost. */
    std::uint64_t leaseMs = 10'000;

    /** Worker heartbeat period while simulating. */
    std::uint64_t heartbeatMs = 200;

    /** Lease attempts per slot before the farm fails (>= 1). */
    unsigned maxAttempts = 30;

    /** Exponential backoff: base * 2^(attempt-1), capped. */
    std::uint64_t backoffBaseMs = 20;
    std::uint64_t backoffCapMs = 2'000;

    /** Re-dispatch a still-leased slot to an idle worker after this
     *  long (straggler mitigation; 0 disables). */
    std::uint64_t stragglerMs = 30'000;

    /** Farm-level fault plan (worker-kill / worker-stall /
     *  dropped-result / store-bit-flip / lease-write-fail); other
     *  points are ignored here. Seed-deterministic per spawned
     *  worker. */
    FaultSchedule faults;

    // --- Telemetry (observational only: none of these may change the
    // --- merged report's bytes) -------------------------------------

    /** Lease-timeline trace sink (categories farm/store/net); null
     *  disables orchestration tracing. Not owned. */
    obs::TraceSink *trace = nullptr;

    /** Emit a rate-limited progress line on stderr. */
    bool progress = false;

    /** Minimum interval between progress emissions. */
    std::uint64_t progressIntervalMs = 500;

    /** Heartbeat JSON file rewritten (atomically) at the progress
     *  cadence; empty disables. */
    std::string progressJsonPath;

    /** Run id stamped into manifests, worker logs (via the Challenge
     *  frame), and the progress file. Generated when empty. */
    std::string runId;
};

/** Observability counters of one farm run. */
struct FarmStats
{
    std::uint64_t points = 0;       //!< grid points requested
    std::uint64_t uniqueSlots = 0;  //!< distinct content addresses
    std::uint64_t storeHits = 0;    //!< slots served from the store
    std::uint64_t simulated = 0;    //!< slots simulated by workers
    std::uint64_t retries = 0;      //!< slot re-queues after a failure
    std::uint64_t workersLost = 0;  //!< worker deaths (crash or kill)
    std::uint64_t leasesExpired = 0;
    std::uint64_t redispatches = 0; //!< straggler duplicate leases
    std::uint64_t duplicateResults = 0;
    std::uint64_t storeCorrupt = 0; //!< records failing key/CRC checks
    std::uint64_t authFailures = 0; //!< peers rejected at admission
    std::uint64_t remotesAdmitted = 0; //!< TCP peers through admission
    std::uint64_t multiCacheGroups = 0; //!< multi-point tasks planned
    std::uint64_t pointsGrouped = 0; //!< points in multi-point tasks
};

/** Per-unique-slot operational record of one farm run: attempt counts
 *  and wall-clock timings, in slot (first-appearance) order. Feeds the
 *  run manifest; never feeds the report. */
struct SlotRecord
{
    std::string keyHex; //!< content address, "" without a store
    std::string desc;   //!< describeTask() of the slot's task
    bool storeHit = false;
    bool done = false;
    std::uint32_t attempts = 0;    //!< lease grants (excl. stragglers)
    std::uint64_t queueWaitMs = 0; //!< first enqueue -> first grant
    std::uint64_t simulateMs = 0;  //!< worker-reported simulate wall
    std::uint64_t serializeMs = 0; //!< worker-reported serialize wall
    std::uint64_t storePutMs = 0;  //!< coordinator store-put wall
    std::uint64_t startMs = 0;     //!< first grant, ms since run start
    std::uint64_t endMs = 0;       //!< result accepted (or store hit)
    std::uint64_t fragmentBytes = 0;
    /** Members of a multi-point task (0 = a task of one point or a
     *  window). Drives manifest group provenance. */
    std::uint64_t groupMembers = 0;
    std::uint64_t groupConfigs = 0; //!< distinct (L1, L2) classes
};

/** Outcome of a farm run. */
struct FarmResult
{
    bool ok = true;
    SimError error; //!< set when !ok (LeaseExpired, ResultMismatch, ...)
    FarmStats stats;

    /** Per input point, in grid order: the exact report-JSON fragment
     *  bytes (empty when !ok). */
    std::vector<std::vector<std::uint8_t>> fragments;

    // --- Telemetry (always filled, ok or not) -----------------------
    std::string runId;
    std::uint64_t elapsedMs = 0;
    std::vector<SlotRecord> slotRecords; //!< per unique slot
    std::string statsText; //!< aggregated farm registry, text dump
    std::string statsJson; //!< same registry as {"farm":{...}} JSON
};

/**
 * Run @p points on a local worker farm. Never throws for run-level
 * failures: lease exhaustion, protocol garbage, result mismatches,
 * and interruption all surface in FarmResult::error. @p stop is an
 * optional cooperative stop flag (SIGINT/SIGTERM): when it fires, the
 * farm shuts down cleanly — the store keeps every finished point, so
 * a re-run with resume=true continues where it left off.
 */
FarmResult runFarm(const std::vector<sweep::SweepPoint> &points,
                   const FarmOptions &options,
                   const volatile std::sig_atomic_t *stop = nullptr);

/**
 * Window-sharded sampled run of one point: every measurement window of
 * @p library becomes its own leased unit of work, so a single sampled
 * point spreads across all workers (and machines) of the farm. The
 * lease/retry/straggler/store machinery is exactly runFarm()'s —
 * each window is a Window task memoized under keyForTask(), duplicate
 * shards are byte-compared, and a resumed farm re-runs only missing
 * windows.
 * On success the shards are folded in window order into the point's
 * estimate, and FarmResult::fragments holds the point's single
 * report-JSON fragment — byte-identical to imo-sweep over this point.
 *
 * Throws SimException(BadConfig) when @p point is not sampled or the
 * library does not match it (sweep::libraryMatchesPoint()).
 */
FarmResult
runFarmWindows(const sweep::SweepPoint &point,
               const std::shared_ptr<const sample::LivePointLibrary> &library,
               const FarmOptions &options,
               const volatile std::sig_atomic_t *stop = nullptr);

/**
 * Write the merged sweep report from a successful farm run. The bytes
 * equal sweep::writeReportJson() over the same points by construction.
 */
void writeFarmReportJson(std::ostream &os, const FarmResult &result);

} // namespace imo::farm

#endif // IMO_FARM_FARM_HH
