/**
 * @file
 * Config-grid sweeps over the timing models.
 *
 * A SweepGrid names axis values (machines, workloads, informing modes,
 * handler lengths, cache and latency overrides); expandGrid() produces
 * the cartesian product as concrete SweepPoints in a deterministic
 * order, and runSweep() executes them on the ordered parallel engine —
 * one fully isolated machine instance per point, results aggregated in
 * grid order so the merged report is byte-identical for any --jobs
 * value.
 */

#ifndef IMO_SWEEP_SWEEP_HH
#define IMO_SWEEP_SWEEP_HH

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/informing.hh"
#include "isa/program.hh"
#include "pipeline/config.hh"
#include "pipeline/result.hh"
#include "sample/sample.hh"

namespace imo::sweep
{

/**
 * Version of the per-point report JSON produced by writePointJson().
 * Bumped whenever the field set or formatting changes; the farm's
 * content-addressed result store keys records on it so a report-format
 * change can never serve stale bytes.
 */
constexpr std::uint32_t reportSchemaVersion = 1;

/** One concrete cell of the grid: everything needed to run it. */
struct SweepPoint
{
    std::string machine = "ooo";        //!< "ooo" or "inorder"
    std::string workload = "espresso";
    core::InformingMode mode = core::InformingMode::None;
    std::uint32_t handlerLen = 10;
    double scale = 1.0;
    std::uint64_t seed = 0x5eed;

    // Overrides of the machine's Table-1 defaults; 0 keeps the default.
    std::uint64_t l1SizeBytes = 0;
    std::uint32_t l1Assoc = 0;
    std::uint64_t l2SizeBytes = 0;
    std::uint32_t l2Assoc = 0;
    std::uint64_t l2Latency = 0;
    std::uint64_t memLatency = 0;
    std::uint32_t mshrs = 0;

    /** Sampling schedule as "U:W:M"; empty = full detailed run. */
    std::string sample;

    /** The point's machine config with overrides applied. */
    pipeline::MachineConfig resolveConfig() const;

    /** The point's program: its workload built at the point's scale
     *  and seed, instrumented for its informing mode and handler
     *  length. Deterministic, so its fingerprint content-addresses the
     *  program. */
    isa::Program buildProgram() const;

    bool operator==(const SweepPoint &o) const = default;
};

/** Axis values of a sweep; empty axes fall back to one default cell. */
struct SweepGrid
{
    std::vector<std::string> machines = {"ooo"};
    std::vector<std::string> workloads = {"espresso"};
    std::vector<core::InformingMode> modes = {core::InformingMode::None};
    std::vector<std::uint32_t> handlerLens = {10};
    double scale = 1.0;
    std::uint64_t seed = 0x5eed;

    std::vector<std::uint64_t> l1SizesBytes = {0};
    std::vector<std::uint32_t> l1Assocs = {0};
    std::vector<std::uint64_t> l2Latencies = {0};
    std::vector<std::uint64_t> memLatencies = {0};
    std::vector<std::uint32_t> mshrCounts = {0};

    /** Sampling axis: "" = full detailed, "U:W:M" = sampled. */
    std::vector<std::string> samples = {""};
};

/**
 * Cartesian product of the grid's axes, ordered with the machine axis
 * outermost and the mshr axis innermost (the iteration order of the
 * nested loops in the declaration order of SweepGrid's members).
 */
std::vector<SweepPoint> expandGrid(const SweepGrid &grid);

/** Outcome of one point: its inputs plus the run's statistics. For a
 *  sampled point (point.sample nonempty) @ref estimate holds the
 *  result and @ref result is unused; full points fill @ref result. */
struct SweepOutcome
{
    SweepPoint point;
    pipeline::RunResult result;
    sample::SampleEstimate estimate;
};

/**
 * Run one point to completion: build its program, instrument it, and
 * simulate (full or sampled). Pure function of @p point — this is the
 * unit of work a farm worker executes.
 *
 * The three-argument overload threads live-point libraries through a
 * sampled point: @p replay (when non-null) skips the functional pass
 * and replays the library's windows, and @p capture (when non-null)
 * retains the library captured by the point's own functional pass.
 * Replaying produces byte-identical output to a from-scratch run, so
 * drivers may attach a library to any matching point freely.
 */
SweepOutcome runPoint(const SweepPoint &point);
SweepOutcome
runPoint(const SweepPoint &point,
         const std::shared_ptr<const sample::LivePointLibrary> &replay,
         std::shared_ptr<const sample::LivePointLibrary> *capture);

/**
 * Live-point library sharing across a sweep (in/out parameter of
 * runSweep). Sampled points whose capture-relevant inputs match —
 * same machine kind, workload, program, sampling schedule, and
 * sample::captureDigest() (cache geometry, predictor, instruction
 * budget; timing knobs like latencies and MSHR counts deliberately
 * excluded) — share one functional-warming pass: the group's first
 * point captures a library in memory and the rest replay it. Reports
 * are unaffected: replayed points emit byte-identical JSON.
 */
struct LibrarySharing
{
    // Filled by runSweep():
    std::uint64_t captured = 0; //!< libraries captured by group leaders
    std::uint64_t reused = 0;   //!< points replayed from a shared library
};

/** Provenance of one multi-cache shared pass: which points one
 *  reference stream served, and how much work it did. Recorded in run
 *  manifests; never part of the report. */
struct MultiCacheGroup
{
    std::vector<std::size_t> members; //!< point indices, grid order
    std::uint64_t configs = 0;      //!< distinct (L1, L2) classes
    std::uint64_t streamLength = 0; //!< demand references classified
    std::uint64_t prefetches = 0;   //!< prefetches observed
    std::uint64_t windows = 0;      //!< SMARTS windows served
    bool shared = false; //!< ran as one pass (false = dedicated fallback)
};

/**
 * Single-pass multi-configuration cache simulation across a sweep
 * (in/out parameter of runSweep). Sampled points that differ only in
 * cache geometry and timing knobs — same machine kind, workload,
 * informing mode, handler length, scale, seed, and sampling schedule —
 * form a group; when the instrumented program's reference stream is
 * geometry-invariant (sample::sharedPassEligible), the whole group is
 * served by ONE functional pass whose memory::MultiCacheSim classifies
 * every access for every member geometry simultaneously. Reports are
 * unaffected: grouped points emit byte-identical JSON to the dedicated
 * per-point path for any --jobs value.
 */
struct MultiCache
{
    // Filled by runSweep():
    std::vector<MultiCacheGroup> groups; //!< plan + per-group provenance
    std::uint64_t pointsShared = 0; //!< points served by shared passes
};

/**
 * Partition @p points into multi-cache groups: indices of sampled
 * points sharing every non-geometry input, in first-occurrence order,
 * keeping only groups of two or more members whose configs validate
 * and whose instrumented program is sample::sharedPassEligible().
 * A pure function of the point list, so every driver (and every
 * --jobs value) derives the identical plan.
 */
std::vector<std::vector<std::size_t>>
planMultiCacheGroups(const std::vector<SweepPoint> &points);

/**
 * Partition @p points into tasks, the units of work of runSweep() and
 * farm::runFarm(): each task lists point indices in ascending order,
 * every point sits in exactly one task, and tasks are ordered by their
 * first member. With @p multiCache the multi-point tasks are exactly
 * planMultiCacheGroups(points); every other point is a task of one.
 */
std::vector<std::vector<std::size_t>>
planTasks(const std::vector<SweepPoint> &points, bool multiCache);

/**
 * Run a list of points as one unit of work: build the shared program
 * once, classify the reference stream for every member geometry in a
 * single pass, and fold each member's windows into its estimate. A
 * one-member list is just runPoint(). @p members must agree on every
 * non-geometry input (the planner's grouping key) — throws
 * SimException(BadConfig) otherwise. When the shared pass itself
 * fails (an ineligible program, a runaway past the instruction
 * budget, ...) every member runs on its dedicated runPoint() path and
 * @p prov records shared = false; only ErrCode::Internal propagates.
 * Outcomes are byte-identical to runPoint() per member. This is the
 * unit of work a farm worker executes for a Points task.
 */
std::vector<SweepOutcome>
runPointGroup(const std::vector<SweepPoint> &members,
              MultiCacheGroup *prov = nullptr);

/** Wall-clock execution record of one sweep point — observability
 *  only (lease timelines, manifests); never part of the report.
 *  Points served by one multi-cache group share that group's span. */
struct PointTiming
{
    std::uint64_t startMs = 0;  //!< steady-clock ms, process-relative
    std::uint64_t endMs = 0;
    std::uint64_t threadId = 0; //!< opaque; equal values = same thread
    bool ran = false;           //!< false when cancelled before start
};

/**
 * Run every point with @p jobs worker threads, one planTasks() task
 * per unit of work. Each task builds its own program and machine from
 * scratch (no shared mutable state), so outcomes[i] depends only on
 * points[i] and the output is identical for any job count.
 *
 * @p cancel / @p completed (both optional) add cooperative
 * cancellation: see runOrdered().
 *
 * @p timings (optional) is resized to points.size() and timings[i] is
 * written by the task that runs point i (a multi-point task gives all
 * its members its span); it must outlive the call.
 *
 * @p sharing (optional) enables live-point library reuse among the
 * one-point sampled tasks: group leaders run first (capturing in
 * memory), then the followers replay in parallel. Output bytes are
 * identical with sharing on or off; only the redundant functional
 * warming disappears.
 *
 * @p multiCache (optional) turns on the multi-point tasks of the plan:
 * each runs as ONE task via runPointGroup() (so groups parallelize
 * across the pool like points do) and records its provenance in
 * multiCache->groups; every other point proceeds exactly as before,
 * including library sharing among themselves. Output bytes are
 * identical with multi-cache on or off.
 */
std::vector<SweepOutcome> runSweep(
    const std::vector<SweepPoint> &points, unsigned jobs,
    const volatile std::sig_atomic_t *cancel = nullptr,
    std::vector<std::uint8_t> *completed = nullptr,
    std::vector<PointTiming> *timings = nullptr,
    LibrarySharing *sharing = nullptr,
    MultiCache *multiCache = nullptr);

/**
 * Write one point's report object (the bytes between the braces of one
 * "points" array element, braces included). writeReportJson() is
 * defined as these fragments joined with commas inside a fixed frame,
 * so any executor that stores or ships fragments — notably the farm's
 * result store — reproduces the merged report byte-identically.
 */
void writePointJson(std::ostream &os, const SweepOutcome &outcome);

/**
 * Write the merged report as deterministic JSON: points in input
 * order, fixed key order, no timestamps or environment data.
 */
void writeReportJson(std::ostream &os,
                     const std::vector<SweepOutcome> &outcomes);

/** The fixed frame around the joined point fragments. */
extern const char *const reportJsonPrefix;  //!< before the first point
extern const char *const reportJsonSuffix;  //!< after the last point

/** One-line summary of a point (for --list and progress output). */
std::string describePoint(const SweepPoint &point);

} // namespace imo::sweep

#endif // IMO_SWEEP_SWEEP_HH
