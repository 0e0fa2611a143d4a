/**
 * @file
 * Versioned run manifests.
 *
 * A manifest is the durable record of one CLI invocation (imo-run,
 * imo-sweep, imo-farm): what was asked for, what happened to every
 * point, and how the run ended — so any fragment in the memoized
 * result store can be traced back to the run that produced it, and a
 * failed overnight sweep can be post-mortemed without re-running it
 * (tools/imo-report joins a manifest with the store and a trace).
 *
 * Manifests are deliberately separate from reports: reports stay
 * byte-deterministic (timestamp-free, identical across sweep/farm/
 * worker-count/fault-schedule), while manifests carry exactly the
 * nondeterministic operational truth (wall times, attempt counts,
 * run ids) that reports must exclude.
 */

#ifndef IMO_COMMON_MANIFEST_HH
#define IMO_COMMON_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace imo::manifest
{

/** Bump on any incompatible change to the manifest JSON layout.
 *  v2: live-point library provenance (mode/path/hash/window count)
 *  joins the top level.
 *  v3: multi-cache shared-pass provenance — a top-level group table
 *  (configs served, stream length, windows) plus a per-point group
 *  index.
 *  v4: the v2 live-point library provenance leaves the top level (no
 *  tool reads or writes a library file any more). */
constexpr std::uint32_t manifestSchemaVersion = 4;

/** Per-point outcome and timings. Fields a tool cannot know stay 0 /
 *  empty and are still emitted (fixed schema beats optional keys). */
struct PointEntry
{
    std::string key;  //!< store key (hex), empty when no store is used
    std::string desc; //!< human-readable point description
    std::string status = "ok"; //!< "ok" | "failed"
    bool storeHit = false;     //!< served from the memoized store
    std::uint32_t attempts = 0; //!< farm lease attempts (0 = no farm)
    std::uint64_t queueWaitMs = 0; //!< enqueue -> first lease grant
    std::uint64_t simulateMs = 0;  //!< worker simulate wall time
    std::uint64_t serializeMs = 0; //!< worker fragment serialize time
    std::uint64_t storePutMs = 0;  //!< coordinator store-put time
    std::uint64_t startMs = 0;     //!< start, ms since run start
    std::uint64_t endMs = 0;       //!< end, ms since run start
    std::string error;             //!< "[Code] message" when failed
    /** Index into Manifest::multiCacheGroups of the shared pass that
     *  served this point; -1 = ran on its own. */
    std::int32_t multiCacheGroup = -1;
};

/** Provenance of one multi-cache shared pass (see
 *  sweep::MultiCacheGroup): which reference stream served how many
 *  configs, so any grouped point's result can be traced back to the
 *  single pass that produced it. */
struct MultiCacheGroupEntry
{
    std::uint64_t members = 0;      //!< points served by the group
    std::uint64_t configs = 0;      //!< distinct (L1, L2) classes
    std::uint64_t streamLength = 0; //!< demand references classified
    std::uint64_t prefetches = 0;   //!< prefetches observed
    std::uint64_t windows = 0;      //!< SMARTS windows served
    bool shared = false; //!< false = fell back to dedicated points
};

struct Manifest
{
    std::string tool;  //!< "imo-run" | "imo-sweep" | "imo-farm"
    std::string runId;
    std::vector<std::string> args; //!< argv[1..] verbatim
    std::uint32_t reportSchemaVersion = 0;
    std::uint32_t protocolVersion = 0; //!< farm wire version; 0 = n/a
    std::string faultSpec;             //!< CLI fault spec(s), "" = none
    std::uint64_t faultSeed = 0;
    std::string status = "ok"; //!< "ok" | "failed" | "interrupted"
    std::string errorCode;     //!< errCodeName() when failed
    std::string errorMessage;
    std::uint64_t elapsedMs = 0;
    std::uint64_t pointsTotal = 0;
    std::uint64_t pointsDone = 0;

    /** Multi-cache shared-pass provenance; empty when --multi-cache was
     *  off or nothing grouped. PointEntry::multiCacheGroup indexes it. */
    std::vector<MultiCacheGroupEntry> multiCacheGroups;

    std::vector<PointEntry> points;
    std::string statsJson; //!< embedded stats dump (raw JSON), "" = none
};

/** Fresh process-unique run id: `<tool>-<epoch_ms>-<pid>`. */
std::string makeRunId(const std::string &tool);

/** Emit the manifest as pretty-stable JSON (one point per line). */
void writeManifestJson(std::ostream &os, const Manifest &m);

/** writeManifestJson() to @p path (atomic tmp+rename). @return false
 *  and set @p err on I/O failure. */
bool writeManifestFile(const std::string &path, const Manifest &m,
                       std::string &err);

} // namespace imo::manifest

#endif // IMO_COMMON_MANIFEST_HH
