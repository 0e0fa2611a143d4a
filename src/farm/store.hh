/**
 * @file
 * Content-addressed, memoized result store for sweep points.
 *
 * Sweep reports are byte-identical by construction (the per-point JSON
 * fragment is a pure function of the SweepPoint), so a finished farm
 * task (proto.hh) can be cached and replayed verbatim. A record is
 * keyed by
 *
 *   (config hash, program hash, report-schema version)
 *
 * (keyForTask() says what each component digests per task kind).
 * Repeated or overlapping sweeps — the common case for a shared
 * service — become store hits instead of simulations, and an
 * interrupted farm resumes from the records already on disk.
 *
 * Each record is one file, <dir>/<40-hex-key>.imores, holding a
 * checkpoint container (src/common/checkpoint.*) with a "key" section
 * (the three key components, verified on read) and a "fragment"
 * section (the task's exact result bytes). The container's per-section
 * CRC is the integrity layer: a flipped bit anywhere surfaces as a
 * structured StoreCorrupt condition, the record is quarantined to
 * <name>.bad, and the task is re-simulated — corruption can cost a
 * simulation, never a wrong report.
 */

#ifndef IMO_FARM_STORE_HH
#define IMO_FARM_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "farm/proto.hh"
#include "sweep/sweep.hh"

namespace imo::farm
{

/** The content address of one sweep point's result. */
struct PointKey
{
    std::uint64_t configHash = 0;
    std::uint64_t programHash = 0;
    std::uint32_t schemaVersion = sweep::reportSchemaVersion;

    /** 40-hex-char stable file name stem. */
    std::string hex() const;

    bool operator==(const PointKey &o) const = default;
};

/**
 * Compute the content address of @p task. The config hash digests the
 * task kind and every member point in order (plus the window index of
 * a Window task) under one domain tag. The program hash is:
 *
 *  - Points: the fingerprint of the instrumented program, built once
 *    from the first member — members of a multi-point task share it
 *    by the multi-cache grouping key. A workload-generator change thus
 *    invalidates exactly the affected records.
 *  - Window: the library's content hash, which already pins the
 *    program fingerprint, the capture digest and the U:W:M schedule,
 *    so shards of different captures never share a record. No
 *    program is built.
 *
 * The result depends only on the task (and the binary's workload
 * generators), never on wall clock or host.
 * Throws SimException(BadConfig/BadProgram) for an invalid task.
 */
PointKey keyForTask(const Task &task);

/** keyForTask() of the one-point Points task: the key runFarm()
 *  stores a whole point under. */
PointKey keyForPoint(const sweep::SweepPoint &point);

/** Outcome of a store lookup. */
enum class StoreGet : std::uint8_t
{
    Hit,     //!< record present and valid; fragment returned
    Miss,    //!< no record for this key
    Corrupt, //!< record present but failed validation; quarantined
};

/** Directory-backed store of finished point fragments. */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir. Unless
     * @p allowExisting, a directory that already holds records is
     * rejected with BadConfig — reusing a store (resume / memoized
     * re-run) must be an explicit decision, not an accident.
     */
    ResultStore(std::string dir, bool allowExisting);

    const std::string &dir() const { return _dir; }

    /** Number of records quarantined as corrupt so far. */
    std::uint64_t corruptRecords() const { return _corrupt; }

    /**
     * Look up @p key. On Hit, @p fragment receives the stored report
     * bytes verbatim. A record whose container fails CRC/framing or
     * whose embedded key disagrees with its file name is quarantined
     * (renamed to .bad) and reported as Corrupt.
     */
    StoreGet get(const PointKey &key, std::vector<std::uint8_t> *fragment);

    /**
     * Persist @p fragment under @p key (atomic temp+rename, so a
     * concurrent reader never sees a torn record).
     * Throws SimException(StoreCorrupt) on I/O failure.
     */
    void put(const PointKey &key,
             const std::vector<std::uint8_t> &fragment);

    /**
     * Integrity pass for one record: re-read it from disk and verify
     * container CRCs, the embedded key, and byte-equality with
     * @p expect. A failed record is rewritten from @p expect.
     * @return true if the on-disk record was already valid.
     */
    bool verifyOrRepair(const PointKey &key,
                        const std::vector<std::uint8_t> &expect);

    /** Path of the record file for @p key. */
    std::string recordPath(const PointKey &key) const;

  private:
    std::string _dir;
    std::uint64_t _corrupt = 0;
};

} // namespace imo::farm

#endif // IMO_FARM_STORE_HH
