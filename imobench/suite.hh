/**
 * @file
 * The six imo-bench workloads and the work one repetition does.
 *
 * Every repetition runs in a freshly spawned copy of imo-bench
 * (`--child rep`), so its set-up time and peak RSS are what a CLI user
 * pays; the parent only spawns, waits, and aggregates. The untimed
 * reference run (`--child ref`) uses the plain dedicated path —
 * runSweep with no library sharing, no multi-cache and no farm, or the
 * coherence grid on one thread — and every repetition's report must
 * match it byte for byte.
 */

#ifndef IMO_BENCH_SUITE_HH
#define IMO_BENCH_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/kernels.hh"
#include "sweep/sweep.hh"

namespace imo::bench
{

/** How a workload's grid is executed. */
enum class Engine : std::uint8_t
{
    Sweep,     //!< sweep::runSweep on the thread pool
    Farm,      //!< farm::runFarm with local pipe workers
    Coherence, //!< coherence::CoherentMachine::run on the thread pool
};

/** One named workload (BENCHMARK.json says why each exists). */
struct Workload
{
    const char *name;
    Engine engine;
    bool sharing;    //!< sweep::LibrarySharing on
    bool multiCache; //!< sweep::MultiCache on
};

/** The six workloads, in report order. */
const std::vector<Workload> &workloads();

/** @return the workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** What a child process is asked to run. */
struct RunSettings
{
    std::string workload;
    std::uint64_t seed = 1;
    bool smoke = false;   //!< tiny grids and two threads
    std::string scratch;  //!< directory for farm stores
};

/** Threads (or farm workers) used from one process: at most 4, never
 *  more than the host's hardware threads; 2 under --smoke. */
unsigned benchJobs(bool smoke);

/** Grid points of a sweep or farm workload, in report order. */
std::vector<sweep::SweepPoint> sweepPoints(const RunSettings &s);

/** One cell of the coherence grid. */
struct CoherencePoint
{
    std::size_t kernel = 0; //!< index into coherence::makeAllKernels()
    coherence::AccessMethod method = coherence::AccessMethod::Informing;
    Cycle messageLatency = 900;
};

coherence::KernelParams coherenceKernelParams(const RunSettings &s);
std::vector<CoherencePoint> coherencePoints(const RunSettings &s);

/** The machine parameters of one coherence cell. */
coherence::CoherenceParams coherenceParams(const CoherencePoint &p);

/** Deterministic text of one coherence result (its report line). */
std::string coherenceReportLine(const coherence::CoherenceResult &r,
                                const CoherencePoint &p);

/** Order-sensitive FNV-1a digest of @p text, as 16 hex digits. */
std::string digestHex(const std::string &text);

/** What one child run measured. Times are host time. */
struct ChildResult
{
    bool ok = true;
    std::string error;

    double wallS = 0;    //!< spawn to merged report in memory
    double setupS = 0;   //!< spawn to the first point's start
    double rerunS = -1;  //!< store-served re-run (farm only)
    double busyMs = 0;   //!< sum of distinct task spans
    unsigned jobs = 1;

    std::uint64_t points = 0;
    std::uint64_t failed = 0; //!< points whose simulation failed
    std::uint64_t simOps = 0; //!< instructions, or coherence references

    std::string digest;                    //!< merged report
    std::vector<std::string> pointDigests; //!< one per point
    std::vector<double> pointMs;           //!< one per point

    std::uint64_t libraryReused = 0; //!< sweep::LibrarySharing::reused
    std::uint64_t pointsShared = 0;  //!< sweep::MultiCache::pointsShared

    double cpiErrPct = -1; //!< reference of fig2-sampled only

    double peakRssMb = 0; //!< filled by the parent from wait4()
};

/** One timed repetition; @p spawn_ns is the parent's steady-clock
 *  reading just before it spawned this process. */
ChildResult runRepetition(const RunSettings &s, std::int64_t spawn_ns);

/** A sweep repetition's set-up alone: the grid is built and validated,
 *  and the child stops where runRepetition hands it to runSweep. */
ChildResult runSetup(const RunSettings &s, std::int64_t spawn_ns);

/** The untimed reference run for @p s. */
ChildResult runReference(const RunSettings &s);

/** Child -> parent wire format (one JSON object). */
std::string encodeChildResult(const ChildResult &r);
bool decodeChildResult(const std::string &text, ChildResult &out,
                       std::string &err);

/** Steady-clock nanoseconds (the clock sweep::PointTiming uses). */
std::int64_t steadyNs();

} // namespace imo::bench

#endif // IMO_BENCH_SUITE_HH
