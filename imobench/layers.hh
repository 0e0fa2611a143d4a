/**
 * @file
 * The traced run: one workload replayed as the public calls of each
 * simulator layer, each call wrapped in a span.
 *
 * workloads::build -> core::instrument -> func::Executor::run ->
 * pipeline::simulate | sample::Sampler::run (sequential, capture,
 * replay) -> serializeLibrary / parseLibrary / restoreExecImage ->
 * runSharedGeometryPass / MultiCacheSim / dedicated hierarchies ->
 * farm::runFarm (leases from SlotRecord) -> ResultStore::get, and
 * CoherentMachine::run. End-to-end numbers never come from this run.
 */

#ifndef IMO_BENCH_LAYERS_HH
#define IMO_BENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"
#include "suite.hh"

namespace imo::bench
{

/** One reported number. @ref n is its sample count (0: a total). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t n = 0;
};

/** Layers whose self-time share is reported for every workload. */
const std::vector<std::string> &layerNames();

/**
 * Replay @p s's workload decomposed into layer calls, recording spans
 * into @p rec. @p untraced is a plain repetition of the same workload,
 * run just before, for the pool and overhead ratios. Throws
 * SimException when a layer call fails.
 */
std::vector<Metric> runTraced(const RunSettings &s, SpanRecorder &rec,
                              const ChildResult &untraced);

} // namespace imo::bench

#endif // IMO_BENCH_LAYERS_HH
