/**
 * @file
 * One shared functional reference pass serving many cache geometries.
 *
 * A sweep's geometry axis re-runs the same program once per grid point
 * even though the functional instruction stream is identical across
 * points whenever the program contains no cache-outcome-dependent
 * operations (no BRMISS/BRMISS2, no miss traps). This driver runs that
 * stream ONCE: the executor's raw reference stream feeds a
 * memory::MultiCacheSim that classifies every access for every member
 * geometry simultaneously, and at each SMARTS window boundary the
 * buffered window records are replayed through a fresh timing model
 * per member — with each data reference's service level patched to
 * that member's classification — producing exactly the WindowSample a
 * dedicated interleaved pass would have measured.
 *
 * Byte-identity argument, piece by piece:
 *  - the architectural stream (instructions, addresses, branch
 *    outcomes, halt point) is geometry-invariant for eligible
 *    programs, so fast-forward gaps and window boundaries land on the
 *    same instructions as any dedicated run;
 *  - the warm accumulator only ever consumes conditional-branch
 *    outcomes, which are stream-invariant, and all members share one
 *    predictor geometry, so the per-boundary warm state is exactly
 *    what a dedicated pass would seed its windows with;
 *  - a window's timing model consumes TraceRecords, whose only
 *    geometry-dependent field is `level`; the engine reproduces
 *    FunctionalHierarchy::access exactly (property-tested and
 *    IMO_PARANOID_XCHECK-replayed), so the patched records equal the
 *    records the member's own executor would have produced.
 *
 * Sampler::runFromSharedPass() then folds the per-member samples into
 * estimates indistinguishable from Sampler::run().
 */

#ifndef IMO_SAMPLE_SHAREDPASS_HH
#define IMO_SAMPLE_SHAREDPASS_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "memory/multicache.hh"
#include "pipeline/config.hh"
#include "sample/sample.hh"

namespace imo::sample
{

/** Output of runSharedGeometryPass(): per-member window samples and
 *  exact totals, plus stream provenance for manifests. */
struct SharedPassResult
{
    /** samples[m] holds member m's windows in schedule order. */
    std::vector<std::vector<WindowSample>> samples;
    /** totals[m]: exact functional totals under member m's geometry. */
    std::vector<ExactTotals> totals;
    std::uint64_t configs = 0;      //!< distinct (L1, L2) classes served
    std::uint64_t streamLength = 0; //!< demand references classified
    std::uint64_t prefetches = 0;   //!< prefetches observed
    std::uint64_t windows = 0;      //!< window boundaries served
};

/**
 * Is @p program eligible for a shared reference pass? True iff no
 * instruction's architectural effect can depend on a cache outcome:
 * the program must contain no BRMISS/BRMISS2 (branch on the miss
 * condition code) and no SETMHAR/SETMHARR/SETMHARPC (a nonzero MHAR
 * arms miss traps, which redirect control flow). Informing-mode
 * instrumented programs fail this; mode-None programs pass.
 */
bool sharedPassEligible(const isa::Program &program);

/**
 * The distinct (L1, L2) geometry pairs of @p members, in first-
 * occurrence order: members sharing both cache shapes differ only in
 * latency and MSHR knobs, so they share one classification config.
 * @p classOf (optional) receives each member's class index.
 */
std::vector<memory::MultiCacheConfig>
geometryClasses(const std::vector<pipeline::MachineConfig> &members,
                std::vector<std::size_t> *classOf = nullptr);

/**
 * Run the shared pass. All @p members must share the machine kind,
 * predictor geometry and instruction budget (they are grid points
 * differing in cache geometry and timing knobs only) and @p program
 * must be sharedPassEligible(); throws SimException(BadConfig)
 * otherwise. Deterministic: a pure function of the arguments.
 */
SharedPassResult
runSharedGeometryPass(const isa::Program &program,
                      const std::vector<pipeline::MachineConfig> &members,
                      const SampleParams &params);

} // namespace imo::sample

#endif // IMO_SAMPLE_SHAREDPASS_HH
