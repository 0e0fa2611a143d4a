/**
 * @file
 * A small sweep grid that holds every kind of task the plan knows, for
 * the sweep and farm executor tests.
 */

#ifndef IMO_TESTS_GRID_HELPERS_HH
#define IMO_TESTS_GRID_HELPERS_HH

#include <vector>

#include "core/informing.hh"
#include "sweep/sweep.hh"

namespace imo::testhelpers
{

/**
 * Five interleaved hydro2d points at 2000:100:100:
 *  - 0, 3: mode N at L1 4 KB and 8 KB (which miss differently), one
 *    multi-cache group;
 *  - 1, 4: mode S at L2 latency 8 and 24 — the informing program keeps
 *    them dedicated, and they share one live-point library (the
 *    capture digest ignores latencies);
 *  - 2: a full-detail point.
 */
inline std::vector<sweep::SweepPoint>
mixedTaskGrid()
{
    sweep::SweepPoint base;
    base.workload = "hydro2d";
    base.scale = 0.2;
    base.sample = "2000:100:100";

    sweep::SweepPoint n4 = base, n8 = base, s8 = base, s24 = base;
    sweep::SweepPoint full = base;
    n4.l1SizeBytes = 4096;
    n8.l1SizeBytes = 8192;
    s8.mode = s24.mode = core::InformingMode::TrapSingle;
    s8.l2Latency = 8;
    s24.l2Latency = 24;
    full.sample.clear();
    return {n4, s8, full, n8, s24};
}

} // namespace imo::testhelpers

#endif // IMO_TESTS_GRID_HELPERS_HH
