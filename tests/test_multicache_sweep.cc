/**
 * @file
 * Sweep-layer contract of single-pass multi-configuration cache
 * simulation: the multi-cache path must emit byte-identical reports to
 * the dedicated per-point path for any job count, group only points
 * that genuinely share a reference stream, fall back silently where it
 * cannot share, and record per-group provenance for manifests. The
 * shared pass underneath replays a window once per distinct (timing
 * config, level log), and only then.
 */

#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/informing.hh"
#include "obs/observer.hh"
#include "sample/sharedpass.hh"
#include "sweep/sweep.hh"

using namespace imo;

namespace
{

std::string
report(const std::vector<sweep::SweepOutcome> &outcomes)
{
    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    return os.str();
}

/** A small geometry-axis grid: 4 sizes x 2 ways, one shared stream. */
std::vector<sweep::SweepPoint>
geometryPoints(core::InformingMode mode, const std::string &sample)
{
    sweep::SweepGrid grid;
    grid.workloads = {"espresso"};
    grid.modes = {mode};
    grid.scale = 0.5;
    grid.l1SizesBytes = {4096, 8192, 16384, 32768};
    grid.l1Assocs = {1, 2};
    grid.samples = {sample};
    return sweep::expandGrid(grid);
}

} // namespace

TEST(MultiCacheSweep, ByteIdenticalReportForAnyJobs)
{
    const std::vector<sweep::SweepPoint> points =
        geometryPoints(core::InformingMode::None, "2000:100:100");
    const std::string dedicated = report(sweep::runSweep(points, 1));

    for (const unsigned jobs : {1u, 4u}) {
        sweep::MultiCache mc;
        const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
            points, jobs, nullptr, nullptr, nullptr, nullptr, &mc);
        EXPECT_EQ(report(outs), dedicated) << "jobs=" << jobs;
        ASSERT_EQ(mc.groups.size(), 1u) << "jobs=" << jobs;
        EXPECT_TRUE(mc.groups[0].shared);
        EXPECT_EQ(mc.pointsShared, points.size());
    }
}

TEST(MultiCacheSweep, MixedGridGroupsOnlyEligiblePoints)
{
    // Geometry axis plus a full-detailed point, a point on a different
    // sampling schedule, and a point whose geometry cannot validate
    // (4096 B is not divisible by 3 ways of 32 B lines): only the
    // first group shares; everything else runs dedicated, and the
    // merged report is still byte-identical.
    std::vector<sweep::SweepPoint> points =
        geometryPoints(core::InformingMode::None, "2000:100:100");
    sweep::SweepPoint full = points[0];
    full.sample.clear();
    points.push_back(full);
    sweep::SweepPoint other = points[1];
    other.sample = "3000:150:150";
    points.push_back(other);
    sweep::SweepPoint invalid = points[2];
    invalid.l1SizeBytes = 4096;
    invalid.l1Assoc = 3;
    points.push_back(invalid);

    const std::vector<std::vector<std::size_t>> plan =
        sweep::planMultiCacheGroups(points);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].size(), 8u); // the geometry axis, nothing else

    const std::string dedicated = report(sweep::runSweep(points, 2));
    sweep::MultiCache mc;
    const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
        points, 2, nullptr, nullptr, nullptr, nullptr, &mc);
    EXPECT_EQ(report(outs), dedicated);
    EXPECT_EQ(mc.pointsShared, 8u);
}

TEST(MultiCacheSweep, InformingModeStaysDedicated)
{
    // An informing-mode program's reference stream depends on cache
    // outcomes (SETMHAR arms miss traps), so the planner must refuse
    // to group it and the sweep must behave exactly as before.
    const std::vector<sweep::SweepPoint> points =
        geometryPoints(core::InformingMode::TrapUnique, "2000:100:100");
    EXPECT_TRUE(sweep::planMultiCacheGroups(points).empty());

    const std::string dedicated = report(sweep::runSweep(points, 2));
    sweep::MultiCache mc;
    const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
        points, 2, nullptr, nullptr, nullptr, nullptr, &mc);
    EXPECT_EQ(report(outs), dedicated);
    EXPECT_TRUE(mc.groups.empty());
    EXPECT_EQ(mc.pointsShared, 0u);
}

TEST(MultiCacheSweep, GroupProvenanceRecorded)
{
    const std::vector<sweep::SweepPoint> points =
        geometryPoints(core::InformingMode::None, "2000:100:100");
    sweep::MultiCache mc;
    (void)sweep::runSweep(points, 1, nullptr, nullptr, nullptr,
                          nullptr, &mc);
    ASSERT_EQ(mc.groups.size(), 1u);
    const sweep::MultiCacheGroup &g = mc.groups[0];
    EXPECT_EQ(g.members.size(), points.size());
    EXPECT_EQ(g.configs, points.size()); // all geometries distinct
    EXPECT_GT(g.streamLength, 0u);
    EXPECT_GT(g.windows, 0u);
    EXPECT_TRUE(g.shared);
}

TEST(MultiCacheSweep, RunPointGroupRejectsMixedMembers)
{
    std::vector<sweep::SweepPoint> members =
        geometryPoints(core::InformingMode::None, "2000:100:100");
    members[1].workload = "alvinn";
    EXPECT_THROW(sweep::runPointGroup(members), SimException);

    members = geometryPoints(core::InformingMode::None, "2000:100:100");
    members[1].sample = "999:99:99";
    EXPECT_THROW(sweep::runPointGroup(members), SimException);
}

TEST(MultiCacheSweep, RefusedGroupFallsBackToRunPoint)
{
    // An informing-mode program cannot share a pass: handed to
    // runPointGroup anyway, every member runs on its dedicated path.
    std::vector<sweep::SweepPoint> members =
        geometryPoints(core::InformingMode::TrapUnique, "2000:100:100");
    members.resize(2);
    sweep::MultiCacheGroup prov;
    prov.shared = true;
    const std::vector<sweep::SweepOutcome> outs =
        sweep::runPointGroup(members, &prov);
    ASSERT_EQ(outs.size(), members.size());
    for (std::size_t m = 0; m < members.size(); ++m)
        EXPECT_EQ(report({outs[m]}),
                  report({sweep::runPoint(members[m])}))
            << "member " << m;
    EXPECT_FALSE(prov.shared);
}

TEST(MultiCacheSweep, LatencyAndMshrAxesByteIdentical)
{
    // Members differ in L2 latency and MSHR count as well as geometry,
    // so the group holds several timing classes: a window replay may
    // be shared only inside one, and a sharing key that missed a
    // timing field would change this report.
    sweep::SweepGrid grid;
    grid.workloads = {"espresso"};
    grid.scale = 0.5;
    grid.l1SizesBytes = {4096, 8192, 32768};
    grid.l2Latencies = {8, 24};
    grid.mshrCounts = {1, 8};
    grid.samples = {"2000:100:100"};
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 12u);

    sweep::MultiCache mc;
    const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
        points, 2, nullptr, nullptr, nullptr, nullptr, &mc);
    EXPECT_EQ(report(outs), report(sweep::runSweep(points, 2)));
    ASSERT_EQ(mc.groups.size(), 1u);
    EXPECT_TRUE(mc.groups[0].shared);
    EXPECT_EQ(mc.groups[0].configs, 3u); // one per L1 size
}

TEST(SharedPass, ReplaysEachDistinctWindowOnce)
{
    const std::vector<sweep::SweepPoint> points =
        geometryPoints(core::InformingMode::None, "2000:100:100");
    const isa::Program prog = points[0].buildProgram();
    const sample::SampleParams params =
        sample::SampleParams::parse(points[0].sample);
    std::vector<pipeline::MachineConfig> cfgs;
    for (const sweep::SweepPoint &p : points)
        cfgs.push_back(p.resolveConfig());

    // The geometries often agree on a window's levels: fewer replays
    // than members x windows, but at least one per window.
    const sample::SharedPassResult base =
        sample::runSharedGeometryPass(prog, cfgs, params);
    ASSERT_GT(base.windows, 0u);
    EXPECT_GE(base.replays, base.windows);
    EXPECT_LT(base.replays, cfgs.size() * base.windows);

    // A ninth member equal to the first shares its replay every time.
    cfgs.push_back(cfgs[0]);
    const sample::SharedPassResult twin =
        sample::runSharedGeometryPass(prog, cfgs, params);
    EXPECT_EQ(twin.replays, base.replays);
    EXPECT_EQ(twin.samples.back(), base.samples[0]);

    // Observed, the same member is replayed in every window, with its
    // side effects, and measures what it would have shared.
    obs::Observer observer;
    cfgs.back().obs = &observer;
    const sample::SharedPassResult watched =
        sample::runSharedGeometryPass(prog, cfgs, params);
    EXPECT_EQ(watched.replays, base.replays + watched.windows);
    EXPECT_FALSE(observer.profiler.table().empty());
    for (std::size_t m = 0; m < points.size(); ++m)
        EXPECT_EQ(watched.samples[m], base.samples[m]) << "member " << m;
    EXPECT_EQ(watched.samples.back(), base.samples[0]);
}
