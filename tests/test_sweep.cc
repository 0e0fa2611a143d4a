/**
 * @file
 * Tests for the parallel sweep engine and the fast-path cache
 * geometry it depends on.
 *
 *  - runOrdered(): results land in input order for any job count,
 *    and task exceptions propagate (first failing index wins).
 *  - expandGrid(): cardinality and deterministic axis ordering.
 *  - planTasks(): every point in exactly one task, tasks ordered by
 *    first member, multi-point tasks = planMultiCacheGroups().
 *  - runSweep() + writeReportJson(): byte-identical JSON for
 *    --jobs 1 vs --jobs 4 on a real (small) grid — with and without a
 *    sampled (--samples) axis — and a well-formed report for an empty
 *    grid; and a grid holding every task kind gives the plain report
 *    with library sharing and multi-cache both on.
 *  - CacheGeometry: the compiled shift/mask fast path agrees with the
 *    reference divide chain on randomized addresses across all legal
 *    shapes, and lineAddrOf() inverts (setIndex, tag) — the dirty-
 *    victim writeback reconstruction.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "memory/geometry.hh"
#include "sweep/engine.hh"
#include "sweep/sweep.hh"

#include "grid_helpers.hh"

namespace
{

using namespace imo;

// ---------------------------------------------------------------- engine

TEST(SweepEngine, ResultsInInputOrder)
{
    constexpr std::size_t kTasks = 64;
    std::vector<std::function<std::size_t()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        // Uneven work so parallel completion order differs from
        // input order; results must still come back by index.
        tasks.emplace_back([i] {
            std::size_t acc = i;
            for (std::size_t k = 0; k < (i % 7) * 1000; ++k)
                acc = acc * 2654435761u + k;
            return acc % kTasks == 0 ? i : i;
        });
    }
    const std::vector<std::size_t> seq = sweep::runOrdered(tasks, 1);
    const std::vector<std::size_t> par = sweep::runOrdered(tasks, 4);
    ASSERT_EQ(seq.size(), kTasks);
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(seq[i], i);
    EXPECT_EQ(seq, par);
}

TEST(SweepEngine, CancelStopsSchedulingAndReportsCompletion)
{
    // A task trips the cancel flag partway through; no new tasks may
    // start after that, and the completion mask must say exactly which
    // results are real.
    constexpr std::size_t kTasks = 32;
    constexpr std::size_t kTrip = 5;
    static volatile std::sig_atomic_t cancel;
    cancel = 0;
    std::vector<std::function<std::size_t()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        tasks.emplace_back([i] {
            if (i == kTrip)
                cancel = 1;
            return i + 100;
        });
    }

    for (const unsigned jobs : {1u, 4u}) {
        cancel = 0;
        std::vector<std::uint8_t> completed;
        const std::vector<std::size_t> out =
            sweep::runOrdered(tasks, jobs, &cancel, &completed);
        ASSERT_EQ(out.size(), kTasks);
        ASSERT_EQ(completed.size(), kTasks);

        std::size_t done = 0;
        for (std::size_t i = 0; i < kTasks; ++i) {
            if (completed[i]) {
                EXPECT_EQ(out[i], i + 100) << "jobs=" << jobs;
                ++done;
            }
        }
        // The tripping task itself completes; everything the flag beat
        // to the scheduler does not.
        EXPECT_GE(done, kTrip + 1) << "jobs=" << jobs;
        EXPECT_LT(done, kTasks) << "jobs=" << jobs;
    }
}

TEST(SweepEngine, NullCancelRunsEverything)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.emplace_back([i] { return i; });
    std::vector<std::uint8_t> completed;
    const std::vector<int> out =
        sweep::runOrdered(tasks, 2, nullptr, &completed);
    ASSERT_EQ(completed.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(completed[i]);
        EXPECT_EQ(out[i], static_cast<int>(i));
    }
}

TEST(SweepEngine, JobsZeroAndOversubscribedBothWork)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 5; ++i)
        tasks.emplace_back([i] { return i * i; });
    const std::vector<int> expect = {0, 1, 4, 9, 16};
    EXPECT_EQ(sweep::runOrdered(tasks, 0), expect);
    EXPECT_EQ(sweep::runOrdered(tasks, 64), expect);
}

TEST(SweepEngine, FirstFailingIndexWins)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.emplace_back([i]() -> int {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
            return i;
        });
    }
    for (const unsigned jobs : {1u, 4u}) {
        try {
            sweep::runOrdered(tasks, jobs);
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task two");
        }
    }
}

TEST(SweepEngine, EmptyTaskList)
{
    const std::vector<std::function<int()>> tasks;
    EXPECT_TRUE(sweep::runOrdered(tasks, 4).empty());
}

// ------------------------------------------------------------------ grid

TEST(SweepGrid, ExpandCardinalityAndOrder)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads = {"ora", "eqntott"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle};
    grid.handlerLens = {1, 10};
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 16u);

    // Machine is the outermost axis: first half all "ooo".
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(points[i].machine, "ooo") << i;
    for (std::size_t i = 8; i < 16; ++i)
        EXPECT_EQ(points[i].machine, "inorder") << i;
    // handlerLen is the innermost of the populated axes here.
    EXPECT_EQ(points[0].handlerLen, 1u);
    EXPECT_EQ(points[1].handlerLen, 10u);
    EXPECT_EQ(points[0].workload, "ora");
    EXPECT_EQ(points[4].workload, "eqntott");
    EXPECT_EQ(points[0].mode, core::InformingMode::None);
    EXPECT_EQ(points[2].mode, core::InformingMode::TrapSingle);
}

TEST(SweepGrid, ResolveConfigValidatesMachineName)
{
    sweep::SweepPoint p;
    p.machine = "ooo";
    EXPECT_NO_THROW(p.resolveConfig().validate());
    p.machine = "inorder";
    EXPECT_NO_THROW(p.resolveConfig().validate());
    p.machine = "vliw";
    try {
        p.resolveConfig();
        FAIL() << "expected BadConfig for unknown machine";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }
}

TEST(SweepGrid, DescribePointMentionsTheCell)
{
    sweep::SweepPoint p;
    p.machine = "inorder";
    p.workload = "tomcatv";
    const std::string text = sweep::describePoint(p);
    EXPECT_NE(text.find("inorder"), std::string::npos) << text;
    EXPECT_NE(text.find("tomcatv"), std::string::npos) << text;
}

// ------------------------------------------------- end-to-end determinism

TEST(SweepRun, ReportByteIdenticalAcrossJobCounts)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads = {"ora"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle};
    grid.scale = 0.1;
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 4u);

    const auto report = [&](unsigned jobs) {
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runSweep(points, jobs);
        std::ostringstream os;
        sweep::writeReportJson(os, outcomes);
        return os.str();
    };
    const std::string j1 = report(1);
    const std::string j4 = report(4);
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("\"machine\":\"ooo"), std::string::npos);
    EXPECT_NE(j1.find("\"ok\":true"), std::string::npos);
}

TEST(SweepRun, EmptyGridProducesAnEmptyButValidReport)
{
    // A fully filtered-out grid is legal: the engine gets zero tasks
    // and the report writer must still emit a well-formed document.
    const std::vector<sweep::SweepPoint> none;
    const std::vector<sweep::SweepOutcome> outcomes =
        sweep::runSweep(none, 4);
    EXPECT_TRUE(outcomes.empty());

    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    EXPECT_NE(os.str().find("\"points\":[]"), std::string::npos)
        << os.str();
}

TEST(SweepRun, SampledAxisReportByteIdenticalAcrossJobCounts)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo"};
    grid.workloads = {"hydro2d"};
    grid.modes = {core::InformingMode::None};
    grid.samples = {"", "9973:300:300"};
    grid.scale = 0.2;
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].sample, "");
    EXPECT_EQ(points[1].sample, "9973:300:300");

    const auto report = [&](unsigned jobs) {
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runSweep(points, jobs);
        std::ostringstream os;
        sweep::writeReportJson(os, outcomes);
        return os.str();
    };
    const std::string j1 = report(1);
    const std::string j4 = report(4);
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("\"sample\":\"9973:300:300\""), std::string::npos);
    EXPECT_NE(j1.find("\"cpi_mean\":"), std::string::npos);
}

// ------------------------------------------------------------ task plan

std::string
reportOf(const std::vector<sweep::SweepOutcome> &outcomes)
{
    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    return os.str();
}

TEST(SweepPlan, TasksPartitionEveryPointOnce)
{
    sweep::SweepGrid geometry;
    geometry.workloads = {"espresso", "ora"};
    geometry.modes = {core::InformingMode::None,
                      core::InformingMode::TrapSingle};
    geometry.scale = 0.2;
    geometry.l1SizesBytes = {4096, 8192};
    geometry.samples = {"", "2000:100:100"};
    const std::vector<std::vector<sweep::SweepPoint>> grids = {
        {}, testhelpers::mixedTaskGrid(), sweep::expandGrid(geometry)};

    for (const std::vector<sweep::SweepPoint> &points : grids) {
        for (const bool multiCache : {false, true}) {
            const std::vector<std::vector<std::size_t>> tasks =
                sweep::planTasks(points, multiCache);
            std::vector<int> seen(points.size(), 0);
            std::vector<std::vector<std::size_t>> multi;
            for (std::size_t t = 0; t < tasks.size(); ++t) {
                ASSERT_FALSE(tasks[t].empty());
                for (std::size_t k = 0; k < tasks[t].size(); ++k) {
                    ASSERT_LT(tasks[t][k], points.size());
                    ++seen[tasks[t][k]];
                    if (k > 0)
                        EXPECT_LT(tasks[t][k - 1], tasks[t][k]);
                }
                if (t > 0)
                    EXPECT_LT(tasks[t - 1].front(), tasks[t].front());
                if (tasks[t].size() > 1)
                    multi.push_back(tasks[t]);
            }
            EXPECT_EQ(seen, std::vector<int>(points.size(), 1));
            if (multiCache)
                EXPECT_EQ(multi, sweep::planMultiCacheGroups(points));
            else
                EXPECT_EQ(tasks.size(), points.size());
        }
    }
    // The geometry grid does plan groups: N-mode sampled points of
    // each workload, two geometries each.
    EXPECT_EQ(sweep::planMultiCacheGroups(grids[2]).size(), 2u);
}

TEST(SweepRun, SharingAndMultiCacheKeepReportBytes)
{
    // Every task kind in one run: a multi-cache group, a live-point
    // leader and its follower, and a full-detail point.
    const std::vector<sweep::SweepPoint> points =
        testhelpers::mixedTaskGrid();
    for (const unsigned jobs : {1u, 4u}) {
        const std::string plain = reportOf(sweep::runSweep(points, jobs));
        sweep::LibrarySharing sharing;
        sweep::MultiCache mc;
        std::vector<std::uint8_t> completed;
        std::vector<sweep::PointTiming> timings;
        const std::vector<sweep::SweepOutcome> outs =
            sweep::runSweep(points, jobs, nullptr, &completed, &timings,
                            &sharing, &mc);
        EXPECT_EQ(reportOf(outs), plain) << "jobs=" << jobs;
        EXPECT_EQ(sharing.captured, 1u) << "jobs=" << jobs;
        EXPECT_EQ(sharing.reused, 1u) << "jobs=" << jobs;
        ASSERT_EQ(mc.groups.size(), 1u) << "jobs=" << jobs;
        EXPECT_EQ(mc.groups[0].members, (std::vector<std::size_t>{0, 3}));
        EXPECT_TRUE(mc.groups[0].shared);
        EXPECT_EQ(mc.pointsShared, 2u) << "jobs=" << jobs;
        EXPECT_EQ(completed, std::vector<std::uint8_t>(points.size(), 1));
        for (const sweep::PointTiming &t : timings)
            EXPECT_TRUE(t.ran);
        // The group's members share its span.
        EXPECT_EQ(timings[0].startMs, timings[3].startMs);
        EXPECT_EQ(timings[0].endMs, timings[3].endMs);
        EXPECT_EQ(timings[0].threadId, timings[3].threadId);
    }
}

// -------------------------------------------------------------- geometry

std::vector<memory::CacheGeometry>
allLegalShapes()
{
    // Every legal shape class: pow2 line, any assoc (including
    // non-pow2) as long as the set count is a power of two.
    std::vector<memory::CacheGeometry> shapes;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 6u, 8u}) {
            for (const std::uint64_t sets : {1ull, 2ull, 64ull, 1024ull}) {
                memory::CacheGeometry g;
                g.lineBytes = line;
                g.assoc = assoc;
                g.sizeBytes =
                    static_cast<std::uint64_t>(line) * assoc * sets;
                std::string why;
                EXPECT_TRUE(g.wellFormed(&why)) << why;
                shapes.push_back(g);
            }
        }
    }
    return shapes;
}

TEST(CacheGeometry, FastPathMatchesReferenceOnRandomAddresses)
{
    std::mt19937_64 rng(0x1996'05'22);  // fixed seed: deterministic
    for (memory::CacheGeometry g : allLegalShapes()) {
        memory::CacheGeometry ref = g;  // never compiled
        g.compile();
        ASSERT_TRUE(g.precomputed);
        for (int i = 0; i < 10000; ++i) {
            // Mix full-range and small addresses.
            Addr addr = rng();
            if (i % 3 == 0)
                addr &= 0xfffffff;
            ASSERT_EQ(g.setIndex(addr), ref.setIndexRef(addr))
                << "line=" << g.lineBytes << " assoc=" << g.assoc
                << " size=" << g.sizeBytes << " addr=" << addr;
            ASSERT_EQ(g.tag(addr), ref.tagRef(addr))
                << "line=" << g.lineBytes << " assoc=" << g.assoc
                << " size=" << g.sizeBytes << " addr=" << addr;
        }
    }
}

TEST(CacheGeometry, LineAddrOfInvertsSlicing)
{
    std::mt19937_64 rng(0xfeedface);
    for (memory::CacheGeometry g : allLegalShapes()) {
        memory::CacheGeometry ref = g;
        g.compile();
        for (int i = 0; i < 1000; ++i) {
            const Addr addr = rng();
            const Addr line = g.lineAddr(addr);
            const std::uint64_t set = g.setIndex(addr);
            const Addr tag_v = g.tag(addr);
            // The reconstruction used for dirty-victim writebacks must
            // name exactly the cached line, on both paths.
            EXPECT_EQ(g.lineAddrOf(tag_v, set), line);
            EXPECT_EQ(ref.lineAddrOf(tag_v, set), line);
            // And round-trip back to the same (set, tag).
            EXPECT_EQ(g.setIndex(g.lineAddrOf(tag_v, set)), set);
            EXPECT_EQ(g.tag(g.lineAddrOf(tag_v, set)), tag_v);
        }
    }
}

TEST(CacheGeometry, CompileRejectsIllegalShapes)
{
    memory::CacheGeometry g;
    g.lineBytes = 48;  // not a power of two
    g.assoc = 1;
    g.sizeBytes = 48 * 64;
    try {
        g.compile();
        FAIL() << "expected BadConfig";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }

    memory::CacheGeometry h;
    h.lineBytes = 32;
    h.assoc = 1;
    h.sizeBytes = 32 * 3;  // three sets: not a power of two
    EXPECT_FALSE(h.wellFormed());
    EXPECT_THROW(h.compile(), SimException);
}

} // anonymous namespace
