/**
 * @file
 * Tests for the fault-tolerant sweep farm (src/farm/).
 *
 *  - PointKey: deterministic, sensitive to config and workload
 *    changes, stable hex encoding.
 *  - ResultStore: verbatim round-trip, explicit opt-in to reuse,
 *    corruption quarantine, and verifyOrRepair() semantics.
 *  - runFarm(): merged report byte-identical to single-process
 *    runSweep() for any worker count, under every farm-level fault,
 *    with duplicate input points collapsed, and with a second run
 *    served entirely from the memoized store.
 *  - Wire protocol: FrameParser reassembly at every fragmentation
 *    boundary, the authDigest admission keying, the lease codec
 *    (every task shape round-trips, malformed tasks are garbage), and
 *    v5 peers refused at admission.
 *  - TCP farms: in-process imo-worker sessions over loopback sockets —
 *    report identity, late joins, token rejection (AuthFailed), the
 *    min-workers fail-fast, and the three network fault points.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "farm/farm.hh"
#include "obs/trace.hh"
#include "farm/proto.hh"
#include "farm/store.hh"
#include "farm/transport.hh"
#include "farm/worker.hh"
#include "sample/livepoint.hh"
#include "sweep/sweep.hh"

namespace
{

using namespace imo;

std::vector<sweep::SweepPoint>
smallPoints()
{
    sweep::SweepGrid g;
    g.workloads = {"ora"};
    g.machines = {"inorder"};
    g.modes = {core::InformingMode::None,
               core::InformingMode::TrapSingle};
    g.handlerLens = {1};
    g.scale = 0.1;
    return sweep::expandGrid(g);
}

/** One point that simulates for about a second (see its users). */
sweep::SweepPoint
longPoint()
{
    sweep::SweepPoint p;
    p.machine = "inorder";
    p.workload = "compress";
    p.handlerLen = 1;
    p.scale = 40;
    return p;
}

std::string
sweepReport(const std::vector<sweep::SweepPoint> &points)
{
    const std::vector<sweep::SweepOutcome> outcomes =
        sweep::runSweep(points, 1);
    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    return os.str();
}

std::string
farmReport(const farm::FarmResult &res)
{
    std::ostringstream os;
    farm::writeFarmReportJson(os, res);
    return os.str();
}

/** Fresh temp directory; removed lazily by the OS, unique per call. */
std::string
tempDir(const char *tag)
{
    std::string tmpl = ::testing::TempDir() + "imo_farm_" + tag +
        "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

void
corruptFile(const std::string &path)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 0);
    f.seekg(size / 2);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(size / 2);
    byte = static_cast<char>(byte ^ 0x04);
    f.write(&byte, 1);
}

// -------------------------------------------------------------- PointKey

TEST(FarmPointKey, DeterministicAndSensitive)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    ASSERT_GE(pts.size(), 2u);

    const farm::PointKey a1 = farm::keyForPoint(pts[0]);
    const farm::PointKey a2 = farm::keyForPoint(pts[0]);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(a1.hex(), a2.hex());
    EXPECT_EQ(a1.hex().size(), 40u);

    // A different mode changes both the config hash and the
    // instrumented program fingerprint.
    const farm::PointKey b = farm::keyForPoint(pts[1]);
    EXPECT_NE(a1.hex(), b.hex());

    // A pure machine-config change leaves the program alone but must
    // still produce a different address.
    sweep::SweepPoint tweaked = pts[0];
    tweaked.l2Latency = 99;
    const farm::PointKey c = farm::keyForPoint(tweaked);
    EXPECT_EQ(a1.programHash, c.programHash);
    EXPECT_NE(a1.configHash, c.configHash);
}

// ----------------------------------------------------------- ResultStore

TEST(FarmStore, RoundTripIsVerbatim)
{
    farm::ResultStore store(tempDir("rt"), false);
    const farm::PointKey key = farm::keyForPoint(smallPoints()[0]);
    const std::vector<std::uint8_t> bytes = {'{', '"', 'x', '"', ':',
                                             '1', '}'};

    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Miss);
    store.put(key, bytes);
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Hit);
    EXPECT_EQ(out, bytes);
    EXPECT_EQ(store.corruptRecords(), 0u);
}

TEST(FarmStore, ReuseRequiresExplicitOptIn)
{
    const std::string dir = tempDir("optin");
    const farm::PointKey key = farm::keyForPoint(smallPoints()[0]);
    {
        farm::ResultStore store(dir, false);
        store.put(key, {1, 2, 3});
    }
    // A store holding records must be rejected unless resume is on.
    try {
        farm::ResultStore again(dir, false);
        FAIL() << "expected BadConfig for a non-empty store";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }
    farm::ResultStore resumed(dir, true);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(resumed.get(key, &out), farm::StoreGet::Hit);
}

TEST(FarmStore, CorruptRecordIsQuarantined)
{
    farm::ResultStore store(tempDir("corrupt"), false);
    const farm::PointKey key = farm::keyForPoint(smallPoints()[0]);
    store.put(key, {9, 9, 9, 9});
    corruptFile(store.recordPath(key));

    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Corrupt);
    EXPECT_EQ(store.corruptRecords(), 1u);
    // Quarantined: the record is gone, the evidence is kept.
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Miss);
    std::ifstream bad(store.recordPath(key) + ".bad.1");
    EXPECT_TRUE(bad.good());
}

TEST(FarmStore, RepeatedCorruptionKeepsAllEvidence)
{
    // The same key corrupted twice (re-simulated, re-stored, rotted
    // again) must quarantine two distinct evidence files, not
    // overwrite the first.
    farm::ResultStore store(tempDir("recorrupt"), false);
    const farm::PointKey key = farm::keyForPoint(smallPoints()[0]);

    store.put(key, {1, 1, 1, 1});
    corruptFile(store.recordPath(key));
    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Corrupt);

    store.put(key, {2, 2, 2, 2});
    corruptFile(store.recordPath(key));
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Corrupt);
    EXPECT_EQ(store.corruptRecords(), 2u);

    std::ifstream bad1(store.recordPath(key) + ".bad.1");
    std::ifstream bad2(store.recordPath(key) + ".bad.2");
    EXPECT_TRUE(bad1.good());
    EXPECT_TRUE(bad2.good());
}

TEST(FarmStore, VerifyOrRepairRestoresTruth)
{
    farm::ResultStore store(tempDir("repair"), false);
    const farm::PointKey key = farm::keyForPoint(smallPoints()[0]);
    const std::vector<std::uint8_t> truth = {'t', 'r', 'u', 'e'};

    store.put(key, truth);
    EXPECT_TRUE(store.verifyOrRepair(key, truth));

    // Bit rot: CRC fails, record is rewritten from memory.
    corruptFile(store.recordPath(key));
    EXPECT_FALSE(store.verifyOrRepair(key, truth));
    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Hit);
    EXPECT_EQ(out, truth);

    // A valid container holding the wrong bytes (foreign writer) is
    // corruption too.
    store.put(key, {'l', 'i', 'e'});
    const std::uint64_t before = store.corruptRecords();
    EXPECT_FALSE(store.verifyOrRepair(key, truth));
    EXPECT_GT(store.corruptRecords(), before);
    EXPECT_EQ(store.get(key, &out), farm::StoreGet::Hit);
    EXPECT_EQ(out, truth);
}

// ---------------------------------------------------------------- runFarm

TEST(Farm, RejectsZeroWorkers)
{
    farm::FarmOptions opt;
    opt.workers = 0;
    try {
        farm::runFarm(smallPoints(), opt);
        FAIL() << "expected BadConfig";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }
}

TEST(Farm, ReportMatchesSweepForAnyWorkerCount)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string expect = sweepReport(pts);

    for (const unsigned workers : {1u, 4u}) {
        farm::FarmOptions opt;
        opt.workers = workers;
        const farm::FarmResult res = farm::runFarm(pts, opt);
        ASSERT_TRUE(res.ok) << res.error.format();
        EXPECT_EQ(res.stats.points, pts.size());
        EXPECT_EQ(res.stats.simulated, res.stats.uniqueSlots);
        EXPECT_EQ(farmReport(res), expect)
            << "workers=" << workers;
    }
}

TEST(Farm, DuplicatePointsCollapseIntoOneSlot)
{
    std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::size_t unique = pts.size();
    pts.push_back(pts[0]); // overlap: same content address
    pts.push_back(pts[1]);

    farm::FarmOptions opt;
    opt.workers = 2;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(res.stats.points, pts.size());
    EXPECT_EQ(res.stats.uniqueSlots, unique);
    EXPECT_EQ(res.stats.simulated, unique);
    ASSERT_EQ(res.fragments.size(), pts.size());
    EXPECT_EQ(res.fragments[0], res.fragments[unique]);
    EXPECT_EQ(res.fragments[1], res.fragments[unique + 1]);

    // And the merged report equals a sweep over the duplicated grid.
    EXPECT_EQ(farmReport(res), sweepReport(pts));
}

/** One chaos schedule per farm-level fault point: the farm must
 *  complete via retry/re-dispatch and the bytes must not change. */
class FarmChaos : public ::testing::TestWithParam<FaultPoint>
{
};

TEST_P(FarmChaos, ReportSurvivesFault)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string expect = sweepReport(pts);

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.leaseMs = 300;  // short: stalled workers reclaimed quickly
    opt.heartbeatMs = 50;
    opt.backoffBaseMs = 5;
    opt.backoffCapMs = 50;
    opt.maxAttempts = 30;
    opt.faults.seed = 17;
    // Worker faults draw once per lease, and a worker may take both
    // points before the other is admitted. At 0.7 the first draw of
    // both initial workers fires under seed 17, so the fault fires
    // whichever worker gets the work. The coordinator-side faults draw
    // once per grant (lease-write-fail) or per store write
    // (store-bit-flip).
    double prob = 0.7;
    if (GetParam() == FaultPoint::LeaseWriteFail)
        prob = 0.9;
    else if (GetParam() == FaultPoint::StoreBitFlip)
        prob = 0.5;
    opt.faults.setProbability(GetParam(), prob);
    if (GetParam() == FaultPoint::StoreBitFlip)
        opt.storeDir = tempDir("chaos_flip");

    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(farmReport(res), expect)
        << "fault " << faultPointName(GetParam());

    // A run the fault never touched would pass vacuously: every fault
    // must leave its mark in the farm's counters.
    if (GetParam() == FaultPoint::StoreBitFlip) {
        EXPECT_GT(res.stats.storeCorrupt, 0u) << "no rotted record";
    } else {
        EXPECT_GT(res.stats.retries + res.stats.workersLost, 0u)
            << "fault " << faultPointName(GetParam()) << " never fired";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFarmFaults, FarmChaos,
    ::testing::Values(FaultPoint::WorkerKill, FaultPoint::WorkerStall,
                      FaultPoint::DroppedResult,
                      FaultPoint::StoreBitFlip,
                      FaultPoint::LeaseWriteFail),
    [](const ::testing::TestParamInfo<FaultPoint> &info) {
        std::string name = faultPointName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** The lease-timeline trace must show the worker-kill retry, and
 *  attaching it must not perturb the merged report or fragments —
 *  telemetry is observational only. */
TEST(FarmTrace, ChaosTimelineShowsRetryWithoutPerturbingReport)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.leaseMs = 1500;
    opt.heartbeatMs = 50;
    opt.backoffBaseMs = 5;
    opt.backoffCapMs = 50;
    opt.maxAttempts = 30;
    opt.faults.seed = 17;
    opt.faults.setProbability(FaultPoint::WorkerKill, 0.5);

    const farm::FarmResult plain = farm::runFarm(pts, opt);
    ASSERT_TRUE(plain.ok) << plain.error.format();

    obs::TraceSink trace;
    trace.enable(static_cast<std::uint32_t>(obs::Cat::Sweep) |
                 static_cast<std::uint32_t>(obs::Cat::Farm) |
                 static_cast<std::uint32_t>(obs::Cat::Store) |
                 static_cast<std::uint32_t>(obs::Cat::Net));
    opt.trace = &trace;
    const farm::FarmResult traced = farm::runFarm(pts, opt);
    ASSERT_TRUE(traced.ok) << traced.error.format();

    EXPECT_EQ(farmReport(traced), farmReport(plain));
    ASSERT_EQ(traced.fragments.size(), plain.fragments.size());
    for (std::size_t i = 0; i < plain.fragments.size(); ++i)
        EXPECT_EQ(traced.fragments[i], plain.fragments[i]) << i;

    // The same seeded fault schedule ran, so the timeline must carry
    // at least one retry instant and one completed lease span.
    bool saw_retry = false;
    bool saw_lease_span = false;
    for (const obs::TraceEvent &e : trace.events()) {
        const std::string name = e.name;
        if (name == "retry")
            saw_retry = true;
        if (e.cat == obs::Cat::Farm && name == "lease" && e.dur > 0 &&
            e.tid != 0)
            saw_lease_span = true;
    }
    EXPECT_GT(traced.stats.retries, 0u);
    EXPECT_TRUE(saw_retry) << "no retry instant in the lease timeline";
    EXPECT_TRUE(saw_lease_span) << "no completed lease span on a "
                                   "worker track";
}

TEST(Farm, LeaseEndsWithItsSimulation)
{
    // A heartbeat period far longer than any point here: a lease must
    // still end as soon as its simulation does, not on the next tick.
    const std::vector<sweep::SweepPoint> pts = smallPoints();

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.heartbeatMs = 2000;
    opt.leaseMs = 10000;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    ASSERT_EQ(res.slotRecords.size(), pts.size());
    for (const farm::SlotRecord &r : res.slotRecords)
        EXPECT_LT(r.endMs - r.startMs, 1000u) << r.desc;
    EXPECT_EQ(farmReport(res), sweepReport(pts));
}

TEST(Farm, HeartbeatsKeepALongLeaseAlive)
{
    // One point that simulates for many lease periods: only the
    // heartbeats sent while it runs keep its lease from expiring.
    // longPoint() simulates for about 1 s in the default RelWithDebInfo
    // build on a 4-vCPU x86-64 host, ten 100 ms leases; it outlives
    // its lease even on a host several times faster.
    const std::vector<sweep::SweepPoint> pts = {longPoint()};

    farm::FarmOptions opt;
    opt.workers = 1;
    opt.heartbeatMs = 10;
    opt.leaseMs = 100;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    ASSERT_EQ(res.slotRecords.size(), 1u);
    EXPECT_GT(res.slotRecords[0].simulateMs, opt.leaseMs)
        << "the point no longer outlives its lease";
    EXPECT_EQ(res.stats.leasesExpired, 0u);
    EXPECT_EQ(res.stats.retries, 0u);
    EXPECT_EQ(farmReport(res), sweepReport(pts));
}

TEST(Farm, DeterministicPointFailureFailsFast)
{
    // A point that keys fine but fails inside the simulator (malformed
    // sampling spec): the worker reports the structured error and the
    // farm must fail immediately with that diagnosis — not burn the
    // whole lease/retry budget re-simulating a deterministic failure.
    std::vector<sweep::SweepPoint> pts = smallPoints();
    pts[0].sample = "not-a-sample-spec";

    farm::FarmOptions opt;
    opt.workers = 2;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.code, ErrCode::BadConfig);
    EXPECT_EQ(res.stats.retries, 0u);
    EXPECT_EQ(res.stats.leasesExpired, 0u);
}

TEST(Farm, SecondRunIsServedFromStore)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string dir = tempDir("memo");

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.storeDir = dir;

    const farm::FarmResult first = farm::runFarm(pts, opt);
    ASSERT_TRUE(first.ok) << first.error.format();
    EXPECT_EQ(first.stats.storeHits, 0u);
    EXPECT_EQ(first.stats.simulated, first.stats.uniqueSlots);

    // The re-run must not simulate anything: every unique point is a
    // store hit, and the replayed bytes are verbatim.
    opt.resume = true;
    const farm::FarmResult second = farm::runFarm(pts, opt);
    ASSERT_TRUE(second.ok) << second.error.format();
    EXPECT_EQ(second.stats.storeHits, second.stats.uniqueSlots);
    EXPECT_EQ(second.stats.simulated, 0u);
    EXPECT_EQ(farmReport(second), farmReport(first));
    EXPECT_EQ(farmReport(second), sweepReport(pts));
}

// ------------------------------------------------ multi-cache group leases

/** Sampled geometry axis sharing one reference stream: 2 sizes x 2
 *  ways over one workload/mode/schedule. */
std::vector<sweep::SweepPoint>
geometryPoints()
{
    sweep::SweepGrid g;
    g.workloads = {"ora"};
    g.machines = {"inorder"};
    g.modes = {core::InformingMode::None};
    g.scale = 0.1;
    g.l1SizesBytes = {4096, 8192};
    g.l1Assocs = {1, 2};
    g.samples = {"2000:100:100"};
    return sweep::expandGrid(g);
}

TEST(FarmMultiCache, GroupLeaseMatchesSweepForAnyWorkerCount)
{
    const std::vector<sweep::SweepPoint> pts = geometryPoints();
    const std::string expect = sweepReport(pts);

    for (const unsigned workers : {1u, 2u}) {
        farm::FarmOptions opt;
        opt.workers = workers;
        opt.multiCache = true;
        const farm::FarmResult res = farm::runFarm(pts, opt);
        ASSERT_TRUE(res.ok) << res.error.format();
        // The whole axis collapses into one group lease.
        EXPECT_EQ(res.stats.multiCacheGroups, 1u);
        EXPECT_EQ(res.stats.pointsGrouped, pts.size());
        EXPECT_EQ(res.stats.uniqueSlots, 1u);
        ASSERT_EQ(res.slotRecords.size(), 1u);
        EXPECT_EQ(res.slotRecords[0].groupMembers, pts.size());
        EXPECT_EQ(res.slotRecords[0].groupConfigs, pts.size());
        EXPECT_EQ(farmReport(res), expect) << "workers=" << workers;
    }
}

TEST(FarmMultiCache, MixedGridLeavesIneligiblePointsDedicated)
{
    // A full-detail point rides along with the sampled geometry axis:
    // it must get its own per-point lease, and the merged report stays
    // byte-identical to the sweep over the mixed grid.
    std::vector<sweep::SweepPoint> pts = geometryPoints();
    sweep::SweepPoint full = pts[0];
    full.sample.clear();
    pts.push_back(full);

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.multiCache = true;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(res.stats.multiCacheGroups, 1u);
    EXPECT_EQ(res.stats.pointsGrouped, pts.size() - 1);
    EXPECT_EQ(res.stats.uniqueSlots, 2u);
    EXPECT_EQ(farmReport(res), sweepReport(pts));
}

TEST(FarmMultiCache, SecondRunIsServedFromStore)
{
    const std::vector<sweep::SweepPoint> pts = geometryPoints();
    const std::string dir = tempDir("mc_memo");

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.multiCache = true;
    opt.storeDir = dir;

    const farm::FarmResult first = farm::runFarm(pts, opt);
    ASSERT_TRUE(first.ok) << first.error.format();
    EXPECT_EQ(first.stats.storeHits, 0u);
    EXPECT_EQ(first.stats.simulated, first.stats.uniqueSlots);

    // The group bundle is one store record, keyed by the member list;
    // the re-run replays it without simulating.
    opt.resume = true;
    const farm::FarmResult second = farm::runFarm(pts, opt);
    ASSERT_TRUE(second.ok) << second.error.format();
    EXPECT_EQ(second.stats.storeHits, second.stats.uniqueSlots);
    EXPECT_EQ(second.stats.simulated, 0u);
    EXPECT_EQ(farmReport(second), farmReport(first));
    EXPECT_EQ(farmReport(second), sweepReport(pts));
}

TEST(FarmMultiCache, GroupKeyIsOrderAndMembershipSensitive)
{
    const auto groupKey = [](const std::vector<sweep::SweepPoint> &m) {
        farm::Task task;
        task.points = m;
        return farm::keyForTask(task).hex();
    };
    const std::vector<sweep::SweepPoint> pts = geometryPoints();
    const std::string whole = groupKey(pts);
    EXPECT_EQ(whole, groupKey(pts));

    std::vector<sweep::SweepPoint> fewer(pts.begin(), pts.end() - 1);
    EXPECT_NE(whole, groupKey(fewer));

    std::vector<sweep::SweepPoint> swapped = pts;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(whole, groupKey(swapped));

    // A group of one IS a whole point: one task, one record format.
    EXPECT_EQ(groupKey({pts[0]}), farm::keyForPoint(pts[0]).hex());
}

TEST(FarmMultiCache, RunawayGroupFallsBackInBothExecutors)
{
    // Two geometries of a program that runs past the 400M-instruction
    // budget: the shared pass fails with RunawayExecution, and both the
    // thread-pool sweep and the farm fall back to the dedicated path,
    // whose fragments report the runaway per point ("ok":false).
    // Cost: eight 400M-instruction functional passes, ~4.5 s each in a
    // Release build on one x86 core; the reference runs its two on two
    // jobs, so ~26 s wall (~5 min under ASan+UBSan).
    std::vector<sweep::SweepPoint> pts(2);
    for (std::size_t k = 0; k < pts.size(); ++k) {
        pts[k].machine = "inorder";
        pts[k].workload = "alvinn";
        pts[k].scale = 210;
        pts[k].l1SizeBytes = k ? 8192 : 4096;
        pts[k].sample = "9973:300:300";
    }
    ASSERT_EQ(sweep::planMultiCacheGroups(pts).size(), 1u);

    std::ostringstream dedicated;
    sweep::writeReportJson(dedicated, sweep::runSweep(pts, 2));
    const std::string expect = dedicated.str();
    EXPECT_NE(expect.find("\"ok\":false"), std::string::npos);

    sweep::MultiCache mc;
    std::ostringstream swept;
    sweep::writeReportJson(swept, sweep::runSweep(pts, 1, nullptr, nullptr,
                                                  nullptr, nullptr, &mc));
    EXPECT_EQ(swept.str(), expect);
    ASSERT_EQ(mc.groups.size(), 1u);
    EXPECT_FALSE(mc.groups[0].shared);

    farm::FarmOptions opt;
    opt.workers = 1;
    opt.multiCache = true;
    const farm::FarmResult res = farm::runFarm(pts, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(farmReport(res), expect);
}

// --------------------------------------------------------- wire protocol

/** A small multi-frame stream plus the frames it should parse into. */
std::vector<std::uint8_t>
sampleStream(std::vector<farm::Frame> *expect)
{
    farm::HelloMsg hello;
    hello.response = farm::authDigest("tok", 42);
    farm::ResultMsg result;
    result.slot = 7;
    result.fragment = {'{', '"', 'y', '"', ':', '2', '}'};

    const std::vector<std::vector<std::uint8_t>> frames = {
        farm::buildFrame(farm::FrameType::Hello,
                         farm::encodeHello(hello)),
        farm::buildFrame(farm::FrameType::Heartbeat,
                         farm::encodeHeartbeat(7)),
        farm::buildFrame(farm::FrameType::Result,
                         farm::encodeResult(result)),
        farm::buildFrame(farm::FrameType::Shutdown, {}),
    };
    const farm::FrameType types[] = {
        farm::FrameType::Hello, farm::FrameType::Heartbeat,
        farm::FrameType::Result, farm::FrameType::Shutdown};

    std::vector<std::uint8_t> stream;
    expect->clear();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        farm::Frame f;
        f.type = types[i];
        f.payload.assign(frames[i].begin() + static_cast<long>(
                             farm::frameHeaderBytes),
                         frames[i].end());
        expect->push_back(std::move(f));
        stream.insert(stream.end(), frames[i].begin(), frames[i].end());
    }
    return stream;
}

void
expectParsesTo(farm::FrameParser &parser,
               const std::vector<farm::Frame> &expect,
               std::size_t *next, const char *what)
{
    farm::Frame f;
    while (parser.next(&f)) {
        ASSERT_LT(*next, expect.size()) << what;
        EXPECT_EQ(f.type, expect[*next].type) << what;
        EXPECT_EQ(f.payload, expect[*next].payload) << what;
        ++*next;
    }
}

TEST(FarmProto, ParserReassemblesAtEveryBoundary)
{
    std::vector<farm::Frame> expect;
    const std::vector<std::uint8_t> stream = sampleStream(&expect);

    // Split the whole stream at every byte boundary: prefix then
    // suffix. Every cut — mid-magic, mid-length, mid-CRC, mid-payload —
    // must reassemble to the same four frames.
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        farm::FrameParser parser;
        std::size_t next = 0;
        if (cut > 0)
            parser.feed(stream.data(), cut);
        expectParsesTo(parser, expect, &next, "prefix");
        if (cut < stream.size())
            parser.feed(stream.data() + cut, stream.size() - cut);
        expectParsesTo(parser, expect, &next, "suffix");
        EXPECT_EQ(next, expect.size()) << "cut at " << cut;
        EXPECT_FALSE(parser.midFrame()) << "cut at " << cut;
    }
}

TEST(FarmProto, ParserReassemblesRandomFragments)
{
    std::vector<farm::Frame> expect;
    const std::vector<std::uint8_t> stream = sampleStream(&expect);

    Rng rng(0xf7a9u); // seeded: failures reproduce
    for (int round = 0; round < 200; ++round) {
        farm::FrameParser parser;
        std::size_t next = 0;
        std::size_t at = 0;
        while (at < stream.size()) {
            const std::size_t chunk = 1 +
                static_cast<std::size_t>(
                    rng.below(stream.size() - at));
            parser.feed(stream.data() + at, chunk);
            at += chunk;
            expectParsesTo(parser, expect, &next, "fragment");
        }
        EXPECT_EQ(next, expect.size()) << "round " << round;
        EXPECT_FALSE(parser.midFrame()) << "round " << round;
    }
}

TEST(FarmProto, AuthDigestKeysOnTokenAndNonce)
{
    // Deterministic for a given (token, nonce)...
    EXPECT_EQ(farm::authDigest("secret", 1),
              farm::authDigest("secret", 1));
    // ...and different under any change of either input.
    EXPECT_NE(farm::authDigest("secret", 1),
              farm::authDigest("secret", 2));
    EXPECT_NE(farm::authDigest("secret", 1),
              farm::authDigest("Secret", 1));
    EXPECT_NE(farm::authDigest("", 1), farm::authDigest("x", 1));
    // The length prefix keeps token/nonce boundaries unambiguous.
    EXPECT_NE(farm::authDigest("ab", 0), farm::authDigest("a", 0));
}

farm::LeaseMsg
roundTrip(const farm::LeaseMsg &msg)
{
    return farm::decodeLease(farm::encodeLease(msg));
}

void
expectGarbage(const farm::Task &task, const char *what)
{
    try {
        (void)roundTrip(farm::LeaseMsg{1, task});
        ADD_FAILURE() << "decoded a malformed lease: " << what;
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkerLost) << what;
    }
}

TEST(FarmProto, LeaseRoundTripsEveryTaskShape)
{
    farm::LeaseMsg one;
    one.slot = 3;
    one.task.points = {smallPoints()[1]};
    const farm::LeaseMsg one_back = roundTrip(one);
    EXPECT_EQ(one_back.slot, 3u);
    EXPECT_EQ(one_back.task, one.task);

    farm::LeaseMsg many;
    many.slot = 4;
    many.task.points = geometryPoints();
    EXPECT_EQ(roundTrip(many).task, many.task);

    farm::LeaseMsg window;
    window.slot = 5;
    window.task.kind = farm::Task::Kind::Window;
    window.task.points = {geometryPoints()[0]};
    window.task.windowIndex = 7;
    window.task.libraryHash = 0xabcdef;
    window.task.warmImage = {1, 2, 3};
    window.task.execImage = {4, 5};
    const farm::LeaseMsg window_back = roundTrip(window);
    EXPECT_EQ(window_back.slot, 5u);
    EXPECT_EQ(window_back.task, window.task);
}

TEST(FarmProto, MalformedTasksAreRejectedAsGarbage)
{
    const sweep::SweepPoint p = smallPoints()[0];

    farm::Task points;
    expectGarbage(points, "points task without points");
    points.points = {p};
    points.windowIndex = 1;
    expectGarbage(points, "points task with a window index");
    points.windowIndex = 0;
    points.libraryHash = 1;
    expectGarbage(points, "points task with a library hash");
    points.libraryHash = 0;
    points.warmImage = {1};
    expectGarbage(points, "points task with a warm image");
    points.warmImage.clear();
    points.execImage = {1};
    expectGarbage(points, "points task with an executor image");

    farm::Task window;
    window.kind = farm::Task::Kind::Window;
    window.warmImage = {1};
    window.execImage = {2};
    expectGarbage(window, "window task without a point");
    window.points = {p, p};
    expectGarbage(window, "window task with two points");
    window.points = {p};
    window.warmImage.clear();
    expectGarbage(window, "window task without a warm image");
    window.warmImage = {1};
    window.execImage.clear();
    expectGarbage(window, "window task without an executor image");

    farm::Task unknown;
    unknown.kind = static_cast<farm::Task::Kind>(2);
    unknown.points = {p};
    expectGarbage(unknown, "unknown task kind");

    // A member count the payload cannot hold is garbage, never a huge
    // allocation: in a lease and in a result bundle alike.
    const auto impossibleCount = [](const char *section, bool lease) {
        Serializer s;
        s.beginSection(section);
        if (lease) {
            s.u64(1); // slot
            s.u8(0);  // Points
        }
        s.u32(0xffffffffu);
        s.endSection();
        return s.finish();
    };
    try {
        (void)farm::decodeLease(impossibleCount("lease", true));
        ADD_FAILURE() << "decoded a lease of 2^32-1 points";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkerLost);
    }
    try {
        (void)farm::decodeFragmentBundle(impossibleCount("bundle", false));
        ADD_FAILURE() << "decoded a bundle of 2^32-1 fragments";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::WorkerLost);
    }
}

TEST(FarmProto, V5PeerIsRejectedAtAdmission)
{
    // Coordinator side: a peer that answers the challenge as protocol
    // v5, with the right token, gets a structured AuthReject and never
    // a lease. Nobody else joins, so the min-workers watchdog ends the
    // farm after one lease period, which leaves the peer ample time to
    // be rejected even on a loaded host.
    farm::FarmOptions opt;
    opt.workers = 0;
    opt.listen = true;
    opt.token = "hunter2";
    opt.leaseMs = 2'000;
    opt.heartbeatMs = 50;
    std::promise<std::uint16_t> port_promise;
    std::shared_future<std::uint16_t> port =
        port_promise.get_future().share();
    opt.onListen = [&port_promise](std::uint16_t p) {
        port_promise.set_value(p);
    };
    farm::Frame reply;
    std::thread peer([&reply, port] {
        try {
            const int fd = farm::connectTcp("127.0.0.1", port.get(), 2'000);
            farm::Frame challenge;
            if (farm::readFrame(fd, &challenge)) {
                farm::HelloMsg hello;
                hello.protoVersion = 5;
                hello.response = farm::authDigest(
                    "hunter2",
                    farm::decodeChallenge(challenge.payload).nonce);
                farm::writeFrame(fd, farm::FrameType::Hello,
                                 farm::encodeHello(hello));
                farm::readFrame(fd, &reply);
            }
            ::close(fd);
        } catch (const SimException &) {
        }
    });
    const farm::FarmResult res = farm::runFarm(smallPoints(), opt);
    peer.join();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.stats.authFailures, 1u);
    ASSERT_EQ(reply.type, farm::FrameType::AuthReject);
    EXPECT_EQ(farm::decodeError(reply.payload).error.code,
              ErrCode::AuthFailed);

    // Worker side: a v5 coordinator's challenge is refused the same way.
    int to_worker[2], from_worker[2];
    ASSERT_EQ(::pipe(to_worker), 0);
    ASSERT_EQ(::pipe(from_worker), 0);
    farm::ChallengeMsg challenge;
    challenge.protoVersion = 5;
    farm::writeFrame(to_worker[1], farm::FrameType::Challenge,
                     farm::encodeChallenge(challenge));
    FaultInjector inject{FaultSchedule{}};
    try {
        farm::serveSession(to_worker[0], from_worker[1],
                           farm::SessionParams{}, inject, nullptr);
        ADD_FAILURE() << "a v6 worker served a v5 coordinator";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::AuthFailed);
    }
    for (const int fd : {to_worker[0], to_worker[1], from_worker[0],
                         from_worker[1]})
        ::close(fd);
}

TEST(Farm, RejectsBadHeartbeatTimers)
{
    // Zero heartbeat, and a heartbeat that cannot keep a lease alive:
    // both are BadConfig naming the flags, not mysterious lease churn.
    farm::FarmOptions opt;
    opt.heartbeatMs = 0;
    try {
        farm::runFarm(smallPoints(), opt);
        FAIL() << "expected BadConfig for heartbeat 0";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }

    opt.heartbeatMs = 1000;
    opt.leaseMs = 1000;
    try {
        farm::runFarm(smallPoints(), opt);
        FAIL() << "expected BadConfig for heartbeat >= lease";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
        EXPECT_NE(e.error().message.find("--heartbeat-ms"),
                  std::string::npos);
        EXPECT_NE(e.error().message.find("--lease-ms"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------- TCP farms

/**
 * In-process TCP farm: the coordinator listens on an ephemeral
 * loopback port with zero local workers (no fork in a threaded test
 * binary), and imo-worker sessions run as plain threads — the same
 * runWorker() the daemon binary wraps.
 */
struct TcpWorker
{
    std::string token = "hunter2";
    std::uint64_t startDelayMs = 0;
    unsigned maxRetries = 400;
    FaultSchedule faults;
    SimError result;
};

farm::FarmResult
runTcpFarm(const std::vector<sweep::SweepPoint> &pts,
           farm::FarmOptions &opt, std::vector<TcpWorker> &workers)
{
    opt.workers = 0;
    opt.listen = true;
    std::promise<std::uint16_t> port_promise;
    std::shared_future<std::uint16_t> port =
        port_promise.get_future().share();
    opt.onListen = [&port_promise](std::uint16_t p) {
        port_promise.set_value(p);
    };

    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (TcpWorker &w : workers) {
        threads.emplace_back([&w, port] {
            if (w.startDelayMs)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(w.startDelayMs));
            farm::WorkerOptions o;
            o.port = port.get();
            o.token = w.token;
            o.heartbeatMs = 50;
            o.backoffBaseMs = 5;
            o.backoffCapMs = 50;
            o.maxRetries = w.maxRetries;
            o.connectTimeoutMs = 2'000;
            o.faults = w.faults;
            w.result = farm::runWorker(o);
        });
    }
    const farm::FarmResult res = farm::runFarm(pts, opt);
    for (std::thread &t : threads)
        t.join();
    return res;
}

TEST(FarmTcp, ReportMatchesSweep)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string expect = sweepReport(pts);

    farm::FarmOptions opt;
    opt.token = "hunter2";
    std::vector<TcpWorker> workers(2);
    const farm::FarmResult res = runTcpFarm(pts, opt, workers);

    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(res.stats.remotesAdmitted, 2u);
    EXPECT_EQ(res.stats.authFailures, 0u);
    EXPECT_EQ(farmReport(res), expect);
    for (const TcpWorker &w : workers)
        EXPECT_TRUE(w.result.ok()) << w.result.format();
}

TEST(FarmTcp, LateJoiningWorkerGetsIdenticalBytes)
{
    // The long point goes first, so the early worker is still busy
    // with it when the late one joins and takes the small points,
    // however short a lease is.
    std::vector<sweep::SweepPoint> pts = {longPoint()};
    for (const sweep::SweepPoint &p : smallPoints())
        pts.push_back(p);
    const std::string expect = sweepReport(pts);

    farm::FarmOptions opt;
    opt.token = "hunter2";
    std::vector<TcpWorker> workers(2);
    workers[1].startDelayMs = 250;
    // Should the farm be gone anyway, fail fast rather than retry.
    workers[1].maxRetries = 3;

    const farm::FarmResult res = runTcpFarm(pts, opt, workers);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(res.stats.remotesAdmitted, 2u);
    EXPECT_EQ(farmReport(res), expect);
    // The small points finished while the early worker still ran the
    // long one: the late worker leased them.
    ASSERT_EQ(res.slotRecords.size(), pts.size());
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LT(res.slotRecords[i].endMs, res.slotRecords[0].endMs)
            << res.slotRecords[i].desc;
    for (const TcpWorker &w : workers)
        EXPECT_TRUE(w.result.ok()) << w.result.format();
}

TEST(FarmTcp, WrongTokenIsRejectedNotRetried)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string expect = sweepReport(pts);

    farm::FarmOptions opt;
    opt.token = "hunter2";
    std::vector<TcpWorker> workers(2);
    workers[1].token = "wrong-token";

    const farm::FarmResult res = runTcpFarm(pts, opt, workers);
    ASSERT_TRUE(res.ok) << res.error.format();

    // The farm completed on the authenticated worker alone, and the
    // impostor got a structured final rejection instead of a
    // reconnect loop.
    EXPECT_GE(res.stats.authFailures, 1u);
    EXPECT_EQ(farmReport(res), expect);
    EXPECT_TRUE(workers[0].result.ok()) << workers[0].result.format();
    EXPECT_EQ(workers[1].result.code, ErrCode::AuthFailed)
        << workers[1].result.format();
}

TEST(FarmTcp, MinWorkersFailsStructuredInsteadOfHanging)
{
    farm::FarmOptions opt;
    opt.leaseMs = 400; // the watchdog grace period
    opt.heartbeatMs = 50;
    std::vector<TcpWorker> workers; // nobody ever connects

    const farm::FarmResult res =
        runTcpFarm(smallPoints(), opt, workers);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.code, ErrCode::WorkerLost);
    EXPECT_NE(res.error.message.find("--min-workers"),
              std::string::npos)
        << res.error.format();
}

/** Network chaos: under each socket-level fault the farm must converge
 *  via drop/reconnect/retry to byte-identical output. */
class FarmTcpChaos : public ::testing::TestWithParam<FaultPoint>
{
};

TEST_P(FarmTcpChaos, ReportSurvivesNetworkFault)
{
    const std::vector<sweep::SweepPoint> pts = smallPoints();
    const std::string expect = sweepReport(pts);

    farm::FarmOptions opt;
    opt.token = "hunter2";
    opt.leaseMs = 1500;
    opt.heartbeatMs = 50;
    opt.backoffBaseMs = 5;
    opt.backoffCapMs = 50;
    opt.maxAttempts = 30;

    // conn-drop and conn-stutter draw on every send: Stats and Result
    // once per lease, plus a heartbeat only while a point outlives
    // heartbeatMs, which these tiny points never do. handshake-corrupt
    // draws once per Hello. Either worker may do all the work, so each
    // probability makes the fault fire on the first lease (or Hello) of
    // both workers under seeds 21 and 22.
    double prob = 0.5;
    if (GetParam() == FaultPoint::ConnDrop)
        prob = 0.6;
    else if (GetParam() == FaultPoint::HandshakeCorrupt)
        prob = 0.8;
    std::vector<TcpWorker> workers(2);
    for (std::size_t i = 0; i < workers.size(); ++i) {
        workers[i].faults.seed = 21 + i;
        workers[i].faults.setProbability(GetParam(), prob);
        // A worker still reconnecting when the farm finishes gives up
        // after this budget instead of the default's 20 s.
        workers[i].maxRetries = 20;
    }

    const farm::FarmResult res = runTcpFarm(pts, opt, workers);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(farmReport(res), expect)
        << "fault " << faultPointName(GetParam());

    // A dropped connection and a corrupted Hello each cost the
    // coordinator a peer. A stuttered frame reassembles to the same
    // bytes and leaves no counter behind; the FarmProto reassembly
    // tests pin that path down deterministically.
    if (GetParam() != FaultPoint::ConnStutter) {
        EXPECT_GT(res.stats.retries + res.stats.workersLost, 0u)
            << "fault " << faultPointName(GetParam()) << " never fired";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworkFaults, FarmTcpChaos,
    ::testing::Values(FaultPoint::ConnDrop, FaultPoint::ConnStutter,
                      FaultPoint::HandshakeCorrupt),
    [](const ::testing::TestParamInfo<FaultPoint> &info) {
        std::string name = faultPointName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Farm, StopFlagInterruptsCleanly)
{
    // A pre-raised stop flag: the farm must shut down before leasing
    // anything and surface a structured Interrupted error.
    static volatile std::sig_atomic_t stop = 1;
    farm::FarmOptions opt;
    opt.workers = 2;
    const farm::FarmResult res = farm::runFarm(smallPoints(), opt, &stop);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error.code, ErrCode::Interrupted);
    EXPECT_EQ(res.stats.simulated, 0u);
    EXPECT_TRUE(res.fragments.empty());
}

// ------------------------------------------------------ window sharding

/** A sampled point small enough to window-farm in-process: ora at
 *  scale 0.1 under a dense 499:100:100 schedule (9 windows). */
sweep::SweepPoint
sampledPoint()
{
    sweep::SweepPoint p;
    p.machine = "inorder";
    p.workload = "ora";
    p.handlerLen = 1;
    p.scale = 0.1;
    p.sample = "499:100:100";
    return p;
}

/** Capture the point's live-point library, content hash stamped. */
std::shared_ptr<const sample::LivePointLibrary>
captureLibrary(const sweep::SweepPoint &point)
{
    std::shared_ptr<const sample::LivePointLibrary> captured;
    const sweep::SweepOutcome out =
        sweep::runPoint(point, nullptr, &captured);
    EXPECT_TRUE(out.estimate.ok) << out.estimate.error.message;
    EXPECT_NE(captured, nullptr);
    sample::LivePointLibrary lib = *captured;
    sample::serializeLibrary(lib); // stamp contentHash
    return std::make_shared<const sample::LivePointLibrary>(
        std::move(lib));
}

/** Store key of window @p w of the library hashing to @p hash. */
farm::PointKey
windowKey(const sweep::SweepPoint &p, std::uint64_t hash, std::uint64_t w)
{
    farm::Task task;
    task.kind = farm::Task::Kind::Window;
    task.points = {p};
    task.windowIndex = w;
    task.libraryHash = hash;
    return farm::keyForTask(task);
}

TEST(FarmWindowKey, DistinctPerWindowAndNeverAliasesAPointKey)
{
    const sweep::SweepPoint p = sampledPoint();
    const std::uint64_t hash = 0xfeedfacecafef00dull;

    const farm::PointKey w0 = windowKey(p, hash, 0);
    EXPECT_EQ(w0, windowKey(p, hash, 0));
    EXPECT_EQ(w0.programHash, hash);

    // Every window of a library is its own unit of work.
    const farm::PointKey w1 = windowKey(p, hash, 1);
    EXPECT_NE(w0.configHash, w1.configHash);

    // A different library (schedule, capture config, program...) never
    // shares records even for the same window index.
    EXPECT_NE(w0, windowKey(p, hash + 1, 0));

    // The task kind keeps shard records disjoint from the whole-point
    // records of the same point.
    EXPECT_NE(w0.configHash, farm::keyForPoint(p).configHash);

    // And the config side is sensitive to timing-only overrides the
    // library deliberately ignores: one library, distinct records per
    // swept configuration.
    sweep::SweepPoint tweaked = p;
    tweaked.l2Latency = 99;
    EXPECT_NE(w0.configHash,
              windowKey(tweaked, hash, 0).configHash);
}

TEST(FarmWindows, ReportMatchesSweepForAnyWorkerCount)
{
    const sweep::SweepPoint p = sampledPoint();
    const std::string expect = sweepReport({p});
    const auto lib = captureLibrary(p);
    ASSERT_GT(lib->points.size(), 1u);

    for (const unsigned workers : {1u, 3u}) {
        farm::FarmOptions opt;
        opt.workers = workers;
        const farm::FarmResult res =
            farm::runFarmWindows(p, lib, opt);
        ASSERT_TRUE(res.ok) << res.error.format();
        EXPECT_EQ(res.stats.points, lib->points.size());
        EXPECT_EQ(res.stats.uniqueSlots, lib->points.size());
        EXPECT_EQ(res.stats.simulated, lib->points.size());
        ASSERT_EQ(res.fragments.size(), 1u);
        EXPECT_EQ(farmReport(res), expect) << "workers=" << workers;
    }
}

TEST(FarmWindows, SecondRunIsServedFromStore)
{
    const sweep::SweepPoint p = sampledPoint();
    const auto lib = captureLibrary(p);
    const std::string dir = tempDir("windows");

    farm::FarmOptions opt;
    opt.workers = 2;
    opt.storeDir = dir;

    const farm::FarmResult first = farm::runFarmWindows(p, lib, opt);
    ASSERT_TRUE(first.ok) << first.error.format();
    EXPECT_EQ(first.stats.storeHits, 0u);
    EXPECT_EQ(first.stats.simulated, lib->points.size());

    // The re-run simulates nothing: every window is a store hit, and
    // the folded report is verbatim.
    opt.resume = true;
    const farm::FarmResult second = farm::runFarmWindows(p, lib, opt);
    ASSERT_TRUE(second.ok) << second.error.format();
    EXPECT_EQ(second.stats.storeHits, lib->points.size());
    EXPECT_EQ(second.stats.simulated, 0u);
    EXPECT_EQ(farmReport(second), farmReport(first));
    EXPECT_EQ(farmReport(second), sweepReport({p}));
}

TEST(FarmWindows, RejectsUnsampledPointAndForeignLibrary)
{
    const sweep::SweepPoint p = sampledPoint();
    const auto lib = captureLibrary(p);
    farm::FarmOptions opt;
    opt.workers = 1;

    // A full-detail point has no windows to shard.
    sweep::SweepPoint full = p;
    full.sample.clear();
    try {
        farm::runFarmWindows(full, lib, opt);
        FAIL() << "expected BadConfig for an unsampled point";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }

    // A library captured for another schedule must be refused before
    // any worker is spawned.
    sweep::SweepPoint other = p;
    other.sample = "499:100:150";
    try {
        farm::runFarmWindows(other, lib, opt);
        FAIL() << "expected BadConfig for a mismatched library";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }
}

TEST(FarmWindows, ReportSurvivesWorkerChaos)
{
    const sweep::SweepPoint p = sampledPoint();
    const auto lib = captureLibrary(p);
    const std::string expect = sweepReport({p});

    farm::FarmOptions opt;
    opt.workers = 3;
    opt.leaseMs = 4'000;
    opt.backoffBaseMs = 1;
    opt.faults.seed = 7;
    opt.faults.setProbability(FaultPoint::WorkerKill, 0.3);

    const farm::FarmResult res = farm::runFarmWindows(p, lib, opt);
    ASSERT_TRUE(res.ok) << res.error.format();
    EXPECT_EQ(farmReport(res), expect);
}

} // anonymous namespace
