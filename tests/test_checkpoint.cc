/**
 * @file
 * Checkpoint/restore tests: a run resumed from a mid-run image must be
 * bit-identical to an uninterrupted one — for both CPU models and the
 * coherence machine, with fault injection live — and a damaged or
 * mismatched checkpoint must surface as a structured BadCheckpoint
 * error, never a crash or a silently diverging restore.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/rng.hh"
#include "core/informing.hh"
#include "func/datamem.hh"
#include "coherence/machine.hh"
#include "obs/observer.hh"
#include "pipeline/simulate.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;

// ---------------------------------------------------------------------
// Container layer.

std::vector<std::uint8_t>
tinyImage()
{
    Serializer s;
    s.beginSection("alpha");
    s.u64(0x1122334455667788ull);
    s.str("payload");
    s.endSection();
    s.beginSection("beta");
    s.u32(7);
    s.endSection();
    return s.finish();
}

TEST(Container, RoundTrip)
{
    Deserializer d(tinyImage());
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_TRUE(d.hasSection("beta"));
    EXPECT_FALSE(d.hasSection("gamma"));
    d.openSection("alpha");
    EXPECT_EQ(d.u64(), 0x1122334455667788ull);
    EXPECT_EQ(d.str(), "payload");
    d.closeSection();
    d.openSection("beta");
    EXPECT_EQ(d.u32(), 7u);
    d.closeSection();
}

TEST(Container, CorruptedPayloadIsRejected)
{
    std::vector<std::uint8_t> image = tinyImage();
    image[image.size() - 3] ^= 0x40;  // flip a payload bit
    try {
        Deserializer d(std::move(image));
        FAIL() << "corrupted image accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(Container, TruncationIsRejectedAtEveryLength)
{
    const std::vector<std::uint8_t> image = tinyImage();
    for (std::size_t len = 0; len < image.size(); len += 7) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + len);
        try {
            Deserializer d(std::move(cut));
            FAIL() << "truncated image of " << len << " bytes accepted";
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
        }
    }
}

TEST(Container, BadMagicIsRejected)
{
    std::vector<std::uint8_t> image = tinyImage();
    image[0] = 'X';
    try {
        Deserializer d(std::move(image));
        FAIL() << "bad magic accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(Container, RandomBitFlipsNeverEscapeBadCheckpoint)
{
    // Hostile-input fuzz: any single flipped bit must either be caught
    // (structured BadCheckpoint) or land in a spot that leaves the
    // image readable (e.g. a section-name byte, making that section
    // unfindable). Nothing may crash, over-allocate, or surface as a
    // foreign exception type.
    const std::vector<std::uint8_t> clean = tinyImage();
    std::mt19937_64 rng(12345);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::uint8_t> image = clean;
        const std::size_t byte = rng() % image.size();
        image[byte] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        try {
            Deserializer d(std::move(image));
            if (!d.hasSection("alpha"))
                continue; // name byte flipped; structurally fine
            d.openSection("alpha");
            d.u64();
            d.str();
            d.closeSection();
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint)
                << "iteration " << iter;
        }
        // Any other exception type propagates and fails the test.
    }
}

TEST(Container, OversizedStringLengthIsRejectedBeforeAllocation)
{
    // A hostile 4GB string-length prefix must produce a structured
    // error from the remaining-bytes check, not an allocation spike.
    Serializer s;
    s.beginSection("hostile");
    s.u32(0xffffffffu); // claims ~4GB of string payload
    s.u8(0);
    s.endSection();
    Deserializer d(s.finish());
    d.openSection("hostile");
    try {
        (void)d.str();
        FAIL() << "oversized string length accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(Container, OversizedVectorCountIsRejectedBeforeAllocation)
{
    // Same for a u64 element count far past the payload size.
    Serializer s;
    s.beginSection("hostile");
    s.u64(0x2000000000000000ull); // 2^61 elements
    s.endSection();
    Deserializer d(s.finish());
    d.openSection("hostile");
    try {
        (void)d.vecU64();
        FAIL() << "oversized vector count accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(Container, HostileSectionCountIsRejected)
{
    // The header's section count is attacker-controlled too: a count
    // that promises more sections than the file can hold must fail
    // framing validation up front.
    std::vector<std::uint8_t> image = tinyImage();
    // Header layout: 8-byte magic, u32 version, u32 section count.
    image[12] = 0xff;
    image[13] = 0xff;
    image[14] = 0xff;
    image[15] = 0x7f;
    try {
        Deserializer d(std::move(image));
        FAIL() << "hostile section count accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

// ---------------------------------------------------------------------
// DataMemory's two-entry page cache: values across page rotation and
// across restore.

TEST(DataMemory, PageCacheKeepsValuesAcrossPageRotation)
{
    // Three pages in rotation overflow the two cache entries on every
    // step; two alternating pages (a loop streaming two arrays) hit.
    func::DataMemory mem;
    const Addr pages[3] = {0x1000, 0x9000, 0x40000};
    for (std::uint64_t i = 0; i < 64; ++i) {
        const Addr a = pages[i % 3] + (i / 3) * 8;
        mem.write64(a, i + 1);
        EXPECT_EQ(mem.read64(pages[(i + 1) % 3] + 4088), 0u);
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
        const Addr a = pages[i % 3] + (i / 3) * 8;
        EXPECT_EQ(mem.read64(a), i + 1);
        EXPECT_EQ(mem.read64(pages[i % 2]), i % 2 ? 2u : 1u);
    }
    // A read of a page never written allocates nothing and caches
    // nothing: the next write to it must still allocate the page.
    EXPECT_EQ(mem.read64(0x70000), 0u);
    EXPECT_EQ(mem.residentPages(), 3u);
    mem.write64(0x70000, 7);
    EXPECT_EQ(mem.residentPages(), 4u);
    EXPECT_EQ(mem.read64(0x70000), 7u);
}

TEST(DataMemory, RestoreDropsThePageCache)
{
    func::DataMemory mem;
    mem.write64(0x1000, 111); // allocates page 1 and primes the cache
    mem.write64(0x5000, 555); // fills the second cache entry

    Serializer s;
    s.beginSection("mem");
    mem.save(s); // snapshot holds 0x1000 == 111
    s.endSection();
    const std::vector<std::uint8_t> image = s.finish();

    // Overwrite through the cached-page fast path, then restore the
    // snapshot. A stale cache entry would expose the overwritten value
    // (or chase a dangling pointer into the cleared page map) on the
    // next read.
    mem.write64(0x1000, 222);
    mem.write64(0x5000, 666);
    Deserializer d(image);
    d.openSection("mem");
    mem.restore(d);
    d.closeSection();
    EXPECT_EQ(mem.read64(0x1000), 111u);
    EXPECT_EQ(mem.read64(0x5000), 555u);

    // Restoring an image with no pages at all must drop the cache too:
    // the next read sees zero-fill, not the old page contents.
    func::DataMemory fresh;
    Serializer s2;
    s2.beginSection("mem");
    fresh.save(s2);
    s2.endSection();
    mem.write64(0x1000, 333); // re-prime the cache
    Deserializer d2(s2.finish());
    d2.openSection("mem");
    mem.restore(d2);
    d2.closeSection();
    EXPECT_EQ(mem.residentPages(), 0u);
    EXPECT_EQ(mem.read64(0x1000), 0u);
}

// ---------------------------------------------------------------------
// Full-machine bit identity, both CPU models, faults live.

isa::Program
testProgram()
{
    const auto base = workloads::build(
        "compress", {.scale = 0.08, .seed = 3});
    return core::instrument(base, core::InformingMode::TrapSingle,
                            {.length = 6});
}

FaultSchedule
noisySchedule()
{
    FaultSchedule sched;
    sched.seed = 11;
    sched.memLatencySpike = 0.01;
    sched.mispredictStorm = 0.02;
    return sched;
}

void
expectSameResult(const pipeline::RunResult &a,
                 const pipeline::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.handlerInstructions, b.handlerInstructions);
    EXPECT_EQ(a.cacheStallSlots, b.cacheStallSlots);
    EXPECT_EQ(a.otherStallSlots, b.otherStallSlots);
    EXPECT_EQ(a.dataRefs, b.dataRefs);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.mshrFullRejects, b.mshrFullRejects);
    EXPECT_EQ(a.bankConflicts, b.bankConflicts);
    EXPECT_EQ(a.squashInvalidations, b.squashInvalidations);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
}

class CpuModelCheckpoint : public ::testing::TestWithParam<bool>
{
  protected:
    pipeline::MachineConfig
    machine(FaultInjector *faults) const
    {
        pipeline::MachineConfig m = GetParam()
            ? pipeline::makeOutOfOrderConfig()
            : pipeline::makeInOrderConfig();
        m.faults = faults;
        return m;
    }
};

TEST_P(CpuModelCheckpoint, ResumeIsBitIdentical)
{
    const isa::Program prog = testProgram();
    constexpr std::uint64_t every = 2000;

    // Uninterrupted run, collecting every periodic image.
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::uint64_t> marks;
    pipeline::SimulateOptions opt;
    opt.checkpointEvery = every;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t retired) {
        images.push_back(img);
        marks.push_back(retired);
    };
    FaultInjector f1(noisySchedule());
    const pipeline::RunResult full =
        pipeline::simulate(prog, machine(&f1), opt);
    ASSERT_TRUE(full.ok) << full.error.format();
    ASSERT_GE(images.size(), 2u) << "program too short for the test";

    // Resume from a mid-run image; later images and the final result
    // must match the uninterrupted run byte for byte.
    const std::size_t pick = images.size() / 2;
    std::vector<std::vector<std::uint8_t>> reimages;
    std::vector<std::uint64_t> remarks;
    pipeline::SimulateOptions ropt;
    ropt.checkpointEvery = every;
    ropt.resumeImage = &images[pick];
    ropt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                            std::uint64_t retired) {
        reimages.push_back(img);
        remarks.push_back(retired);
    };
    FaultInjector f2(noisySchedule());
    const pipeline::RunResult resumed =
        pipeline::simulate(prog, machine(&f2), ropt);
    ASSERT_TRUE(resumed.ok) << resumed.error.format();
    EXPECT_EQ(resumed.resumedInstructions, marks[pick]);

    expectSameResult(full, resumed);
    ASSERT_EQ(reimages.size(), images.size() - pick - 1);
    for (std::size_t i = 0; i < reimages.size(); ++i) {
        EXPECT_EQ(remarks[i], marks[pick + 1 + i]);
        EXPECT_EQ(reimages[i], images[pick + 1 + i])
            << "image at mark " << remarks[i] << " diverged";
    }
}

TEST_P(CpuModelCheckpoint, ResumedStatsAreBitIdentical)
{
    // The full stats registry (counters, averages, histograms) rides
    // in the checkpoint: a resumed run's captured stats report must be
    // byte-for-byte the uninterrupted run's — text and JSON alike.
    const isa::Program prog = testProgram();
    constexpr std::uint64_t every = 2000;

    std::vector<std::vector<std::uint8_t>> images;
    pipeline::SimulateOptions opt;
    opt.checkpointEvery = every;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t) { images.push_back(img); };
    FaultInjector f1(noisySchedule());
    obs::Observer full_obs;
    pipeline::MachineConfig m1 = machine(&f1);
    m1.obs = &full_obs;
    const pipeline::RunResult full = pipeline::simulate(prog, m1, opt);
    ASSERT_TRUE(full.ok) << full.error.format();
    ASSERT_GE(images.size(), 2u) << "program too short for the test";
    ASSERT_FALSE(full_obs.statsJson.empty());

    pipeline::SimulateOptions ropt;
    ropt.resumeImage = &images[images.size() / 2];
    FaultInjector f2(noisySchedule());
    obs::Observer resumed_obs;
    pipeline::MachineConfig m2 = machine(&f2);
    m2.obs = &resumed_obs;
    const pipeline::RunResult resumed =
        pipeline::simulate(prog, m2, ropt);
    ASSERT_TRUE(resumed.ok) << resumed.error.format();

    EXPECT_EQ(full_obs.statsText, resumed_obs.statsText);
    EXPECT_EQ(full_obs.statsJson, resumed_obs.statsJson);
}

TEST_P(CpuModelCheckpoint, ProgramMismatchIsRejected)
{
    const isa::Program prog = testProgram();
    pipeline::SimulateOptions opt;
    std::vector<std::uint8_t> image;
    opt.checkpointEvery = 2000;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t) { image = img; };
    ASSERT_TRUE(pipeline::simulate(prog, machine(nullptr), opt).ok);
    ASSERT_FALSE(image.empty());

    const auto other = core::instrument(
        workloads::build("eqntott", {.scale = 0.08, .seed = 3}),
        core::InformingMode::None, {});
    pipeline::SimulateOptions ropt;
    ropt.resumeImage = &image;
    const pipeline::RunResult r =
        pipeline::simulate(other, machine(nullptr), ropt);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadCheckpoint);
}

TEST_P(CpuModelCheckpoint, FaultAttachmentMismatchIsRejected)
{
    const isa::Program prog = testProgram();
    pipeline::SimulateOptions opt;
    std::vector<std::uint8_t> image;
    opt.checkpointEvery = 2000;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t) { image = img; };
    FaultInjector f1(noisySchedule());
    ASSERT_TRUE(pipeline::simulate(prog, machine(&f1), opt).ok);
    ASSERT_FALSE(image.empty());

    // Image carries injector state; resuming without one must fail.
    pipeline::SimulateOptions ropt;
    ropt.resumeImage = &image;
    const pipeline::RunResult r =
        pipeline::simulate(prog, machine(nullptr), ropt);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadCheckpoint);
}

TEST_P(CpuModelCheckpoint, CorruptedImageIsAStructuredError)
{
    const isa::Program prog = testProgram();
    pipeline::SimulateOptions opt;
    std::vector<std::uint8_t> image;
    opt.checkpointEvery = 2000;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t) { image = img; };
    ASSERT_TRUE(pipeline::simulate(prog, machine(nullptr), opt).ok);
    ASSERT_FALSE(image.empty());

    image[image.size() / 2] ^= 0xff;
    pipeline::SimulateOptions ropt;
    ropt.resumeImage = &image;
    const pipeline::RunResult r =
        pipeline::simulate(prog, machine(nullptr), ropt);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadCheckpoint);
}

INSTANTIATE_TEST_SUITE_P(Models, CpuModelCheckpoint, ::testing::Bool());

// ---------------------------------------------------------------------
// Crash reproducer: a failing run emits an image from which the
// failure replays deterministically.

TEST(CrashReproducer, ResumeReplaysTheFailure)
{
    const isa::Program prog = testProgram();
    FaultSchedule sched;
    sched.seed = 5;
    sched.hardFault = 0.02;

    const std::string path = "test_checkpoint_repro.ckpt";
    pipeline::SimulateOptions opt;
    opt.checkpointEvery = 1000;
    opt.checkpointOut = path;

    FaultInjector f1(sched);
    pipeline::MachineConfig m1 = pipeline::makeOutOfOrderConfig();
    m1.faults = &f1;
    const pipeline::RunResult r1 = pipeline::simulate(prog, m1, opt);
    ASSERT_FALSE(r1.ok);
    ASSERT_EQ(r1.error.code, ErrCode::FaultInjected);

    // The reproducer on disk replays the same failure.
    pipeline::SimulateOptions ropt;
    ropt.checkpointIn = path;
    FaultInjector f2(sched);
    pipeline::MachineConfig m2 = pipeline::makeOutOfOrderConfig();
    m2.faults = &f2;
    const pipeline::RunResult r2 = pipeline::simulate(prog, m2, ropt);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error.code, ErrCode::FaultInjected);

    std::remove(path.c_str());
}

TEST(CrashReproducer, MissingFileIsAStructuredError)
{
    pipeline::SimulateOptions opt;
    opt.checkpointIn = "no-such-checkpoint-file.ckpt";
    const pipeline::RunResult r = pipeline::simulate(
        testProgram(), pipeline::makeInOrderConfig(), opt);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrCode::BadCheckpoint);
}

// ---------------------------------------------------------------------
// Coherence machine bit identity.

coherence::ParallelWorkload
randomWorkload(std::uint32_t procs, int refs_per_proc, std::uint64_t seed)
{
    Rng rng(seed);
    coherence::ParallelWorkload wl;
    wl.name = "ckpt-random";
    for (std::uint32_t p = 0; p < procs; ++p) {
        std::vector<coherence::TraceItem> s;
        for (int i = 0; i < refs_per_proc; ++i) {
            s.push_back(coherence::TraceItem{
                coherence::TraceItem::Kind::Ref, 32 * rng.below(128),
                rng.chance(0.3), true,
                static_cast<std::uint16_t>(rng.below(4))});
        }
        wl.streams.push_back(std::move(s));
    }
    return wl;
}

void
expectSameCoherence(const coherence::CoherenceResult &a,
                    const coherence::CoherenceResult &b)
{
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.sharedRefs, b.sharedRefs);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.protocolEvents, b.protocolEvents);
    EXPECT_EQ(a.networkRounds, b.networkRounds);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.droppedInvalidations, b.droppedInvalidations);
    EXPECT_EQ(a.delayedAcks, b.delayedAcks);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.memoryCycles, b.memoryCycles);
    EXPECT_EQ(a.accessControlCycles, b.accessControlCycles);
    EXPECT_EQ(a.networkCycles, b.networkCycles);
    EXPECT_EQ(a.barrierWaitCycles, b.barrierWaitCycles);
}

TEST(CoherenceCheckpoint, ResumeIsBitIdentical)
{
    coherence::CoherenceParams params;
    params.processors = 4;
    const auto wl = randomWorkload(4, 800, 21);

    FaultSchedule sched;
    sched.seed = 13;
    sched.delayedAck = 0.05;
    sched.droppedInvalidation = 0.01;

    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::uint64_t> marks;
    coherence::CoherentMachine m1(params,
                                  coherence::AccessMethod::Informing);
    FaultInjector f1(sched);
    m1.setFaultInjector(&f1);
    coherence::CoherentMachine::RunHooks hooks;
    hooks.checkpointEveryRefs = 500;
    hooks.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                             std::uint64_t refs) {
        images.push_back(img);
        marks.push_back(refs);
    };
    const auto full = m1.run(wl, hooks);
    ASSERT_GE(images.size(), 2u);

    const std::size_t pick = images.size() / 2;
    std::vector<std::vector<std::uint8_t>> reimages;
    coherence::CoherentMachine m2(params,
                                  coherence::AccessMethod::Informing);
    FaultInjector f2(sched);
    m2.setFaultInjector(&f2);
    coherence::CoherentMachine::RunHooks rhooks;
    rhooks.resumeImage = &images[pick];
    rhooks.checkpointEveryRefs = 500;
    rhooks.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                              std::uint64_t) {
        reimages.push_back(img);
    };
    const auto resumed = m2.run(wl, rhooks);

    expectSameCoherence(full, resumed);
    ASSERT_EQ(reimages.size(), images.size() - pick - 1);
    for (std::size_t i = 0; i < reimages.size(); ++i) {
        EXPECT_EQ(reimages[i], images[pick + 1 + i])
            << "coherence image " << i << " diverged after resume";
    }
    EXPECT_TRUE(m2.directory().invariantsHold());
}

TEST(CoherenceCheckpoint, WorkloadMismatchIsRejected)
{
    coherence::CoherenceParams params;
    params.processors = 2;
    const auto wl = randomWorkload(2, 300, 21);

    std::vector<std::uint8_t> image;
    coherence::CoherentMachine m1(params,
                                  coherence::AccessMethod::Informing);
    coherence::CoherentMachine::RunHooks hooks;
    hooks.checkpointEveryRefs = 100;
    hooks.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                             std::uint64_t) { image = img; };
    m1.run(wl, hooks);
    ASSERT_FALSE(image.empty());

    const auto other = randomWorkload(2, 300, 99);
    coherence::CoherentMachine m2(params,
                                  coherence::AccessMethod::Informing);
    coherence::CoherentMachine::RunHooks rhooks;
    rhooks.resumeImage = &image;
    try {
        m2.run(other, rhooks);
        FAIL() << "mismatched workload accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(CoherenceCheckpoint, TruncatedImageIsRejected)
{
    coherence::CoherenceParams params;
    params.processors = 2;
    const auto wl = randomWorkload(2, 300, 21);

    std::vector<std::uint8_t> image;
    coherence::CoherentMachine m1(params,
                                  coherence::AccessMethod::Informing);
    coherence::CoherentMachine::RunHooks hooks;
    hooks.checkpointEveryRefs = 100;
    hooks.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                             std::uint64_t) { image = img; };
    m1.run(wl, hooks);
    ASSERT_FALSE(image.empty());

    image.resize(image.size() / 2);
    coherence::CoherentMachine m2(params,
                                  coherence::AccessMethod::Informing);
    coherence::CoherentMachine::RunHooks rhooks;
    rhooks.resumeImage = &image;
    try {
        m2.run(wl, rhooks);
        FAIL() << "truncated image accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

} // namespace
