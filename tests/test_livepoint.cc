/**
 * @file
 * Live-point library tests (src/sample/livepoint.*):
 *
 *  - capture -> serialize -> parse round-trips every field and every
 *    image byte, and the content hash identifies the bytes;
 *  - corrupted or truncated library images surface as structured
 *    BadCheckpoint errors (the hostile-input fuzz patterns of
 *    test_checkpoint.cc, applied to the library container);
 *  - capturing a library and replaying it both reproduce the
 *    sequential sampler's estimate bit for bit, on both machines;
 *  - captureDigest() ignores window-timing parameters and nothing else;
 *  - copying a machine's warm state seeds the same state as an image.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/error.hh"
#include "pipeline/config.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/livepoint.hh"
#include "sample/sample.hh"
#include "workloads/suite.hh"

using namespace imo;

namespace
{

isa::Program
buildWorkload(const char *name, double scale)
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    return workloads::build(name, wp);
}

/** The shared test subject: a sampled hydro2d point with 39 windows.
 *  Captured once; every test works on copies. */
const sample::LivePointLibrary &
capturedLibrary()
{
    static const sample::LivePointLibrary lib = [] {
        sample::Sampler sampler(buildWorkload("hydro2d", 0.2),
                                pipeline::makeInOrderConfig(),
                                sample::SampleParams{});
        sampler.setRetainCapture(true);
        const sample::SampleEstimate est = sampler.run();
        EXPECT_TRUE(est.ok) << est.error.message;
        EXPECT_GT(est.windows, 0u);
        sample::LivePointLibrary out = *sampler.capturedLibrary();
        serializeLibrary(out); // stamp contentHash
        return out;
    }();
    return lib;
}

/** A tiny hand-built library whose images are a few bytes each — small
 *  enough to fuzz the container at every truncation length. */
sample::LivePointLibrary
tinyLibrary()
{
    sample::LivePointLibrary lib;
    lib.kind = "inorder";
    lib.workload = "tiny";
    lib.programFingerprint = 0x1234;
    lib.digest = 0x5678;
    lib.fastForward = 100;
    lib.warmup = 10;
    lib.measure = 10;
    lib.totals = sample::ExactTotals{400, 120, 7, 0};
    lib.points.resize(2);
    lib.points[0].warmImage = {1, 2, 3};
    lib.points[0].execImage = {4, 5, 6, 7};
    lib.points[1].warmImage = {8};
    lib.points[1].execImage = {9, 10};
    return lib;
}

void
expectSameLibrary(const sample::LivePointLibrary &a,
                  const sample::LivePointLibrary &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.programFingerprint, b.programFingerprint);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.fastForward, b.fastForward);
    EXPECT_EQ(a.warmup, b.warmup);
    EXPECT_EQ(a.measure, b.measure);
    EXPECT_EQ(a.totals.instructions, b.totals.instructions);
    EXPECT_EQ(a.totals.dataRefs, b.totals.dataRefs);
    EXPECT_EQ(a.totals.l1Misses, b.totals.l1Misses);
    EXPECT_EQ(a.totals.traps, b.totals.traps);
    EXPECT_EQ(a.contentHash, b.contentHash);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].warmImage, b.points[i].warmImage)
            << "window " << i;
        EXPECT_EQ(a.points[i].execImage, b.points[i].execImage)
            << "window " << i;
    }
}

/** Bit-identical, not approximately equal: every execution mode folds
 *  the same per-window samples in the same order. */
void
expectSameEstimate(const sample::SampleEstimate &a,
                   const sample::SampleEstimate &b)
{
    ASSERT_TRUE(a.ok) << a.error.message;
    ASSERT_TRUE(b.ok) << b.error.message;
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.dataRefs, b.dataRefs);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.passes, b.passes);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.detailedInstructions, b.detailedInstructions);
    EXPECT_EQ(a.cpiMean, b.cpiMean);
    EXPECT_EQ(a.cpiVariance, b.cpiVariance);
    EXPECT_EQ(a.cpiCi95, b.cpiCi95);
    EXPECT_EQ(a.missRateMean, b.missRateMean);
    EXPECT_EQ(a.missRateVariance, b.missRateVariance);
    EXPECT_EQ(a.missRateCi95, b.missRateCi95);
}

} // anonymous namespace

// ------------------------------------------------------------ container

TEST(LivePointLibrary, CaptureRoundTripIsBitIdentical)
{
    sample::LivePointLibrary lib = capturedLibrary();
    const std::vector<std::uint8_t> image = sample::serializeLibrary(lib);
    EXPECT_NE(lib.contentHash, 0u);

    sample::LivePointLibrary parsed = sample::parseLibrary(image);
    expectSameLibrary(lib, parsed);

    // Re-serializing the parsed copy reproduces the exact image.
    EXPECT_EQ(sample::serializeLibrary(parsed), image);
}

TEST(LivePointLibrary, ContentHashIdentifiesTheBytes)
{
    sample::LivePointLibrary a = tinyLibrary();
    sample::LivePointLibrary b = tinyLibrary();
    sample::serializeLibrary(a);
    sample::serializeLibrary(b);
    EXPECT_EQ(a.contentHash, b.contentHash);

    b.points[1].execImage[0] ^= 1;
    sample::serializeLibrary(b);
    EXPECT_NE(a.contentHash, b.contentHash);
}

TEST(LivePointLibrary, CorruptedImageIsRejected)
{
    sample::LivePointLibrary lib = tinyLibrary();
    std::vector<std::uint8_t> image = sample::serializeLibrary(lib);
    image[image.size() - 3] ^= 0x40;
    try {
        sample::parseLibrary(std::move(image));
        FAIL() << "corrupted library image parsed";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

TEST(LivePointLibrary, TruncationIsRejectedAtEveryLength)
{
    sample::LivePointLibrary lib = tinyLibrary();
    const std::vector<std::uint8_t> image = sample::serializeLibrary(lib);
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + len);
        try {
            sample::parseLibrary(std::move(cut));
            FAIL() << "library truncated to " << len << " bytes parsed";
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint)
                << "length " << len;
        }
        // Any other exception type propagates and fails the test.
    }
}

TEST(LivePointLibrary, RandomBitFlipsNeverEscapeBadCheckpoint)
{
    // Hostile-input fuzz: any single flipped bit must either be caught
    // (structured BadCheckpoint) or leave the image parseable (flips in
    // already-sliced window payload bytes are data, not structure —
    // impossible here because every section is CRC-checked, but the
    // contract under test is "no foreign exception type, no crash").
    const std::vector<std::uint8_t> clean = [] {
        sample::LivePointLibrary lib = tinyLibrary();
        return sample::serializeLibrary(lib);
    }();
    std::mt19937_64 rng(12345);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::uint8_t> image = clean;
        const std::size_t byte = rng() % image.size();
        image[byte] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        try {
            sample::parseLibrary(std::move(image));
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint)
                << "iteration " << iter;
        }
    }
}

TEST(LivePointLibrary, UnsupportedFormatVersionIsRejected)
{
    // A version bump must be caught by the explicit check, not by
    // accidental downstream parse failures.
    Serializer s;
    s.beginSection("libmeta");
    s.u32(sample::livePointFormatVersion + 1);
    s.endSection();
    try {
        sample::parseLibrary(s.finish());
        FAIL() << "future-version library parsed";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadCheckpoint);
    }
}

// -------------------------------------------------------- capture digest

TEST(CaptureDigest, IgnoresWindowTimingParameters)
{
    const pipeline::MachineConfig base = pipeline::makeInOrderConfig();
    const std::uint64_t digest = sample::captureDigest(base);

    // Window-timing knobs do not shape the captured state: one library
    // serves a whole latency/MSHR sweep.
    pipeline::MachineConfig timing = base;
    timing.mem.l2Latency += 7;
    timing.mem.memLatency += 100;
    timing.mem.mshrs += 3;
    EXPECT_EQ(sample::captureDigest(timing), digest);

    // Cache geometry decides window boundaries and executor images.
    pipeline::MachineConfig geometry = base;
    geometry.l1.sizeBytes *= 2;
    EXPECT_NE(sample::captureDigest(geometry), digest);

    // Predictor geometry decides the warm-image shape.
    pipeline::MachineConfig predictor = base;
    predictor.predictorEntries *= 2;
    EXPECT_NE(sample::captureDigest(predictor), digest);
}

// ------------------------------------------------------------ warm state

/** Both ways of seeding a window machine carry the same warm state. */
template <typename Cpu>
void
checkCopyMatchesImage(pipeline::MachineConfig cfg)
{
    for (const bool gshare : {false, true}) {
        cfg.useGshare = gshare;
        Cpu accum(cfg);
        accum.reset();
        std::mt19937 rng(gshare ? 7 : 3);
        for (int i = 0; i < 5000; ++i)
            accum.warmCondBranch(static_cast<InstAddr>(rng() % 4096),
                                 rng() % 3 != 0);
        const std::vector<std::uint8_t> image =
            sample::makeWarmImage(accum);

        Cpu copied(cfg);
        copied.reset();
        copied.copyWarmState(accum);
        Cpu restored(cfg);
        restored.reset();
        sample::restoreWarmImage(image, restored);
        EXPECT_EQ(sample::makeWarmImage(copied), image);
        EXPECT_EQ(sample::makeWarmImage(restored), image);
    }

    // A warm state only seeds a machine of its own predictor size, as
    // restoring an image of another size would refuse to.
    pipeline::MachineConfig bigger = cfg;
    bigger.predictorEntries *= 2;
    Cpu accum(cfg);
    accum.reset();
    Cpu other(bigger);
    other.reset();
    try {
        other.copyWarmState(accum);
        FAIL() << "mismatched predictor sizes accepted";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }
}

TEST(WarmState, CopyMatchesImageRoundTrip)
{
    checkCopyMatchesImage<pipeline::InOrderCpu>(
        pipeline::makeInOrderConfig());
    checkCopyMatchesImage<pipeline::OooCpu>(
        pipeline::makeOutOfOrderConfig());
}

// ----------------------------------------------- estimate bit-identity

/** Capture and replay both reproduce the sequential estimate bit for
 *  bit on @p cfg's machine. */
void
checkReplayMatchesSequential(const pipeline::MachineConfig &cfg)
{
    const isa::Program prog = buildWorkload("hydro2d", 0.2);

    sample::Sampler seq(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate expect = seq.run();
    ASSERT_GT(expect.windows, 0u);

    sample::Sampler capture(prog, cfg, sample::SampleParams{});
    capture.setRetainCapture(true);
    expectSameEstimate(capture.run(), expect);
    ASSERT_TRUE(capture.capturedLibrary());

    sample::Sampler replay(prog, cfg, sample::SampleParams{});
    replay.setLibrary(capture.capturedLibrary());
    expectSameEstimate(replay.run(), expect);
}

TEST(LivePointSampler, ReplayMatchesSequentialEstimate)
{
    checkReplayMatchesSequential(pipeline::makeInOrderConfig());
    checkReplayMatchesSequential(pipeline::makeOutOfOrderConfig());
}

TEST(LivePointSampler, MismatchedLibraryIsAStructuredError)
{
    const isa::Program prog = buildWorkload("hydro2d", 0.2);
    const pipeline::MachineConfig cfg = pipeline::makeInOrderConfig();
    auto lib = std::make_shared<const sample::LivePointLibrary>(
        capturedLibrary());
    EXPECT_EQ(sample::libraryMismatch(*lib, prog, cfg,
                                      sample::SampleParams{}),
              "");

    // One input per mismatch kind; each error names its own cause.
    const auto expectRefused = [&](const isa::Program &p,
                                   const pipeline::MachineConfig &c,
                                   const sample::SampleParams &params,
                                   const char *cause) {
        sample::Sampler sampler(p, c, params);
        sampler.setLibrary(lib);
        const sample::SampleEstimate e = sampler.run();
        EXPECT_FALSE(e.ok) << cause;
        EXPECT_EQ(e.error.code, ErrCode::BadConfig) << cause;
        EXPECT_NE(e.error.message.find(cause), std::string::npos)
            << e.error.message;
        EXPECT_EQ(e.error.message,
                  sample::libraryMismatch(*lib, p, c, params));
    };

    // Wrong machine kind: captured in-order, replayed out-of-order.
    expectRefused(prog, pipeline::makeOutOfOrderConfig(),
                  sample::SampleParams{}, "'inorder' machine");

    // Wrong program: fingerprints differ.
    expectRefused(buildWorkload("ora", 0.1), cfg, sample::SampleParams{},
                  "captured from workload");

    // Wrong geometry: another L1 size changes the capture digest.
    pipeline::MachineConfig bigger = cfg;
    bigger.l1.sizeBytes *= 2;
    expectRefused(prog, bigger, sample::SampleParams{},
                  "cache/predictor geometry");

    // Wrong schedule: the boundaries were laid on another U:W:M.
    sample::SampleParams other;
    other.measure += 50;
    expectRefused(prog, cfg, other, "schedule");
}
