/**
 * @file
 * Sampled simulation: schedule parsing, estimator accuracy against the
 * full detailed model, bit-determinism, checkpoint interop, the
 * error-targeted extension loop, and the headline speedup gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/error.hh"
#include "pipeline/simulate.hh"
#include "sample/sample.hh"
#include "workloads/suite.hh"

using namespace imo;

namespace
{

isa::Program
buildWorkload(const char *name, double scale = 0.3)
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    return workloads::build(name, wp);
}

double
fullCpi(const pipeline::RunResult &r)
{
    return static_cast<double>(r.cycles) /
           static_cast<double>(r.instructions);
}

double
fullMissRate(const pipeline::RunResult &r)
{
    return static_cast<double>(r.l1Misses) /
           static_cast<double>(r.dataRefs);
}

} // namespace

TEST(SampleParams, ParsesCanonicalSpec)
{
    const sample::SampleParams p =
        sample::SampleParams::parse("10000:500:250");
    EXPECT_EQ(p.fastForward, 10000u);
    EXPECT_EQ(p.warmup, 500u);
    EXPECT_EQ(p.measure, 250u);
    EXPECT_EQ(p.spec(), "10000:500:250");
}

TEST(SampleParams, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "10000", "10000:500", "1:2:3:4", "a:b:c", "10000:500:x",
          "0:500:500", "10000:500:0", "-1:2:3"}) {
        EXPECT_THROW(sample::SampleParams::parse(bad), SimException)
            << "spec '" << bad << "' should not parse";
    }
}

TEST(SampleParams, ValidateRejectsBadExtensionPolicy)
{
    sample::SampleParams p;
    p.maxPasses = 0;
    EXPECT_THROW(p.validate(), SimException);
    p = sample::SampleParams{};
    p.targetRelErr = 1.5;
    EXPECT_THROW(p.validate(), SimException);
}

TEST(Sampler, EstimateTracksFullRunOoo)
{
    const isa::Program prog = buildWorkload("espresso");
    const pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();
    const pipeline::RunResult full = pipeline::simulate(prog, cfg);
    ASSERT_TRUE(full.ok);

    sample::Sampler sampler(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate est = sampler.run();
    ASSERT_TRUE(est.ok) << est.error.message;
    EXPECT_GT(est.windows, 0u);

    // The functional side executes every instruction, so the totals
    // are exact, not estimates.
    EXPECT_EQ(est.instructions, full.instructions);
    EXPECT_EQ(est.l1Misses, full.l1Misses);
    EXPECT_EQ(est.dataRefs, full.dataRefs);

    // The interval estimates must cover the detailed truth.
    EXPECT_TRUE(est.cpiCiContains(fullCpi(full)))
        << est.cpiMean << " +/- " << est.cpiCi95 << " vs "
        << fullCpi(full);
    EXPECT_TRUE(est.missRateCiContains(fullMissRate(full)))
        << est.missRateMean << " +/- " << est.missRateCi95 << " vs "
        << fullMissRate(full);
}

TEST(Sampler, EstimateTracksFullRunInOrder)
{
    const isa::Program prog = buildWorkload("hydro2d");
    const pipeline::MachineConfig cfg = pipeline::makeInOrderConfig();
    const pipeline::RunResult full = pipeline::simulate(prog, cfg);
    ASSERT_TRUE(full.ok);

    sample::Sampler sampler(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate est = sampler.run();
    ASSERT_TRUE(est.ok) << est.error.message;
    EXPECT_GT(est.windows, 0u);
    EXPECT_EQ(est.instructions, full.instructions);
    EXPECT_TRUE(est.cpiCiContains(fullCpi(full)))
        << est.cpiMean << " +/- " << est.cpiCi95 << " vs "
        << fullCpi(full);
    EXPECT_TRUE(est.missRateCiContains(fullMissRate(full)))
        << est.missRateMean << " +/- " << est.missRateCi95 << " vs "
        << fullMissRate(full);
}

TEST(Sampler, BitDeterministicAcrossRuns)
{
    const isa::Program prog = buildWorkload("hydro2d");
    const pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();

    sample::Sampler a(prog, cfg, sample::SampleParams{});
    sample::Sampler b(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate ea = a.run();
    const sample::SampleEstimate eb = b.run();
    ASSERT_TRUE(ea.ok);
    ASSERT_TRUE(eb.ok);

    EXPECT_EQ(ea.windows, eb.windows);
    EXPECT_EQ(ea.passes, eb.passes);
    EXPECT_EQ(ea.detailedInstructions, eb.detailedInstructions);
    // Bit-identical, not approximately equal: the schedule is a pure
    // function of the parameters and the instruction stream.
    EXPECT_EQ(ea.cpiMean, eb.cpiMean);
    EXPECT_EQ(ea.cpiVariance, eb.cpiVariance);
    EXPECT_EQ(ea.cpiCi95, eb.cpiCi95);
    EXPECT_EQ(ea.missRateMean, eb.missRateMean);
    EXPECT_EQ(ea.missRateCi95, eb.missRateCi95);

    // A second run() of the same Sampler resets cleanly too.
    const sample::SampleEstimate ea2 = a.run();
    EXPECT_EQ(ea2.cpiMean, ea.cpiMean);
    EXPECT_EQ(ea2.windows, ea.windows);
}

TEST(Sampler, ShortProgramYieldsNoWindowsButExactTotals)
{
    const isa::Program prog = buildWorkload("espresso", 0.1);
    const pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();
    sample::SampleParams p;
    p.fastForward = 1000000000; // gap longer than the program
    sample::Sampler sampler(prog, cfg, p);
    const sample::SampleEstimate est = sampler.run();
    ASSERT_TRUE(est.ok) << est.error.message;
    EXPECT_EQ(est.windows, 0u);
    EXPECT_EQ(est.detailedInstructions, 0u);
    EXPECT_EQ(est.cpiMean, 0.0);

    const pipeline::RunResult full = pipeline::simulate(prog, cfg);
    ASSERT_TRUE(full.ok);
    EXPECT_EQ(est.instructions, full.instructions);
    EXPECT_EQ(est.l1Misses, full.l1Misses);
}

TEST(Sampler, ErrorTargetedExtensionPoolsMorePasses)
{
    // alvinn: single-pass relative error ~1.5% (so the 1% target
    // forces extension) and the pooled estimate stays unbiased (the
    // paranoid xcheck build re-verifies it against the full run).
    const isa::Program prog = buildWorkload("alvinn");
    const pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();

    sample::SampleParams single;
    sample::Sampler base(prog, cfg, single);
    const sample::SampleEstimate one = base.run();
    ASSERT_TRUE(one.ok);
    ASSERT_GT(one.cpiRelErr(), 0.01)
        << "baseline already too precise for the test to bite";

    sample::SampleParams extended = single;
    extended.targetRelErr = 0.01;
    extended.maxPasses = 4;
    sample::Sampler ext(prog, cfg, extended);
    const sample::SampleEstimate pooled = ext.run();
    ASSERT_TRUE(pooled.ok);

    EXPECT_GT(pooled.passes, 1u);
    EXPECT_GT(pooled.windows, one.windows);
    // Either the target was met or every pass was spent trying.
    EXPECT_TRUE(pooled.cpiRelErr() <= extended.targetRelErr ||
                pooled.passes == extended.maxPasses);
    // Pooling never loses the exact totals.
    EXPECT_EQ(pooled.instructions, one.instructions);
}

TEST(Sampler, BadMachineConfigReportsStructuredError)
{
    const isa::Program prog = buildWorkload("espresso", 0.1);
    pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();
    cfg.issueWidth = 0; // invalid
    sample::Sampler sampler(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate est = sampler.run();
    EXPECT_FALSE(est.ok);
    EXPECT_EQ(est.error.code, ErrCode::BadConfig);
}

TEST(Sampler, CheckpointRoundTripsThroughSampledRuns)
{
    const isa::Program prog = buildWorkload("espresso");
    const pipeline::MachineConfig cfg = pipeline::makeInOrderConfig();

    // A full detailed run and a sampled run share the image format:
    // checkpoint a detailed run, then resume sampling from it.
    pipeline::SimulateOptions save_opt;
    std::vector<std::uint8_t> image;
    {
        pipeline::SimulateOptions opt;
        opt.checkpointEvery = 20000;
        opt.onCheckpoint = [&image](const std::vector<std::uint8_t> &im,
                                    std::uint64_t) { image = im; };
        const pipeline::RunResult full =
            pipeline::simulate(prog, cfg, opt, nullptr);
        ASSERT_TRUE(full.ok);
        ASSERT_FALSE(image.empty());
    }

    pipeline::SimulateOptions resume_opt;
    resume_opt.resumeImage = &image;
    sample::Sampler sampler(prog, cfg, sample::SampleParams{});
    const sample::SampleEstimate est = sampler.run(resume_opt);
    ASSERT_TRUE(est.ok) << est.error.message;
    EXPECT_GT(est.resumedInstructions, 0u);

    // Checkpointed counters continue from the saved values, so the
    // resumed run still ends with the full-program exact totals.
    const pipeline::RunResult full = pipeline::simulate(prog, cfg);
    ASSERT_TRUE(full.ok);
    EXPECT_EQ(est.instructions, full.instructions);
    EXPECT_EQ(est.l1Misses, full.l1Misses);
}

// The headline acceptance gate: on the longest workload the sampled
// run must be at least 5x faster than the full detailed simulation
// while its reported 95% CIs still cover the detailed truth. Timing is
// only meaningful in optimized builds without the paranoid full-run
// cross-check or sanitizers.
TEST(Sampler, AlvinnSpeedupGate)
{
#ifndef NDEBUG
    GTEST_SKIP() << "timing gate requires an optimized (NDEBUG) build";
#else
#ifdef IMO_PARANOID_XCHECK
    GTEST_SKIP() << "xcheck runs the full model inside run()";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizers distort the timing ratio";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "sanitizers distort the timing ratio";
#endif
#endif
    const isa::Program prog = buildWorkload("alvinn", 1.0);
    const pipeline::MachineConfig cfg = pipeline::makeOutOfOrderConfig();
    const sample::SampleParams params =
        sample::SampleParams::parse("39989:300:300");

    using clock = std::chrono::steady_clock;
    const auto time_ms = [](auto &&fn) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    const auto median5 = [](std::vector<double> ms) {
        std::sort(ms.begin(), ms.end());
        return ms[2];
    };

    // Median of 5 per side, the sides alternating run by run: a
    // background load that comes and goes slows both alike instead of
    // whichever side happened to be running.
    pipeline::RunResult full;
    sample::SampleEstimate est;
    std::vector<double> full_runs;
    std::vector<double> sampled_runs;
    for (int i = 0; i < 5; ++i) {
        full_runs.push_back(
            time_ms([&] { full = pipeline::simulate(prog, cfg); }));
        sampled_runs.push_back(time_ms([&] {
            sample::Sampler sampler(prog, cfg, params);
            est = sampler.run();
        }));
    }
    ASSERT_TRUE(full.ok);
    ASSERT_TRUE(est.ok) << est.error.message;
    const double full_ms = median5(full_runs);
    const double sampled_ms = median5(sampled_runs);

    EXPECT_TRUE(est.cpiCiContains(fullCpi(full)))
        << est.cpiMean << " +/- " << est.cpiCi95 << " vs "
        << fullCpi(full);
    EXPECT_TRUE(est.missRateCiContains(fullMissRate(full)))
        << est.missRateMean << " +/- " << est.missRateCi95 << " vs "
        << fullMissRate(full);

    const double speedup = full_ms / sampled_ms;
    std::printf("[ PERF ] full %.1f ms, sampled %.1f ms: %.2fx\n",
                full_ms, sampled_ms, speedup);
    EXPECT_GE(speedup, 5.0)
        << "full " << full_ms << " ms vs sampled " << sampled_ms
        << " ms";
#endif // NDEBUG
}
