/**
 * @file
 * google-benchmark micro-suite: raw throughput of the simulator's
 * building blocks (not a paper experiment; useful for keeping the
 * harness fast enough to sweep).
 */

#include <benchmark/benchmark.h>

#include "branch/predictor.hh"
#include "coherence/kernels.hh"
#include "common/rng.hh"
#include "core/informing.hh"
#include "farm/proto.hh"
#include "farm/telemetry.hh"
#include "obs/trace.hh"
#include "func/executor.hh"
#include "memory/cache.hh"
#include "memory/multicache.hh"
#include "memory/timing.hh"
#include "pipeline/simulate.hh"
#include "sample/sample.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;

void
BM_CacheAccess(benchmark::State &state)
{
    memory::SetAssocCache cache(
        {.sizeBytes = 32 * 1024, .lineBytes = 32,
         .assoc = static_cast<std::uint32_t>(state.range(0))});
    Rng rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += cache.access(32 * rng.below(4096), false).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(4);

void
BM_TimingMemoryRequest(benchmark::State &state)
{
    memory::TimingMemorySystem mem(memory::TimingMemoryParams{});
    Rng rng(2);
    Cycle now = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        now += 2;
        const auto r = mem.request(32 * rng.below(1024),
                                   rng.chance(0.1) ? MemLevel::L2
                                                   : MemLevel::L1,
                                   now);
        sink += r.dataReady;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingMemoryRequest);

void
BM_Predictor(benchmark::State &state)
{
    branch::TwoBitPredictor pred(2048);
    Rng rng(3);
    for (auto _ : state)
        pred.predictAndUpdate(static_cast<InstAddr>(rng.below(4096)),
                              rng.chance(0.6));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Predictor);

void
BM_FunctionalExecution(benchmark::State &state)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.3;
    const isa::Program prog = workloads::build("espresso", wp);
    const auto cfg = pipeline::makeOutOfOrderConfig();
    std::uint64_t insts = 0;
    for (auto _ : state) {
        func::Executor exec(prog, {.l1 = cfg.l1, .l2 = cfg.l2});
        insts += exec.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_FunctionalExecution)->Unit(benchmark::kMillisecond);

void
BM_PipelineSimulation(benchmark::State &state)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.3;
    const isa::Program prog = workloads::build("espresso", wp);
    const auto cfg = state.range(0) == 0
        ? pipeline::makeOutOfOrderConfig()
        : pipeline::makeInOrderConfig();
    std::uint64_t insts = 0;
    for (auto _ : state)
        insts += pipeline::simulate(prog, cfg).instructions;
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_PipelineSimulation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_SampledSimulation(benchmark::State &state)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.3;
    const isa::Program prog = workloads::build("espresso", wp);
    const auto cfg = pipeline::makeOutOfOrderConfig();
    const sample::SampleParams params; // default U:W:M schedule
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sample::Sampler sampler(prog, cfg, params);
        insts += sampler.run().instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SampledSimulation)->Unit(benchmark::kMillisecond);

/** Classification throughput of the single-pass multi-configuration
 *  engine: one captured reference stream driven through Arg(0)
 *  geometry configs at once. Items = references classified, so the
 *  per-config amortization shows up directly as items/s scaling with
 *  the arg (a dedicated pass would be flat). */
void
BM_MultiConfigPass(benchmark::State &state)
{
    struct Rec
    {
        Addr addr;
        bool write;
    };
    struct Capture final : func::RefSink
    {
        std::vector<Rec> *out;
        void
        onAccess(Addr a, bool w) override
        {
            out->push_back({a, w});
        }
        void
        onPrefetch(Addr) override
        {
        }
    };
    static const std::vector<Rec> stream = [] {
        // alvinn at full scale: ~400k references, so the per-pass
        // engine construction amortizes the way a real sweep's does.
        workloads::WorkloadParams wp;
        wp.scale = 1.0;
        const isa::Program prog = core::instrument(
            workloads::build("alvinn", wp),
            core::InformingMode::None, {});
        const auto cfg = pipeline::makeOutOfOrderConfig();
        std::vector<Rec> recs;
        Capture cap;
        cap.out = &recs;
        func::Executor exec(
            prog, func::Executor::Config{
                      .l1 = cfg.l1, .l2 = cfg.l2,
                      .maxInstructions = cfg.maxInstructions});
        exec.setRefSink(&cap);
        exec.fastForward(~std::uint64_t{0} >> 1, nullptr);
        return recs;
    }();

    const auto base = pipeline::makeOutOfOrderConfig();
    const std::uint64_t sizes[] = {4096, 8192, 16384, 32768, 65536,
                                   131072};
    const std::uint32_t assocs[] = {1, 2, 4, 8};
    std::vector<memory::MultiCacheConfig> cfgs;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        memory::CacheGeometry g = base.l1;
        g.sizeBytes = sizes[(i / 4) % 6];
        g.assoc = assocs[i % 4];
        cfgs.push_back({g, base.l2});
    }

    std::uint64_t refs = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        memory::MultiCacheSim engine(cfgs);
        for (const Rec &r : stream)
            engine.access(r.addr, r.write);
        engine.sync();
        sink += engine.l1Misses(0);
        refs += stream.size();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_MultiConfigPass)->Arg(1)->Arg(8)->Arg(24)
    ->Unit(benchmark::kMillisecond);

/** The one-time cost of capturing a live-point library on top of the
 *  sampled run: the functional pass serializes every window's executor
 *  and warm-predictor images instead of running windows in place. */
void
BM_LivePointCapture(benchmark::State &state)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.3;
    const isa::Program prog = workloads::build("espresso", wp);
    const auto cfg = pipeline::makeOutOfOrderConfig();
    const sample::SampleParams params;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sample::Sampler sampler(prog, cfg, params);
        sampler.setRetainCapture(true);
        insts += sampler.run().instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_LivePointCapture)->Unit(benchmark::kMillisecond);

void
BM_Instrumentation(benchmark::State &state)
{
    const isa::Program prog = workloads::build("compress");
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::instrument(
            prog, core::InformingMode::TrapUnique, {.length = 10}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Instrumentation)->Unit(benchmark::kMicrosecond);

/** Coordinator-side telemetry bookkeeping for one farmed point: the
 *  full note-chain a slot travels (describe, enqueue, grant, worker
 *  stats, result, store put) with the lease-timeline trace attached.
 *  This is the per-point cost --trace-out / --manifest add to a farm
 *  run; the simulation itself is deliberately absent. */
void
BM_FarmOverhead(benchmark::State &state)
{
    farm::FarmOptions opt;
    obs::TraceSink trace;
    trace.enable(static_cast<std::uint32_t>(obs::Cat::Farm) |
                 static_cast<std::uint32_t>(obs::Cat::Store));
    opt.trace = &trace;
    farm::FarmTelemetry telemetry(opt, 0);
    farm::StatsMsg stats;
    stats.simulateMs = 3;
    stats.serializeMs = 1;
    stats.statsJson = "{\"cycles\":1000,\"instructions\":400}";
    std::uint64_t now = 1;
    std::size_t slot = 0;
    for (auto _ : state) {
        telemetry.describeSlot(slot, "0123456789abcdef", "bench point");
        telemetry.noteEnqueue(slot, now);
        telemetry.noteGrant(slot, slot % 4, false, 1, now + 1);
        stats.slot = slot;
        telemetry.noteWorkerStats(slot, stats, now + 5);
        telemetry.noteResult(slot, slot % 4, false, 512, now + 5);
        telemetry.noteStorePut(slot, 1, now + 6);
        now += 7;
        ++slot;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(slot));
}
BENCHMARK(BM_FarmOverhead)->Unit(benchmark::kMicrosecond);

/** One Figure-4 cell: the 16-processor machine replaying the stencil
 *  kernel at scale 0.3 under informing access control. Items are
 *  references, so the rate is the coherence loop's throughput. */
void
BM_CoherenceRun(benchmark::State &state)
{
    const coherence::ParallelWorkload wl =
        coherence::makeStencil({.scale = 0.3});
    coherence::CoherentMachine machine(coherence::CoherenceParams{},
                                       coherence::AccessMethod::Informing);
    std::uint64_t refs = 0;
    for (auto _ : state) {
        const coherence::CoherenceResult r = machine.run(wl);
        benchmark::DoNotOptimize(r.execTime);
        refs += r.refs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_CoherenceRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
