#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <unistd.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "core/informing.hh"
#include "farm/farm.hh"
#include "farm/store.hh"
#include "func/executor.hh"
#include "memory/hierarchy.hh"
#include "memory/multicache.hh"
#include "pipeline/simulate.hh"
#include "sample/livepoint.hh"
#include "sample/sample.hh"
#include "sample/sharedpass.hh"
#include "stats.hh"
#include "sweep/engine.hh"
#include "workloads/suite.hh"

namespace imo::bench
{

namespace
{

/** Metrics in insertion order; setting a name again overwrites it. */
class MetricSet
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit,
        std::uint64_t n = 0)
    {
        const auto [it, fresh] = _index.try_emplace(name, _list.size());
        if (fresh)
            _list.push_back({name, value, unit, n});
        else
            _list[it->second] = {name, value, unit, n};
    }

    /** Median and, where at least ten samples lie beyond it, p90. */
    void
    percentiles(const std::string &stem, const std::vector<double> &v,
                const std::string &unit)
    {
        if (v.empty())
            return;
        set(stem + "_p50", hdQuantile(v, 0.5), unit, v.size());
        const double p90 = hdQuantile(v, 0.9);
        if (countAbove(v, p90) >= 10)
            set(stem + "_p90", p90, unit, v.size());
    }

    std::vector<Metric> list() const { return _list; }

  private:
    std::vector<Metric> _list;
    std::map<std::string, std::size_t> _index;
};

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Time @p fn inside a span; @return its milliseconds. */
double
timed(SpanRecorder &rec, const char *name, const char *layer,
      std::int64_t point, const std::function<void()> &fn)
{
    ScopedSpan span(rec, name, layer, point);
    const std::int64_t t0 = steadyNs();
    fn();
    return (steadyNs() - t0) * 1e-6;
}

/** Costs shared by every uniprocessor point or group. */
struct Front
{
    isa::Program prog;
    double buildMs = 0;
    double instrumentMs = 0;
    double execMs = 0;
    std::uint64_t execInsts = 0;
};

/** The data-reference stream as the executor reports it; kind 0 is a
 *  read, 1 a write, 2 a prefetch. */
struct RefStream final : func::RefSink
{
    std::vector<Addr> addr;
    std::vector<std::uint8_t> kind;

    void
    onAccess(Addr a, bool is_write) override
    {
        addr.push_back(a);
        kind.push_back(is_write ? 1 : 0);
    }
    void
    onPrefetch(Addr a) override
    {
        addr.push_back(a);
        kind.push_back(2);
    }
};

/** build -> instrument -> a standalone functional run of the result. */
Front
front(SpanRecorder &rec, const sweep::SweepPoint &p, std::int64_t point,
      func::RefSink *sink = nullptr)
{
    Front f;
    isa::Program base;
    f.buildMs = timed(rec, "workloads::build", "workloads", point, [&] {
        workloads::WorkloadParams wp;
        wp.scale = p.scale;
        wp.seed = p.seed;
        base = workloads::build(p.workload, wp);
    });
    f.instrumentMs =
        timed(rec, "core::instrument", "core", point, [&] {
            f.prog = core::instrument(base, p.mode,
                                      {.length = p.handlerLen});
        });
    const pipeline::MachineConfig cfg = p.resolveConfig();
    f.execMs = timed(rec, "Executor::run", "func", point, [&] {
        func::Executor exec(f.prog, {.l1 = cfg.l1,
                                     .l2 = cfg.l2,
                                     .maxInstructions =
                                         cfg.maxInstructions});
        exec.setRefSink(sink);
        f.execInsts = exec.run();
    });
    return f;
}

/** Totals of the Front stage over a workload. */
struct FrontTotals
{
    double buildMs = 0, instrumentMs = 0, execMs = 0;
    std::uint64_t execInsts = 0;

    void
    add(const Front &f)
    {
        buildMs += f.buildMs;
        instrumentMs += f.instrumentMs;
        execMs += f.execMs;
        execInsts += f.execInsts;
    }

    void
    report(MetricSet &m) const
    {
        m.set("workloads.build_ms", buildMs, "ms");
        m.set("core.instrument_ms", instrumentMs, "ms");
        m.set("func.exec_ms", execMs, "ms");
        if (execInsts) {
            m.set("func.ns_per_inst", execMs * 1e6 / execInsts, "ns",
                  execInsts);
            m.set("func.minst_per_s", execInsts / execMs * 1e-3, "Minst/s");
        }
    }
};

/** Group point indices by workload name (first-seen order). */
std::vector<std::vector<std::size_t>>
groupByWorkload(const std::vector<sweep::SweepPoint> &points)
{
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::string, std::size_t> slot;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto [it, fresh] =
            slot.try_emplace(points[i].workload, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

void
tracePointGrid(const RunSettings &s, SpanRecorder &rec, MetricSet &m)
{
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    struct Out
    {
        Front front;
        double simMs = 0;
        std::uint64_t simInsts = 0;
        std::uint64_t windows = 0, detailed = 0;
    };
    std::vector<std::function<Out()>> tasks;
    for (std::size_t i = 0; i < points.size(); ++i) {
        tasks.emplace_back([&rec, &points, i] {
            const sweep::SweepPoint &p = points[i];
            const auto id = static_cast<std::int64_t>(i);
            ScopedSpan root(rec, "point", "sweep", id);
            Out o;
            o.front = front(rec, p, id);
            const pipeline::MachineConfig cfg = p.resolveConfig();
            if (p.sample.empty()) {
                o.simMs = timed(rec, "pipeline::simulate", "pipeline", id,
                                [&] {
                                    o.simInsts =
                                        pipeline::simulate(o.front.prog,
                                                           cfg)
                                            .instructions;
                                });
            } else {
                o.simMs = timed(rec, "Sampler::run", "sample", id, [&] {
                    sample::Sampler sampler(
                        o.front.prog, cfg,
                        sample::SampleParams::parse(p.sample));
                    const sample::SampleEstimate e = sampler.run();
                    o.windows = e.windows;
                    o.detailed = e.detailedInstructions;
                    o.simInsts = e.instructions;
                });
            }
            return o;
        });
    }
    const std::vector<Out> outs =
        sweep::runOrdered(tasks, benchJobs(s.smoke));

    FrontTotals ft;
    std::map<std::string, std::vector<double>> simByMachine;
    double sim_ms = 0;
    std::uint64_t sim_insts = 0, windows = 0, detailed = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ft.add(outs[i].front);
        simByMachine[points[i].machine].push_back(outs[i].simMs);
        sim_ms += outs[i].simMs;
        sim_insts += outs[i].simInsts;
        windows += outs[i].windows;
        detailed += outs[i].detailed;
    }
    ft.report(m);
    if (s.workload == "fig2-full") {
        for (const auto &[machine, v] : simByMachine)
            m.percentiles("pipeline." + machine + ".simulate_ms", v, "ms");
        m.set("pipeline.timing_self_ms", sim_ms - ft.execMs, "ms");
        m.set("pipeline.ns_per_inst", sim_ms * 1e6 / sim_insts, "ns",
              sim_insts);
        m.set("pipeline.minst_per_s", sim_insts / sim_ms * 1e-3,
              "Minst/s");
    } else {
        m.set("sample.run_ms", sim_ms, "ms", outs.size());
        m.set("sample.windows", static_cast<double>(windows), "count");
        m.set("sample.detailed_fraction",
              sim_insts ? static_cast<double>(detailed) / sim_insts : 0,
              "ratio");
    }
}

void
traceLatencyGrid(const RunSettings &s, SpanRecorder &rec, MetricSet &m)
{
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    const std::vector<std::vector<std::size_t>> groups =
        groupByWorkload(points);
    struct Out
    {
        Front front;
        double sequentialMs = 0, captureMs = 0, serializeMs = 0,
               parseMs = 0;
        std::uint64_t libraryBytes = 0, windows = 0;
        std::vector<double> restoreUs, replayMs;
    };
    std::vector<std::function<Out()>> tasks;
    for (const std::vector<std::size_t> &g : groups) {
        tasks.emplace_back([&rec, &points, g] {
            const auto lead = static_cast<std::int64_t>(g[0]);
            const sweep::SweepPoint &p0 = points[g[0]];
            const pipeline::MachineConfig cfg0 = p0.resolveConfig();
            const sample::SampleParams params =
                sample::SampleParams::parse(p0.sample);
            ScopedSpan root(rec, "library group", "sweep", lead);
            Out o;
            o.front = front(rec, p0, lead);
            const isa::Program &prog = o.front.prog;

            // The control: the interleaved sampler, no capture.
            o.sequentialMs =
                timed(rec, "Sampler::run", "sample", lead, [&] {
                    sample::Sampler(prog, cfg0, params).run();
                });

            std::shared_ptr<const sample::LivePointLibrary> lib;
            o.captureMs =
                timed(rec, "Sampler::run capture", "sample", lead, [&] {
                    sample::Sampler sampler(prog, cfg0, params);
                    sampler.setRetainCapture(true);
                    sampler.run();
                    lib = sampler.capturedLibrary();
                });
            sim_throw_if(!lib, ErrCode::Internal,
                         "imo-bench: capture produced no library");
            o.windows = lib->points.size();

            std::vector<std::uint8_t> image;
            {
                sample::LivePointLibrary copy = *lib;
                o.serializeMs = timed(rec, "serializeLibrary",
                                      "checkpoint", lead, [&] {
                                          image = sample::serializeLibrary(
                                              copy);
                                      });
            }
            o.libraryBytes = image.size();
            o.parseMs = timed(rec, "parseLibrary", "checkpoint", lead, [&] {
                sample::parseLibrary(std::move(image));
            });

            // Restores of up to 16 evenly spaced windows into one
            // reused executor (what every replayed window pays first).
            func::Executor exec(prog, {.l1 = cfg0.l1,
                                       .l2 = cfg0.l2,
                                       .maxInstructions =
                                           cfg0.maxInstructions});
            const std::size_t n = lib->points.size();
            const std::size_t step = std::max<std::size_t>(1, n / 16);
            for (std::size_t k = 0; k < n; k += step) {
                o.restoreUs.push_back(
                    1e3 * timed(rec, "restoreExecImage", "checkpoint",
                                lead, [&] {
                                    sample::restoreExecImage(
                                        lib->points[k].execImage, exec);
                                }));
            }

            for (std::size_t j = 1; j < g.size(); ++j) {
                const sweep::SweepPoint &p = points[g[j]];
                o.replayMs.push_back(timed(
                    rec, "Sampler::run replay", "sample",
                    static_cast<std::int64_t>(g[j]), [&] {
                        sample::Sampler sampler(prog, p.resolveConfig(),
                                                params);
                        sampler.setLibrary(lib);
                        sampler.run();
                    }));
            }
            return o;
        });
    }
    const std::vector<Out> outs =
        sweep::runOrdered(tasks, benchJobs(s.smoke));

    FrontTotals ft;
    std::vector<double> sequential, restore, replay;
    double capture = 0, serialize = 0, parse = 0;
    std::uint64_t bytes = 0, windows = 0;
    for (const Out &o : outs) {
        ft.add(o.front);
        sequential.push_back(o.sequentialMs);
        capture += o.captureMs;
        serialize += o.serializeMs;
        parse += o.parseMs;
        bytes += o.libraryBytes;
        windows += o.windows;
        restore.insert(restore.end(), o.restoreUs.begin(),
                       o.restoreUs.end());
        replay.insert(replay.end(), o.replayMs.begin(), o.replayMs.end());
    }
    ft.report(m);
    m.set("sample.run_ms", sum(sequential), "ms", sequential.size());
    m.set("sample.windows", static_cast<double>(windows), "count");
    m.set("sample.capture_ms", capture, "ms", outs.size());
    m.percentiles("sample.replay_ms", replay, "ms");
    if (!replay.empty() && !sequential.empty())
        m.set("sample.replay_over_sequential",
              hdQuantile(replay, 0.5) / hdQuantile(sequential, 0.5),
              "ratio");
    m.set("checkpoint.library_mb", bytes / 1048576.0, "MB", outs.size());
    m.set("checkpoint.serialize_ms", serialize, "ms", outs.size());
    m.set("checkpoint.parse_ms", parse, "ms", outs.size());
    m.percentiles("checkpoint.exec_restore_us", restore, "us");
}

void
traceGeometryGrid(const RunSettings &s, SpanRecorder &rec, MetricSet &m)
{
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    std::vector<std::vector<std::size_t>> groups;
    m.set("sweep.plan_ms", timed(rec, "planMultiCacheGroups", "sweep", -1,
                                 [&] {
                                     groups =
                                         sweep::planMultiCacheGroups(points);
                                 }),
          "ms");
    struct Out
    {
        Front front;
        double passMs = 0, foldMs = 0, multiMs = 0, dedicatedMs = 0;
        std::uint64_t refs = 0, configs = 0;
    };
    std::vector<std::function<Out()>> tasks;
    for (const std::vector<std::size_t> &g : groups) {
        tasks.emplace_back([&rec, &points, g] {
            const auto lead = static_cast<std::int64_t>(g[0]);
            const sweep::SweepPoint &p0 = points[g[0]];
            ScopedSpan root(rec, "multi-cache group", "sweep", lead);
            RefStream stream;
            Out o;
            o.front = front(rec, p0, lead, &stream);
            const sample::SampleParams params =
                sample::SampleParams::parse(p0.sample);
            std::vector<pipeline::MachineConfig> cfgs;
            std::vector<memory::MultiCacheConfig> mcfgs;
            for (const std::size_t i : g) {
                cfgs.push_back(points[i].resolveConfig());
                mcfgs.push_back({cfgs.back().l1, cfgs.back().l2});
            }
            o.refs = stream.addr.size();
            o.configs = cfgs.size();

            sample::SharedPassResult shared;
            o.passMs = timed(rec, "runSharedGeometryPass", "sample", lead,
                             [&] {
                                 shared = sample::runSharedGeometryPass(
                                     o.front.prog, cfgs, params);
                             });
            o.foldMs = timed(rec, "runFromSharedPass", "sample", lead, [&] {
                for (std::size_t k = 0; k < cfgs.size(); ++k)
                    sample::Sampler(o.front.prog, cfgs[k], params)
                        .runFromSharedPass(shared.totals[k],
                                           shared.samples[k]);
            });

            // The engine against its control: the same recorded stream
            // through MultiCacheSim and through one dedicated L1+L2
            // hierarchy per configuration.
            o.multiMs = timed(rec, "MultiCacheSim", "memory", lead, [&] {
                memory::MultiCacheSim sim(mcfgs);
                for (std::size_t r = 0; r < stream.addr.size(); ++r) {
                    if (stream.kind[r] == 2)
                        sim.prefetch(stream.addr[r]);
                    else
                        sim.access(stream.addr[r], stream.kind[r] == 1);
                }
                sim.sync();
            });
            o.dedicatedMs = timed(rec, "dedicated hierarchies", "memory",
                                  lead, [&] {
                for (const memory::MultiCacheConfig &c : mcfgs) {
                    memory::FunctionalHierarchy h(c.l1, c.l2);
                    for (std::size_t r = 0; r < stream.addr.size(); ++r) {
                        if (stream.kind[r] == 2)
                            h.prefetch(stream.addr[r]);
                        else
                            h.access(stream.addr[r], stream.kind[r] == 1);
                    }
                }
            });
            return o;
        });
    }
    const std::vector<Out> outs =
        sweep::runOrdered(tasks, benchJobs(s.smoke));

    FrontTotals ft;
    double pass = 0, fold = 0, multi = 0, dedicated = 0, ref_configs = 0;
    std::uint64_t refs = 0;
    for (const Out &o : outs) {
        ft.add(o.front);
        pass += o.passMs;
        fold += o.foldMs;
        multi += o.multiMs;
        dedicated += o.dedicatedMs;
        refs += o.refs;
        ref_configs += static_cast<double>(o.refs) * o.configs;
    }
    ft.report(m);
    m.set("sample.shared_pass_ms", pass, "ms", outs.size());
    m.set("sample.shared_fold_ms", fold, "ms", outs.size());
    m.set("memory.stream_refs", static_cast<double>(refs), "count");
    m.set("memory.multicache.classify_ms", multi, "ms", outs.size());
    m.set("memory.dedicated.classify_ms", dedicated, "ms", outs.size());
    if (ref_configs > 0) {
        m.set("memory.multicache.ns_per_ref_config",
              multi * 1e6 / ref_configs, "ns");
        m.set("memory.multicache.mref_cfg_per_s",
              ref_configs / multi * 1e-3, "Mref/s");
        m.set("memory.dedicated.mref_cfg_per_s",
              ref_configs / dedicated * 1e-3, "Mref/s");
    }
}

void
traceFarm(const RunSettings &s, SpanRecorder &rec, MetricSet &m)
{
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    farm::FarmOptions opt;
    opt.workers = benchJobs(s.smoke);
    opt.storeDir = simFormat("%s/trace-store-%d", s.scratch.c_str(),
                             static_cast<int>(::getpid()));
    std::filesystem::remove_all(opt.storeDir);

    farm::FarmResult cold;
    std::int64_t t0 = 0;
    std::size_t root = 0;
    {
        ScopedSpan span(rec, "farm::runFarm", "farm");
        root = span.id();
        t0 = steadyNs();
        cold = farm::runFarm(points, opt);
    }
    sim_throw_if(!cold.ok, cold.error.code, "imo-bench: farm: %s",
                 cold.error.message.c_str());

    // Lease spans from the slot records, one track per busy lane: the
    // records hold no worker id, so leases are packed onto the first
    // lane free at their start.
    std::vector<double> lease, simulate, overhead, wait;
    std::vector<std::uint64_t> laneFree;
    double put_ms = 0;
    for (std::size_t i = 0; i < cold.slotRecords.size(); ++i) {
        const farm::SlotRecord &r = cold.slotRecords[i];
        std::size_t lane = 0;
        while (lane < laneFree.size() && laneFree[lane] > r.startMs)
            ++lane;
        if (lane == laneFree.size())
            laneFree.push_back(0);
        laneFree[lane] = r.endMs;

        Span ls;
        ls.name = "lease";
        ls.layer = "farm";
        ls.startNs = t0 + static_cast<std::int64_t>(r.startMs) * 1'000'000;
        ls.endNs = t0 + static_cast<std::int64_t>(r.endMs) * 1'000'000;
        ls.parent = static_cast<std::int64_t>(root);
        ls.point = static_cast<std::int64_t>(i);
        ls.track = 100 + static_cast<std::uint32_t>(lane);
        const std::int64_t lease_id = static_cast<std::int64_t>(
            rec.add(ls));
        // The record gives the worker's simulate time, not its offset
        // inside the lease; it is drawn from the lease's start.
        Span ws = ls;
        ws.name = "worker simulate";
        ws.layer = "pipeline";
        ws.endNs = ws.startNs +
                   static_cast<std::int64_t>(r.simulateMs) * 1'000'000;
        ws.parent = lease_id;
        rec.add(ws);

        const double l = static_cast<double>(r.endMs - r.startMs);
        lease.push_back(l);
        simulate.push_back(static_cast<double>(r.simulateMs));
        overhead.push_back(l - static_cast<double>(r.simulateMs));
        wait.push_back(static_cast<double>(r.queueWaitMs));
        put_ms += static_cast<double>(r.storePutMs);
    }
    m.percentiles("farm.lease_ms", lease, "ms");
    m.percentiles("farm.worker_simulate_ms", simulate, "ms");
    m.percentiles("farm.lease_overhead_ms", overhead, "ms");
    m.percentiles("farm.queue_wait_ms", wait, "ms");
    m.set("farm.lease_overhead_ratio", sum(overhead) / sum(lease), "ratio",
          lease.size());
    m.set("farm.retries", static_cast<double>(cold.stats.retries), "count");
    m.set("farm.workers_lost", static_cast<double>(cold.stats.workersLost),
          "count");
    m.set("farm.store_put_ms", put_ms, "ms", lease.size());

    opt.resume = true;
    farm::FarmResult warm;
    timed(rec, "farm::runFarm resume", "farm", -1,
          [&] { warm = farm::runFarm(points, opt); });
    sim_throw_if(!warm.ok, warm.error.code, "imo-bench: farm resume: %s",
                 warm.error.message.c_str());
    m.set("farm.store_hit_ratio",
          warm.stats.uniqueSlots ? static_cast<double>(warm.stats.storeHits) /
                                       warm.stats.uniqueSlots
                                 : 0.0,
          "ratio");

    // The store's two public costs: content-addressing a point and
    // reading its record back.
    farm::ResultStore store(opt.storeDir, true);
    double key_ms = 0, get_ms = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        farm::PointKey key;
        key_ms += timed(rec, "keyForPoint", "store", id,
                        [&] { key = farm::keyForPoint(points[i]); });
        std::vector<std::uint8_t> fragment;
        get_ms += timed(rec, "ResultStore::get", "store", id, [&] {
            sim_throw_if(store.get(key, &fragment) != farm::StoreGet::Hit,
                         ErrCode::StoreCorrupt,
                         "imo-bench: store miss after a farm run");
        });
    }
    std::filesystem::remove_all(opt.storeDir);
    m.set("store.key_ms", key_ms, "ms", points.size());
    m.set("store.get_ms", get_ms, "ms", points.size());
}

void
traceCoherence(const RunSettings &s, SpanRecorder &rec, MetricSet &m)
{
    std::vector<coherence::ParallelWorkload> kernels;
    m.set("workloads.build_ms",
          timed(rec, "makeAllKernels", "workloads", -1, [&] {
              kernels = coherence::makeAllKernels(coherenceKernelParams(s));
          }),
          "ms");
    const std::vector<CoherencePoint> points = coherencePoints(s);
    std::vector<std::function<coherence::CoherenceResult()>> tasks;
    std::vector<double> ms(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        tasks.emplace_back([&, i] {
            coherence::CoherenceResult r;
            ms[i] = timed(rec, "CoherentMachine::run", "coherence",
                          static_cast<std::int64_t>(i), [&] {
                              coherence::CoherentMachine machine(
                                  coherenceParams(points[i]),
                                  points[i].method);
                              r = machine.run(kernels[points[i].kernel]);
                          });
            return r;
        });
    }
    const std::vector<coherence::CoherenceResult> results =
        sweep::runOrdered(tasks, benchJobs(s.smoke));
    double refs = 0, events = 0, rounds = 0;
    for (const coherence::CoherenceResult &r : results) {
        refs += static_cast<double>(r.refs);
        events += static_cast<double>(r.protocolEvents);
        rounds += static_cast<double>(r.networkRounds);
    }
    const double run_ms = sum(ms);
    m.set("coherence.run_ms", run_ms, "ms", points.size());
    m.set("coherence.ns_per_ref", run_ms * 1e6 / refs, "ns");
    m.set("coherence.mref_per_s", refs / run_ms * 1e-3, "Mref/s");
    m.set("coherence.protocol_events", events, "count");
    m.set("coherence.network_rounds", rounds, "count");
}

} // anonymous namespace

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "workloads", "core",   "func",   "pipeline", "sample",   "checkpoint",
        "memory",    "sweep",  "farm",   "store",    "coherence"};
    return names;
}

std::vector<Metric>
runTraced(const RunSettings &s, SpanRecorder &rec,
          const ChildResult &untraced)
{
    setLogLevel(LogLevel::Quiet);
    const Workload *w = findWorkload(s.workload);
    sim_throw_if(!w, ErrCode::BadConfig, "imo-bench: unknown workload '%s'",
                 s.workload.c_str());

    // Every workload reports the same names; a layer the workload does
    // not call reads 0.
    MetricSet m;
    for (const std::string &layer : layerNames())
        m.set(layer + ".self_pct", 0, "%");
    for (const char *rate : {"func.minst_per_s", "pipeline.minst_per_s"})
        m.set(rate, 0, "Minst/s");
    for (const char *rate :
         {"memory.multicache.mref_cfg_per_s",
          "memory.dedicated.mref_cfg_per_s", "coherence.mref_per_s"})
        m.set(rate, 0, "Mref/s");
    for (const char *count :
         {"sample.windows", "memory.stream_refs", "farm.retries",
          "farm.workers_lost", "coherence.protocol_events",
          "coherence.network_rounds"})
        m.set(count, 0, "count");
    m.set("checkpoint.library_mb", 0, "MB");
    for (const char *ratio :
         {"sample.detailed_fraction", "sample.replay_over_sequential",
          "sweep.pool_busy_ratio", "sweep.library_reuse_ratio",
          "sweep.multicache_shared_ratio", "farm.lease_overhead_ratio",
          "farm.store_hit_ratio", "trace.overhead_ratio"})
        m.set(ratio, 0, "ratio");

    const std::int64_t t0 = steadyNs();
    if (s.workload == "fig2-full" || s.workload == "fig2-sampled")
        tracePointGrid(s, rec, m);
    else if (s.workload == "latency-lp")
        traceLatencyGrid(s, rec, m);
    else if (s.workload == "geometry-mc")
        traceGeometryGrid(s, rec, m);
    else if (s.workload == "farm-fig2")
        traceFarm(s, rec, m);
    else
        traceCoherence(s, rec, m);
    const double traced_s = (steadyNs() - t0) * 1e-9;

    const std::map<std::string, double> self = rec.selfMsByLayer();
    double total = 0;
    for (const auto &[layer, ms] : self)
        total += ms;
    for (const auto &[layer, ms] : self) {
        m.set(layer + ".self_ms", ms, "ms");
        m.set(layer + ".self_pct", total > 0 ? 100.0 * ms / total : 0, "%");
    }

    // Ratios of the plain repetition run just before this one.
    const double grid_ms = (untraced.wallS - untraced.setupS) * 1e3;
    const double points = static_cast<double>(untraced.points);
    if (grid_ms > 0)
        m.set("sweep.pool_busy_ratio",
              untraced.busyMs / (untraced.jobs * grid_ms), "ratio");
    if (points > 0) {
        m.set("sweep.library_reuse_ratio", untraced.libraryReused / points,
              "ratio");
        m.set("sweep.multicache_shared_ratio",
              untraced.pointsShared / points, "ratio");
    }
    m.set("trace.traced_wall_s", traced_s, "s");
    if (untraced.wallS > 0)
        m.set("trace.overhead_ratio", traced_s / untraced.wallS, "ratio");
    return m.list();
}

} // namespace imo::bench
