#include "suite.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "common/error.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "farm/farm.hh"
#include "sample/livepoint.hh"
#include "sweep/engine.hh"
#include "sweep/gridcli.hh"
#include "workloads/suite.hh"

namespace imo::bench
{

namespace
{

/** The Figure 2/3 bars: N and S/U with 1- and 10-instruction handlers. */
struct FigConfig
{
    core::InformingMode mode;
    std::uint32_t handlerLen;
};
constexpr FigConfig fig2Configs[] = {
    {core::InformingMode::None, 1},
    {core::InformingMode::TrapSingle, 1},
    {core::InformingMode::TrapUnique, 1},
    {core::InformingMode::TrapSingle, 10},
    {core::InformingMode::TrapUnique, 10},
};

constexpr const char *sampleSpec = "9973:300:300";

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const workloads::BenchmarkInfo &b : workloads::suite())
        names.push_back(b.name);
    return names;
}

/** 14 programs x {ooo, inorder} x the five Figure-2 bars. */
std::vector<sweep::SweepPoint>
fig2Points(const RunSettings &s, const std::string &sample)
{
    std::vector<std::string> names = suiteNames();
    if (s.smoke) // each farm lease costs at least a heartbeat period
        names.resize(findWorkload(s.workload)->engine == Engine::Farm ? 1
                                                                      : 2);
    std::vector<sweep::SweepPoint> points;
    for (const char *machine : {"ooo", "inorder"}) {
        for (const std::string &w : names) {
            for (const FigConfig &fc : fig2Configs) {
                sweep::SweepPoint p;
                p.machine = machine;
                p.workload = w;
                p.mode = fc.mode;
                p.handlerLen = fc.handlerLen;
                p.scale = s.smoke ? 0.05 : 2.0;
                p.seed = s.seed;
                p.sample = sample;
                points.push_back(p);
            }
        }
    }
    return points;
}

std::int64_t
msToNs(std::uint64_t ms)
{
    return static_cast<std::int64_t>(ms) * 1'000'000;
}

std::string
reportText(const std::vector<sweep::SweepOutcome> &outcomes)
{
    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    return os.str();
}

std::string
pointText(const sweep::SweepOutcome &o)
{
    std::ostringstream os;
    sweep::writePointJson(os, o);
    return os.str();
}

bool
outcomeOk(const sweep::SweepOutcome &o)
{
    return o.point.sample.empty() ? o.result.ok : o.estimate.ok;
}

std::uint64_t
outcomeOps(const sweep::SweepOutcome &o)
{
    return o.point.sample.empty() ? o.result.instructions
                                  : o.estimate.instructions;
}

void
fillFromOutcomes(ChildResult &r,
                 const std::vector<sweep::SweepOutcome> &outcomes)
{
    r.points = outcomes.size();
    r.digest = digestHex(reportText(outcomes));
    for (const sweep::SweepOutcome &o : outcomes) {
        r.pointDigests.push_back(digestHex(pointText(o)));
        r.failed += outcomeOk(o) ? 0 : 1;
        r.simOps += outcomeOps(o);
    }
}

ChildResult
sweepRepetition(const RunSettings &s, const Workload &w,
                std::int64_t spawn_ns)
{
    ChildResult r;
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    sweep::validatePoints(points);
    r.jobs = benchJobs(s.smoke);

    sweep::LibrarySharing sharing;
    sweep::MultiCache mc;
    std::vector<sweep::PointTiming> timings;
    const std::int64_t handoff = steadyNs();
    const std::vector<sweep::SweepOutcome> outcomes = sweep::runSweep(
        points, r.jobs, nullptr, nullptr, &timings,
        w.sharing ? &sharing : nullptr, w.multiCache ? &mc : nullptr);
    fillFromOutcomes(r, outcomes);
    r.wallS = (steadyNs() - spawn_ns) * 1e-9;

    // Points of one multi-cache group share the group's span; count
    // each distinct task span once for the pool's busy time.
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
        spans;
    for (const sweep::PointTiming &t : timings) {
        r.pointMs.push_back(static_cast<double>(t.endMs - t.startMs));
        if (spans.insert({t.startMs, t.endMs, t.threadId}).second)
            r.busyMs += static_cast<double>(t.endMs - t.startMs);
    }
    // Set-up ends at the hand-off to runSweep. PointTiming's whole
    // milliseconds cannot place the first point's start inside a
    // set-up of a few milliseconds; the pool starts it as soon as
    // runSweep has planned, which is part of the grid's wall time.
    r.setupS = (handoff - spawn_ns) * 1e-9;
    r.libraryReused = sharing.reused;
    r.pointsShared = mc.pointsShared;
    return r;
}

/** A farm run's merged report and per-point digests. */
void
fillFromFarm(ChildResult &r, const farm::FarmResult &res)
{
    std::ostringstream os;
    farm::writeFarmReportJson(os, res);
    r.digest = digestHex(os.str());
    for (const std::vector<std::uint8_t> &f : res.fragments) {
        const std::string text(f.begin(), f.end());
        r.pointDigests.push_back(digestHex(text));
        json::Value v;
        std::string err;
        if (!json::parse(text, v, err)) {
            ++r.failed;
            continue;
        }
        const json::Value *ok = v.find("ok");
        const json::Value *insts = v.find("instructions");
        if (!ok || !ok->asBool())
            ++r.failed;
        if (insts)
            r.simOps += insts->asUint();
    }
}

ChildResult
farmRepetition(const RunSettings &s, std::int64_t spawn_ns)
{
    ChildResult r;
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    sweep::validatePoints(points);
    r.jobs = benchJobs(s.smoke);
    r.points = points.size();

    farm::FarmOptions opt;
    opt.workers = r.jobs;
    opt.storeDir = simFormat("%s/store-%d", s.scratch.c_str(),
                             static_cast<int>(::getpid()));
    std::filesystem::remove_all(opt.storeDir);

    const std::int64_t handoff = steadyNs();
    const farm::FarmResult cold = farm::runFarm(points, opt);
    if (!cold.ok) {
        std::filesystem::remove_all(opt.storeDir);
        r.ok = false;
        r.error = cold.error.message;
        r.failed = r.points;
        return r;
    }
    fillFromFarm(r, cold);
    r.wallS = (steadyNs() - spawn_ns) * 1e-9;

    std::uint64_t first_start = ~std::uint64_t{0};
    for (const farm::SlotRecord &rec : cold.slotRecords) {
        r.pointMs.push_back(static_cast<double>(rec.endMs - rec.startMs));
        r.busyMs += static_cast<double>(rec.endMs - rec.startMs);
        first_start = std::min(first_start, rec.startMs);
    }
    // SlotRecord times are milliseconds since runFarm started.
    r.setupS = (handoff - spawn_ns + msToNs(first_start)) * 1e-9;

    // The identical grid again, served from the store just written.
    opt.resume = true;
    const std::int64_t t0 = steadyNs();
    const farm::FarmResult warm = farm::runFarm(points, opt);
    r.rerunS = (steadyNs() - t0) * 1e-9;
    std::filesystem::remove_all(opt.storeDir);
    if (!warm.ok || warm.fragments != cold.fragments) {
        r.ok = false;
        r.error = warm.ok ? "store-served re-run differs from the cold run"
                          : warm.error.message;
    }
    return r;
}

/** Run the coherence grid on @p jobs threads, timing every cell. */
ChildResult
coherenceGrid(const RunSettings &s, unsigned jobs, std::int64_t spawn_ns)
{
    ChildResult r;
    r.jobs = jobs;
    const std::vector<coherence::ParallelWorkload> kernels =
        coherence::makeAllKernels(coherenceKernelParams(s));
    const std::vector<CoherencePoint> points = coherencePoints(s);
    const std::int64_t handoff = steadyNs();
    r.setupS = (handoff - spawn_ns) * 1e-9;

    struct Cell
    {
        bool ok = true;
        coherence::CoherenceResult result;
        double ms = 0;
    };
    std::vector<std::function<Cell()>> tasks;
    for (const CoherencePoint &p : points) {
        tasks.emplace_back([&kernels, p] {
            Cell c;
            const std::int64_t t0 = steadyNs();
            try {
                coherence::CoherentMachine m(coherenceParams(p), p.method);
                c.result = m.run(kernels[p.kernel]);
            } catch (const SimException &) {
                c.ok = false;
            }
            c.ms = (steadyNs() - t0) * 1e-6;
            return c;
        });
    }
    const std::vector<Cell> cells = sweep::runOrdered(tasks, jobs);

    std::string report;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string line =
            cells[i].ok ? coherenceReportLine(cells[i].result, points[i])
                        : std::string("failed\n");
        report += line;
        r.pointDigests.push_back(digestHex(line));
        r.pointMs.push_back(cells[i].ms);
        r.busyMs += cells[i].ms;
        r.failed += cells[i].ok ? 0 : 1;
        r.simOps += cells[i].result.refs;
    }
    r.points = cells.size();
    r.digest = digestHex(report);
    r.wallS = (steadyNs() - spawn_ns) * 1e-9;
    return r;
}

/** Mean |sampled CPI - full CPI| / full CPI over the grid, in %. */
double
cpiErrorPct(const std::vector<sweep::SweepOutcome> &full,
            const std::vector<sweep::SweepOutcome> &sampled)
{
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < full.size() && i < sampled.size(); ++i) {
        const pipeline::RunResult &f = full[i].result;
        if (!f.ok || f.instructions == 0 || !sampled[i].estimate.ok)
            continue;
        const double cpi = static_cast<double>(f.cycles) / f.instructions;
        sum += std::abs(sampled[i].estimate.cpiMean - cpi) / cpi;
        ++n;
    }
    return n ? 100.0 * sum / n : 0.0;
}

} // anonymous namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig2-full", Engine::Sweep, false, false},
        {"fig2-sampled", Engine::Sweep, false, false},
        {"geometry-mc", Engine::Sweep, false, true},
        {"latency-lp", Engine::Sweep, true, false},
        {"farm-fig2", Engine::Farm, false, false},
        {"fig4-coherence", Engine::Coherence, false, false},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

unsigned
benchJobs(bool smoke)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(smoke ? 2u : 4u, hw);
}

std::vector<sweep::SweepPoint>
sweepPoints(const RunSettings &s)
{
    const std::string &w = s.workload;
    if (w == "fig2-full" || w == "farm-fig2")
        return fig2Points(s, "");
    if (w == "fig2-sampled")
        return fig2Points(s, sampleSpec);

    sweep::SweepGrid grid;
    grid.workloads = suiteNames();
    if (s.smoke)
        grid.workloads.resize(2);
    grid.machines = {"ooo"};
    grid.modes = {core::InformingMode::None};
    grid.seed = s.seed;
    grid.samples = {sampleSpec};
    if (w == "geometry-mc") {
        grid.scale = s.smoke ? 0.1 : 4.0;
        grid.l1SizesBytes = s.smoke
            ? std::vector<std::uint64_t>{8 * 1024, 32 * 1024}
            : std::vector<std::uint64_t>{4 * 1024, 8 * 1024, 16 * 1024,
                                         32 * 1024, 64 * 1024,
                                         128 * 1024};
        grid.l1Assocs = s.smoke ? std::vector<std::uint32_t>{1, 4}
                                : std::vector<std::uint32_t>{1, 2, 4, 8};
    } else if (w == "latency-lp") {
        grid.scale = s.smoke ? 0.1 : 1.0;
        grid.l2Latencies = s.smoke ? std::vector<std::uint64_t>{8, 24}
                                   : std::vector<std::uint64_t>{8, 12, 24};
        grid.memLatencies = s.smoke
            ? std::vector<std::uint64_t>{50, 150}
            : std::vector<std::uint64_t>{50, 75, 150};
    } else {
        throwSimError(ErrCode::BadConfig,
                      "imo-bench: '%s' is not a sweep workload", w.c_str());
    }
    return sweep::expandGrid(grid);
}

coherence::KernelParams
coherenceKernelParams(const RunSettings &s)
{
    coherence::KernelParams kp;
    kp.scale = s.smoke ? 0.1 : 2.0;
    kp.seed = s.seed;
    return kp;
}

std::vector<CoherencePoint>
coherencePoints(const RunSettings &s)
{
    using coherence::AccessMethod;
    const std::vector<Cycle> lats =
        s.smoke ? std::vector<Cycle>{450, 1800}
                : std::vector<Cycle>{450, 900, 1800};
    std::vector<CoherencePoint> points;
    for (std::size_t k = 0; k < 5; ++k)
        for (const AccessMethod m :
             {AccessMethod::ReferenceCheck, AccessMethod::EccFault,
              AccessMethod::Informing, AccessMethod::Hardware})
            for (const Cycle lat : lats)
                points.push_back({k, m, lat});
    return points;
}

coherence::CoherenceParams
coherenceParams(const CoherencePoint &p)
{
    coherence::CoherenceParams cp;
    cp.messageLatency = p.messageLatency;
    return cp;
}

std::string
coherenceReportLine(const coherence::CoherenceResult &r,
                    const CoherencePoint &p)
{
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    return simFormat(
        "%s %s lat=%llu exec=%llu refs=%llu shared=%llu l1miss=%llu "
        "lookups=%llu faults=%llu events=%llu rounds=%llu inv=%llu "
        "compute=%llu memory=%llu access=%llu network=%llu "
        "barrier=%llu\n",
        r.workload.c_str(), coherence::accessMethodName(p.method),
        u(p.messageLatency), u(r.execTime), u(r.refs), u(r.sharedRefs),
        u(r.l1Misses), u(r.lookups), u(r.faults), u(r.protocolEvents),
        u(r.networkRounds), u(r.invalidations), u(r.computeCycles),
        u(r.memoryCycles), u(r.accessControlCycles), u(r.networkCycles),
        u(r.barrierWaitCycles));
}

std::string
digestHex(const std::string &text)
{
    return simFormat("%016llx",
                     static_cast<unsigned long long>(
                         sample::fnv1a64(text.data(), text.size())));
}

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ChildResult
runRepetition(const RunSettings &s, std::int64_t spawn_ns)
{
    setLogLevel(LogLevel::Quiet);
    const Workload *w = findWorkload(s.workload);
    sim_throw_if(!w, ErrCode::BadConfig, "imo-bench: unknown workload '%s'",
                 s.workload.c_str());
    switch (w->engine) {
      case Engine::Sweep:
        return sweepRepetition(s, *w, spawn_ns);
      case Engine::Farm:
        return farmRepetition(s, spawn_ns);
      case Engine::Coherence:
        return coherenceGrid(s, benchJobs(s.smoke), spawn_ns);
    }
    return {};
}

ChildResult
runSetup(const RunSettings &s, std::int64_t spawn_ns)
{
    setLogLevel(LogLevel::Quiet);
    ChildResult r;
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    sweep::validatePoints(points);
    r.setupS = (steadyNs() - spawn_ns) * 1e-9;
    r.points = points.size();
    return r;
}

ChildResult
runReference(const RunSettings &s)
{
    setLogLevel(LogLevel::Quiet);
    const Workload *w = findWorkload(s.workload);
    sim_throw_if(!w, ErrCode::BadConfig, "imo-bench: unknown workload '%s'",
                 s.workload.c_str());
    if (w->engine == Engine::Coherence)
        return coherenceGrid(s, 1, steadyNs());

    ChildResult r;
    r.jobs = benchJobs(s.smoke);
    const std::vector<sweep::SweepPoint> points = sweepPoints(s);
    const std::vector<sweep::SweepOutcome> outcomes =
        sweep::runSweep(points, r.jobs);
    fillFromOutcomes(r, outcomes);
    if (s.workload == "fig2-sampled") {
        RunSettings full = s;
        full.workload = "fig2-full";
        r.cpiErrPct = cpiErrorPct(
            sweep::runSweep(sweepPoints(full), r.jobs), outcomes);
    }
    return r;
}

std::string
encodeChildResult(const ChildResult &r)
{
    std::string out = "{";
    const auto num = [&](const char *k, double v) {
        out += simFormat("\"%s\":%.17g,", k, v);
    };
    const auto str = [&](const char *k, const std::string &v) {
        out += simFormat("\"%s\":\"%s\",", k, stats::jsonEscape(v).c_str());
    };
    out += simFormat("\"ok\":%s,", r.ok ? "true" : "false");
    str("error", r.error);
    num("wall_s", r.wallS);
    num("setup_s", r.setupS);
    num("rerun_s", r.rerunS);
    num("busy_ms", r.busyMs);
    num("jobs", r.jobs);
    num("points", static_cast<double>(r.points));
    num("failed", static_cast<double>(r.failed));
    str("sim_ops", std::to_string(r.simOps));
    str("digest", r.digest);
    num("library_reused", static_cast<double>(r.libraryReused));
    num("points_shared", static_cast<double>(r.pointsShared));
    num("cpi_err_pct", r.cpiErrPct);
    out += "\"point_digests\":[";
    for (std::size_t i = 0; i < r.pointDigests.size(); ++i)
        out += simFormat("%s\"%s\"", i ? "," : "",
                         r.pointDigests[i].c_str());
    out += "],\"point_ms\":[";
    for (std::size_t i = 0; i < r.pointMs.size(); ++i)
        out += simFormat("%s%.17g", i ? "," : "", r.pointMs[i]);
    out += "]}\n";
    return out;
}

bool
decodeChildResult(const std::string &text, ChildResult &out,
                  std::string &err)
{
    json::Value v;
    if (!json::parse(text, v, err))
        return false;
    const auto num = [&](const char *k) {
        const json::Value *x = v.find(k);
        return x && x->isNumber() ? x->asDouble() : 0.0;
    };
    const auto str = [&](const char *k) {
        const json::Value *x = v.find(k);
        return x && x->isString() ? x->asString() : std::string();
    };
    const json::Value *ok = v.find("ok");
    const json::Value *digests = v.find("point_digests");
    const json::Value *ms = v.find("point_ms");
    if (!ok || !digests || !digests->isArray() || !ms || !ms->isArray()) {
        err = "child result lacks ok/point_digests/point_ms";
        return false;
    }
    out = ChildResult{};
    out.ok = ok->asBool();
    out.error = str("error");
    out.wallS = num("wall_s");
    out.setupS = num("setup_s");
    out.rerunS = num("rerun_s");
    out.busyMs = num("busy_ms");
    out.jobs = static_cast<unsigned>(num("jobs"));
    out.points = static_cast<std::uint64_t>(num("points"));
    out.failed = static_cast<std::uint64_t>(num("failed"));
    out.simOps = std::stoull("0" + str("sim_ops"));
    out.digest = str("digest");
    out.libraryReused = static_cast<std::uint64_t>(num("library_reused"));
    out.pointsShared = static_cast<std::uint64_t>(num("points_shared"));
    out.cpiErrPct = num("cpi_err_pct");
    for (const json::Value &d : digests->array())
        out.pointDigests.push_back(d.asString());
    for (const json::Value &x : ms->array())
        out.pointMs.push_back(x.asDouble());
    return true;
}

} // namespace imo::bench
