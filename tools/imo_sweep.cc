/**
 * @file
 * imo-sweep: parallel configuration-sweep driver.
 *
 *   imo-sweep --workloads compress,tomcatv --machines ooo,inorder
 *             --modes N,S,U --l2-lats 8,12,16 --jobs 4 --out report.json
 *
 * Expands the cartesian product of the requested axes into a grid of
 * sweep points, runs each point as a fully isolated simulation on a
 * worker pool, and writes one merged JSON report with the points in
 * grid order. The report is byte-identical for any --jobs value.
 *
 * On SIGINT/SIGTERM the sweep stops scheduling new points, lets the
 * in-flight ones finish, writes a report of the completed prefix plus
 * an <out>.interrupted marker, and exits 5.
 *
 * Exit codes: the one table in README.md ("Command-line exit codes").
 * Individual failed points are reported in the JSON and still exit 0;
 * a failure of the sweep itself (e.g. an Internal error) exits 4.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/manifest.hh"
#include "obs/trace.hh"
#include "sweep/gridcli.hh"
#include "sweep/sweep.hh"

namespace
{

using namespace imo;

void
usage()
{
    std::fprintf(stderr,
        "usage: imo-sweep [axes] [options]\n"
        "%s"
        "options:\n"
        "  --jobs N                worker threads (0 = one per hardware "
        "thread;\n"
        "                          default 1)\n"
        "  --out PATH              merged JSON report ('-' for stdout, "
        "the default)\n"
        "  --trace-out PATH        write a per-point execution "
        "timeline (category\n"
        "                          sweep; one track per worker "
        "thread)\n"
        "  --trace-format F        chrome (trace_event JSON, default) "
        "or jsonl\n"
        "  --manifest PATH         write a versioned run manifest "
        "(run id,\n"
        "                          per-point wall times, final "
        "status)\n"
        "  --multi-cache           classify all cache geometries of a "
        "sampled group\n"
        "                          in one pass over the reference "
        "stream (report\n"
        "                          bytes unchanged)\n"
        "  --list                  print the expanded grid and exit\n"
        "  --quiet                 suppress warn/info diagnostics\n",
        sweep::gridAxesHelp());
}

int
runTool(cli::Args &args)
{
    sweep::SweepGrid grid;
    unsigned jobs = 1;
    std::string out_path = "-";
    bool list_only = false;
    std::string trace_path;
    std::string trace_format = "chrome";
    std::string manifest_path;
    bool multi_cache = false;

    while (args.next()) {
        if (sweep::applyGridArg(&grid, args.flag(),
                                [&] { return args.value(); })) {
            // handled
        } else if (args.is("--jobs")) {
            jobs = sweep::parseParallelism(args.value(), "--jobs");
        } else if (args.is("--out")) {
            out_path = args.value();
        } else if (args.is("--trace-out")) {
            trace_path = args.value();
        } else if (args.is("--trace-format")) {
            trace_format = args.oneOf({"chrome", "jsonl"});
        } else if (args.is("--manifest")) {
            manifest_path = args.value();
        } else if (args.is("--multi-cache")) {
            multi_cache = true;
        } else if (args.is("--list")) {
            list_only = true;
        } else if (args.is("--quiet")) {
            setLogLevel(LogLevel::Quiet);
        } else {
            args.unknown();
        }
    }

    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    if (list_only) {
        for (const sweep::SweepPoint &p : points)
            std::printf("%s\n", sweep::describePoint(p).c_str());
        std::printf("%zu points\n", points.size());
        return 0;
    }

    // Validate every point's config and workload name up front so
    // a typo fails fast instead of surfacing mid-sweep.
    sweep::validatePoints(points);

    const volatile std::sig_atomic_t *stop = cli::installStopHandlers();
    const bool want_telemetry =
        !trace_path.empty() || !manifest_path.empty();
    const std::uint64_t run_start = cli::steadyMs();

    std::vector<std::uint8_t> completed;
    std::vector<sweep::PointTiming> timings;
    sweep::MultiCache mc;
    const std::vector<sweep::SweepOutcome> outcomes =
        sweep::runSweep(points, jobs, stop, &completed,
                        want_telemetry ? &timings : nullptr, nullptr,
                        multi_cache ? &mc : nullptr);
    const std::uint64_t run_end = cli::steadyMs();

    if (multi_cache) {
        inform("imo-sweep: multi-cache: %zu groups, %llu of %zu points "
               "served by shared passes",
               mc.groups.size(),
               static_cast<unsigned long long>(mc.pointsShared),
               points.size());
    }

    // On interruption, the report covers exactly the completed points
    // (still in grid order) so nothing simulated is lost.
    std::vector<sweep::SweepOutcome> report;
    if (*stop) {
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            if (completed[i])
                report.push_back(outcomes[i]);
    }
    const std::vector<sweep::SweepOutcome> &emit =
        *stop ? report : outcomes;
    const std::string progress = simFormat(
        "%zu of %zu points completed", emit.size(), points.size());

    // Telemetry artifacts first (written for interrupted runs too);
    // they never touch the report bytes.
    if (!trace_path.empty()) {
        obs::TraceSink trace;
        trace.enable(static_cast<std::uint32_t>(obs::Cat::Sweep));
        // Compact worker-thread track ids, in point order.
        std::map<std::uint64_t, std::uint32_t> tids;
        for (std::size_t i = 0; i < timings.size(); ++i) {
            const sweep::PointTiming &t = timings[i];
            if (!t.ran)
                continue;
            const auto it = tids.emplace(
                t.threadId, static_cast<std::uint32_t>(tids.size() + 1));
            trace.record(t.startMs - run_start, obs::Cat::Sweep, "point",
                         0, i, 0, t.endMs - t.startMs, it.first->second);
        }
        cli::writeTrace(trace, trace_path, trace_format);
    }
    if (!manifest_path.empty()) {
        manifest::Manifest m = cli::manifestHeader(
            "imo-sweep", args,
            *stop ? SimError{ErrCode::Interrupted, progress, {}}
                  : SimError{},
            run_end - run_start);
        m.reportSchemaVersion = sweep::reportSchemaVersion;
        m.pointsTotal = points.size();
        // Multi-cache provenance: the group table plus, per point,
        // which shared pass (if any) produced its result.
        std::vector<std::int32_t> group_of(points.size(), -1);
        for (std::size_t gi = 0; gi < mc.groups.size(); ++gi) {
            const sweep::MultiCacheGroup &g = mc.groups[gi];
            manifest::MultiCacheGroupEntry ge;
            ge.members = g.members.size();
            ge.configs = g.configs;
            ge.streamLength = g.streamLength;
            ge.prefetches = g.prefetches;
            ge.windows = g.windows;
            ge.shared = g.shared;
            m.multiCacheGroups.push_back(ge);
            if (g.shared) {
                for (const std::size_t pi : g.members)
                    group_of[pi] = static_cast<std::int32_t>(gi);
            }
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            manifest::PointEntry e;
            e.desc = sweep::describePoint(points[i]);
            e.multiCacheGroup = group_of[i];
            const sweep::PointTiming &t = timings[i];
            if (!t.ran) {
                e.status = "cancelled";
            } else {
                const sweep::SweepOutcome &o = outcomes[i];
                const bool ok = o.point.sample.empty() ? o.result.ok
                                                       : o.estimate.ok;
                e.status = ok ? "ok" : "failed";
                if (!ok)
                    e.error = (o.point.sample.empty() ? o.result.error
                                                      : o.estimate.error)
                                  .format();
                e.attempts = 1;
                e.simulateMs = t.endMs - t.startMs;
                e.startMs = t.startMs - run_start;
                e.endMs = t.endMs - run_start;
                ++m.pointsDone;
            }
            m.points.push_back(std::move(e));
        }
        cli::writeManifest(manifest_path, m);
    }

    if (out_path == "-") {
        sweep::writeReportJson(std::cout, emit);
    } else {
        std::ofstream f(out_path, std::ios::binary);
        sim_throw_if(!f, ErrCode::BadConfig,
                     "cannot open '%s' for writing", out_path.c_str());
        sweep::writeReportJson(f, emit);
    }

    if (*stop) {
        // Resumable marker: which prefix of the grid the partial
        // report covers.
        if (out_path != "-")
            std::ofstream(out_path + ".interrupted") << progress << '\n';
        std::fprintf(stderr,
                     "imo-sweep: interrupted; %s, partial report %s%s\n",
                     progress.c_str(),
                     out_path == "-" ? "written to stdout"
                                     : "written to ",
                     out_path == "-" ? "" : out_path.c_str());
        return cli::kExitInterrupted;
    }

    std::size_t failed = 0;
    for (const sweep::SweepOutcome &o : outcomes) {
        const bool ok = o.point.sample.empty() ? o.result.ok
                                               : o.estimate.ok;
        if (!ok)
            ++failed;
    }
    std::fprintf(stderr, "imo-sweep: %zu points, %zu failed%s%s\n",
                 outcomes.size(), failed,
                 out_path == "-" ? "" : ", report written to ",
                 out_path == "-" ? "" : out_path.c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv);
    return cli::run("imo-sweep", usage, [&] { return runTool(args); });
}
