/**
 * @file
 * imo-farm: fault-tolerant multi-process sweep driver.
 *
 *   imo-farm --workloads compress --modes N,S,U --l2-lats 8,12,16
 *            --workers 4 --store results/ --out report.json
 *
 * Expands the same grid axes as imo-sweep, but runs the points on a
 * coordinator/worker farm (src/farm/): each point is leased to a
 * worker process, workers that crash, stall, or drop results are
 * killed and their points retried with exponential backoff, and
 * finished points are memoized in a content-addressed result store so
 * a re-run (or a resume after an interrupt) only simulates what is
 * missing. The merged report is byte-identical to imo-sweep over the
 * same grid, for any worker count and any failure schedule.
 *
 * On SIGINT/SIGTERM the farm shuts down cleanly; every finished point
 * is already in the store, and a re-run with --resume continues from
 * there. Exit code 5 marks the interrupted run.
 *
 * Exit codes: the one table in README.md ("Command-line exit codes").
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/manifest.hh"
#include "farm/farm.hh"
#include "farm/proto.hh"
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
        "usage: imo-farm [axes] [options]\n"
        "%s"
        "options:\n"
        "  --workers N             local worker processes (default 1; "
        "without\n"
        "                          --listen, 0 = one per hardware "
        "thread, with\n"
        "                          --listen, 0 = remote workers only)\n"
        "  --listen [HOST:]PORT    accept remote imo-worker daemons "
        "over TCP\n"
        "                          (default host 127.0.0.1; port 0 "
        "picks an\n"
        "                          ephemeral port — see --port-file)\n"
        "  --port-file PATH        write the bound listen port to PATH\n"
        "  --token SECRET          shared admission secret workers "
        "must present\n"
        "  --min-workers N         fail (instead of waiting forever) "
        "if fewer\n"
        "                          workers are available for a full "
        "lease period\n"
        "                          (default 1)\n"
        "  --store DIR             content-addressed result store "
        "(memoizes finished\n"
        "                          points across runs)\n"
        "  --resume                allow reusing a store that already "
        "holds records\n"
        "  --lease-ms N            lease deadline before a silent "
        "worker is declared\n"
        "                          lost (default 10000)\n"
        "  --heartbeat-ms N        worker heartbeat period while "
        "simulating\n"
        "                          (default 200; must be < --lease-ms)\n"
        "  --max-attempts N        lease attempts per point before the "
        "farm fails\n"
        "                          (default 30)\n"
        "  --straggler-ms N        duplicate a healthy lease to an idle "
        "worker after\n"
        "                          this long (0 disables; default "
        "30000)\n"
        "  --fault NAME=PROB       enable farm fault injection "
        "(worker-kill,\n"
        "                          worker-stall, dropped-result, "
        "store-bit-flip,\n"
        "                          lease-write-fail, conn-drop, "
        "conn-stutter,\n"
        "                          handshake-corrupt)\n"
        "  --fault-seed N          fault-injection RNG seed\n"
        "  --out PATH              merged JSON report ('-' for stdout, "
        "the default)\n"
        "  --trace-out PATH        write the lease-timeline trace "
        "(categories\n"
        "                          sweep,farm,store,net; one track per "
        "worker)\n"
        "  --trace-format F        chrome (trace_event JSON, default) "
        "or jsonl\n"
        "  --progress              rate-limited progress line on "
        "stderr\n"
        "  --no-progress           suppress the progress line\n"
        "  --progress-json PATH    machine-readable progress heartbeat "
        "file,\n"
        "                          rewritten atomically at the progress "
        "cadence\n"
        "  --progress-interval-ms N  progress cadence (default 500)\n"
        "  --manifest PATH         write a versioned run manifest "
        "(run id, per-point\n"
        "                          timings and attempt counts, final "
        "status)\n"
        "  --stats                 print the aggregated farm stats tree "
        "on stderr\n"
        "  --stats-json PATH       write the aggregated farm stats as "
        "JSON ('-' for\n"
        "                          stdout)\n"
        "  --multi-cache           classify all geometries of a "
        "sampled grid\n"
        "                          group in one shared pass per lease "
        "(grouped\n"
        "                          points become one lease; report "
        "bytes are\n"
        "                          unchanged)\n"
        "  --run-id ID             override the generated run id\n"
        "  --list                  print the expanded grid and exit\n"
        "  --quiet                 suppress warn/info diagnostics\n",
        sweep::gridAxesHelp());
}

/** Parse "[HOST:]PORT" into the listen options. */
void
parseListenSpec(const std::string &spec, farm::FarmOptions &opt)
{
    const std::size_t colon = spec.rfind(':');
    std::string port_text = spec;
    if (colon != std::string::npos) {
        sim_throw_if(colon == 0 || colon + 1 >= spec.size(),
                     ErrCode::BadConfig,
                     "bad --listen value '%s' (want [HOST:]PORT)",
                     spec.c_str());
        opt.listenHost = spec.substr(0, colon);
        port_text = spec.substr(colon + 1);
    }
    const std::uint64_t port = sweep::parseU64(port_text, "--listen");
    sim_throw_if(port > 65535, ErrCode::BadConfig,
                 "--listen port must be in [0, 65535], got %llu",
                 static_cast<unsigned long long>(port));
    opt.listen = true;
    opt.listenPort = static_cast<std::uint16_t>(port);
}

/** A --min-workers / --max-attempts count: in [1, 1000000]. */
std::uint64_t
boundedCount(cli::Args &args)
{
    const std::uint64_t v = args.u64();
    sim_throw_if(v == 0 || v > 1'000'000, ErrCode::BadConfig,
                 "%s must be in [1, 1000000], got %llu",
                 args.flag().c_str(), static_cast<unsigned long long>(v));
    return v;
}

int
runTool(cli::Args &args)
{
    sweep::SweepGrid grid;
    farm::FarmOptions opt;
    std::string out_path = "-";
    std::string port_file;
    std::string workers_text; //!< parsed after --listen is known
    bool list_only = false;
    std::string trace_path;
    std::string trace_format = "chrome";
    std::string manifest_path;
    bool want_stats = false;
    std::string stats_json_path;
    std::string fault_spec_joined; //!< verbatim specs, for the manifest

    while (args.next()) {
        if (sweep::applyGridArg(&grid, args.flag(),
                                [&] { return args.value(); })) {
            // handled
        } else if (args.is("--workers")) {
            workers_text = args.value();
        } else if (args.is("--listen")) {
            parseListenSpec(args.value(), opt);
        } else if (args.is("--port-file")) {
            port_file = args.value();
        } else if (args.is("--token")) {
            opt.token = args.value();
        } else if (args.is("--min-workers")) {
            opt.minWorkers = static_cast<unsigned>(boundedCount(args));
        } else if (args.is("--heartbeat-ms")) {
            opt.heartbeatMs = args.u64();
        } else if (args.is("--store")) {
            opt.storeDir = args.value();
        } else if (args.is("--resume")) {
            opt.resume = true;
        } else if (args.is("--lease-ms")) {
            opt.leaseMs = args.u64();
        } else if (args.is("--max-attempts")) {
            opt.maxAttempts = static_cast<unsigned>(boundedCount(args));
        } else if (args.is("--straggler-ms")) {
            opt.stragglerMs = args.u64();
        } else if (args.is("--fault")) {
            const std::string spec = args.value();
            if (!parseFaultSpec(spec, opt.faults))
                throw cli::UsageError("bad --fault spec '" + spec +
                                      "' (want name=prob)");
            fault_spec_joined += (fault_spec_joined.empty() ? "" : ",") +
                                 spec;
        } else if (args.is("--fault-seed")) {
            opt.faults.seed = args.u64();
        } else if (args.is("--out")) {
            out_path = args.value();
        } else if (args.is("--trace-out")) {
            trace_path = args.value();
        } else if (args.is("--trace-format")) {
            trace_format = args.oneOf({"chrome", "jsonl"});
        } else if (args.is("--progress")) {
            opt.progress = true;
        } else if (args.is("--no-progress")) {
            opt.progress = false;
        } else if (args.is("--progress-json")) {
            opt.progressJsonPath = args.value();
        } else if (args.is("--progress-interval-ms")) {
            opt.progressIntervalMs = args.u64();
        } else if (args.is("--manifest")) {
            manifest_path = args.value();
        } else if (args.is("--stats")) {
            want_stats = true;
        } else if (args.is("--stats-json")) {
            stats_json_path = args.value();
        } else if (args.is("--multi-cache")) {
            opt.multiCache = true;
        } else if (args.is("--run-id")) {
            opt.runId = args.value();
        } else if (args.is("--list")) {
            list_only = true;
        } else if (args.is("--quiet")) {
            setLogLevel(LogLevel::Quiet);
        } else {
            args.unknown();
        }
    }

    // --workers is parsed late because its 0 means "one process per
    // hardware thread" for a local farm but "remote workers only" when
    // listening.
    if (!workers_text.empty()) {
        if (opt.listen) {
            const std::uint64_t v = sweep::parseU64(workers_text,
                                                    "--workers");
            sim_throw_if(v > 4096, ErrCode::BadConfig,
                         "--workers must be in [0, 4096], got %llu",
                         static_cast<unsigned long long>(v));
            opt.workers = static_cast<unsigned>(v);
        } else {
            opt.workers = sweep::parseParallelism(workers_text,
                                                  "--workers");
        }
    }
    if (!port_file.empty()) {
        sim_throw_if(!opt.listen, ErrCode::BadConfig,
                     "--port-file needs --listen");
        opt.onListen = [port_file](std::uint16_t port) {
            std::ofstream f(port_file, std::ios::trunc);
            sim_throw_if(!f, ErrCode::BadConfig,
                         "cannot write --port-file '%s'",
                         port_file.c_str());
            f << port << '\n';
        };
    }

    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    if (list_only) {
        for (const sweep::SweepPoint &p : points)
            std::printf("%s\n", sweep::describePoint(p).c_str());
        std::printf("%zu points\n", points.size());
        return 0;
    }

    // Fail fast on typos before any worker is spawned.
    sweep::validatePoints(points);

    const volatile std::sig_atomic_t *stop = cli::installStopHandlers();

    // The lease-timeline sink lives in the coordinator process only;
    // forked workers never touch it.
    obs::TraceSink trace;
    if (!trace_path.empty()) {
        trace.enable(static_cast<std::uint32_t>(obs::Cat::Sweep) |
                     static_cast<std::uint32_t>(obs::Cat::Farm) |
                     static_cast<std::uint32_t>(obs::Cat::Store) |
                     static_cast<std::uint32_t>(obs::Cat::Net));
        opt.trace = &trace;
    }

    const farm::FarmResult res = farm::runFarm(points, opt, stop);

    // Telemetry artifacts are written on success and failure alike: a
    // post-mortem needs them most when the run went wrong.
    cli::writeTrace(trace, trace_path, trace_format);
    if (!manifest_path.empty()) {
        manifest::Manifest m = cli::manifestHeader(
            "imo-farm", args, res.ok ? SimError{} : res.error,
            res.elapsedMs);
        m.runId = res.runId;
        m.reportSchemaVersion = sweep::reportSchemaVersion;
        m.protocolVersion = farm::protocolVersion;
        m.faultSpec = fault_spec_joined;
        m.faultSeed = opt.faults.seed;
        m.pointsTotal = res.slotRecords.size();
        for (const farm::SlotRecord &r : res.slotRecords) {
            manifest::PointEntry e;
            e.key = r.keyHex;
            e.desc = r.desc;
            if (r.groupMembers > 0) {
                e.multiCacheGroup =
                    static_cast<std::int32_t>(m.multiCacheGroups.size());
                manifest::MultiCacheGroupEntry g;
                g.members = r.groupMembers;
                g.configs = r.groupConfigs;
                g.shared = true;
                m.multiCacheGroups.push_back(g);
            }
            e.status = r.done ? "ok" : "failed";
            e.storeHit = r.storeHit;
            e.attempts = r.attempts;
            e.queueWaitMs = r.queueWaitMs;
            e.simulateMs = r.simulateMs;
            e.serializeMs = r.serializeMs;
            e.storePutMs = r.storePutMs;
            e.startMs = r.startMs;
            e.endMs = r.endMs;
            if (r.done)
                ++m.pointsDone;
            else if (!res.ok)
                e.error = res.error.message;
            m.points.push_back(std::move(e));
        }
        m.statsJson = res.statsJson;
        cli::writeManifest(manifest_path, m);
    }
    if (want_stats)
        std::fputs(res.statsText.c_str(), stderr);
    cli::writeStatsJson(stats_json_path, res.statsJson);

    if (!res.ok) {
        cli::printError("imo-farm", res.error);
        if (res.error.code == ErrCode::Interrupted &&
            !opt.storeDir.empty()) {
            std::fprintf(stderr,
                         "imo-farm: %llu finished points are in '%s'; "
                         "resume with --resume\n",
                         static_cast<unsigned long long>(
                             res.stats.storeHits + res.stats.simulated),
                         opt.storeDir.c_str());
        }
        return cli::exitCodeFor(res.error.code);
    }

    if (out_path == "-") {
        farm::writeFarmReportJson(std::cout, res);
    } else {
        std::ofstream f(out_path, std::ios::binary);
        sim_throw_if(!f, ErrCode::BadConfig,
                     "cannot open '%s' for writing", out_path.c_str());
        farm::writeFarmReportJson(f, res);
    }

    const farm::FarmStats &st = res.stats;
    std::fprintf(stderr,
                 "imo-farm: %llu points (%llu unique), served "
                 "%llu/%llu from store, %llu simulated\n",
                 static_cast<unsigned long long>(st.points),
                 static_cast<unsigned long long>(st.uniqueSlots),
                 static_cast<unsigned long long>(st.storeHits),
                 static_cast<unsigned long long>(st.uniqueSlots),
                 static_cast<unsigned long long>(st.simulated));
    if (st.retries || st.workersLost || st.redispatches ||
        st.storeCorrupt) {
        std::fprintf(
            stderr,
            "imo-farm: %llu retries, %llu workers lost, %llu "
            "leases expired, %llu re-dispatches, %llu corrupt "
            "store records repaired\n",
            static_cast<unsigned long long>(st.retries),
            static_cast<unsigned long long>(st.workersLost),
            static_cast<unsigned long long>(st.leasesExpired),
            static_cast<unsigned long long>(st.redispatches),
            static_cast<unsigned long long>(st.storeCorrupt));
    }
    if (out_path != "-")
        std::fprintf(stderr, "imo-farm: report written to %s\n",
                     out_path.c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv);
    return cli::run("imo-farm", usage, [&] { return runTool(args); });
}
