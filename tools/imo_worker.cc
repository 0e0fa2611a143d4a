/**
 * @file
 * imo-worker: remote sweep-farm worker daemon.
 *
 *   imo-worker --coordinator host:5055 --token SECRET
 *
 * Connects to an imo-farm coordinator started with --listen, passes
 * the versioned Challenge/Hello admission handshake (protocol version,
 * report schema version, shared-token digest), then serves leases —
 * simulating points and streaming result fragments back — until the
 * coordinator sends Shutdown. A dropped connection is retried with
 * capped exponential backoff; an admission rejection (AuthFailed) is
 * final and exits immediately, since reconnecting cannot fix a version
 * or token mismatch.
 *
 * Exit codes: the one table in README.md ("Command-line exit codes");
 * 0 is a clean shutdown (the farm finished).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "cli.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "farm/worker.hh"
#include "sweep/gridcli.hh"

namespace
{

using namespace imo;

void
usage()
{
    std::fprintf(stderr,
        "usage: imo-worker --coordinator HOST:PORT [options]\n"
        "options:\n"
        "  --coordinator HOST:PORT  the imo-farm --listen endpoint "
        "(required)\n"
        "  --token SECRET           shared admission secret (must "
        "match the\n"
        "                           coordinator's --token)\n"
        "  --heartbeat-ms N         heartbeat period while simulating "
        "(default 200)\n"
        "  --retries N              consecutive failed connection "
        "attempts before\n"
        "                           giving up (0 = retry forever; "
        "default 0)\n"
        "  --backoff-base-ms N      reconnect backoff base (default "
        "100)\n"
        "  --backoff-cap-ms N       reconnect backoff cap (default "
        "5000)\n"
        "  --connect-timeout-ms N   per-attempt connect deadline "
        "(default 5000)\n"
        "  --fault NAME=PROB        enable worker fault injection "
        "(worker-kill,\n"
        "                           worker-stall, dropped-result, "
        "conn-drop,\n"
        "                           conn-stutter, handshake-corrupt)\n"
        "  --fault-seed N           fault-injection RNG seed\n"
        "  --log-json PATH          append structured JSONL session "
        "events\n"
        "                           (timestamp, worker id, run id, "
        "event, lease\n"
        "                           slot) — joinable with the "
        "coordinator's\n"
        "                           manifest on the run id\n"
        "  --worker-id ID           worker id stamped into --log-json "
        "lines\n"
        "                           (default worker-<pid>)\n"
        "  --quiet                  suppress warn/info diagnostics\n");
}

/** Parse "HOST:PORT" into the worker options. */
void
parseCoordinatorSpec(const std::string &spec, farm::WorkerOptions &opt)
{
    const std::size_t colon = spec.rfind(':');
    sim_throw_if(colon == std::string::npos || colon == 0 ||
                     colon + 1 >= spec.size(),
                 ErrCode::BadConfig,
                 "bad --coordinator value '%s' (want HOST:PORT)",
                 spec.c_str());
    opt.host = spec.substr(0, colon);
    const std::uint64_t port =
        sweep::parseU64(spec.substr(colon + 1), "--coordinator");
    sim_throw_if(port == 0 || port > 65535, ErrCode::BadConfig,
                 "--coordinator port must be in [1, 65535], got %llu",
                 static_cast<unsigned long long>(port));
    opt.port = static_cast<std::uint16_t>(port);
}

int
runTool(cli::Args &args)
{
    farm::WorkerOptions opt;
    std::string log_json_path;
    std::string worker_id;

    while (args.next()) {
        if (args.is("--coordinator")) {
            parseCoordinatorSpec(args.value(), opt);
        } else if (args.is("--token")) {
            opt.token = args.value();
        } else if (args.is("--heartbeat-ms")) {
            opt.heartbeatMs = args.u64();
        } else if (args.is("--retries")) {
            opt.maxRetries = static_cast<unsigned>(args.u64(1'000'000));
        } else if (args.is("--backoff-base-ms")) {
            opt.backoffBaseMs = args.u64();
        } else if (args.is("--backoff-cap-ms")) {
            opt.backoffCapMs = args.u64();
        } else if (args.is("--connect-timeout-ms")) {
            opt.connectTimeoutMs = args.u64();
        } else if (args.is("--fault")) {
            const std::string spec = args.value();
            if (!parseFaultSpec(spec, opt.faults))
                throw cli::UsageError("bad --fault spec '" + spec +
                                      "' (want name=prob)");
        } else if (args.is("--fault-seed")) {
            opt.faults.seed = args.u64();
        } else if (args.is("--log-json")) {
            log_json_path = args.value();
        } else if (args.is("--worker-id")) {
            worker_id = args.value();
        } else if (args.is("--quiet")) {
            setLogLevel(LogLevel::Quiet);
        } else {
            args.unknown();
        }
    }
    sim_throw_if(opt.port == 0, ErrCode::BadConfig,
                 "--coordinator HOST:PORT is required");

    const volatile std::sig_atomic_t *stop = cli::installStopHandlers();

    // Structured session log: one JSON object per line, appended (a
    // reconnecting daemon keeps one continuous log), joinable with the
    // coordinator's manifest and progress file on the run id.
    std::ofstream log_json;
    if (!log_json_path.empty()) {
        if (worker_id.empty())
            worker_id = "worker-" + std::to_string(::getpid());
        log_json.open(log_json_path, std::ios::app);
        sim_throw_if(!log_json, ErrCode::BadConfig,
                     "cannot open --log-json '%s'",
                     log_json_path.c_str());
        opt.onEvent = [&](const farm::SessionEvent &ev) {
            const std::uint64_t ts = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count());
            log_json << "{\"ts_ms\":" << ts << ",\"worker\":\""
                     << stats::jsonEscape(worker_id) << "\",\"run_id\":\""
                     << stats::jsonEscape(ev.runId) << "\",\"event\":\""
                     << stats::jsonEscape(ev.name) << "\",\"slot\":"
                     << ev.slot;
            if (!ev.detail.empty())
                log_json << ",\"detail\":\""
                         << stats::jsonEscape(ev.detail) << "\"";
            log_json << "}\n" << std::flush;
        };
    }

    const SimError err = farm::runWorker(opt, stop);
    if (err.ok()) {
        inform("imo-worker: shut down cleanly");
        return 0;
    }
    throw SimException(err);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv);
    return cli::run("imo-worker", usage, [&] { return runTool(args); });
}
