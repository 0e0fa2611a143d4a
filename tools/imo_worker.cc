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
 * Exit codes:
 *   0  clean shutdown (the farm finished)
 *   2  usage error (bad flags)
 *   3  bad configuration
 *   4  failure (AuthFailed, reconnect budget exhausted, ...)
 *   5  interrupted (SIGINT/SIGTERM)
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "farm/worker.hh"
#include "sweep/gridcli.hh"

namespace
{

using namespace imo;

constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitFailure = 4;
constexpr int kExitInterrupted = 5;

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

int
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
    return kExitUsage;
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

} // anonymous namespace

int
main(int argc, char **argv)
{
    farm::WorkerOptions opt;
    std::string log_json_path;
    std::string worker_id;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throwSimError(ErrCode::BadConfig,
                                  "imo-worker: %s needs a value",
                                  arg.c_str());
                }
                return argv[++i];
            };
            if (arg == "--coordinator") {
                parseCoordinatorSpec(value(), opt);
            } else if (arg == "--token") {
                opt.token = value();
            } else if (arg == "--heartbeat-ms") {
                opt.heartbeatMs =
                    sweep::parseU64(value(), "--heartbeat-ms");
            } else if (arg == "--retries") {
                const std::uint64_t v =
                    sweep::parseU64(value(), "--retries");
                sim_throw_if(v > 1'000'000, ErrCode::BadConfig,
                             "--retries must be in [0, 1000000], got "
                             "%llu",
                             static_cast<unsigned long long>(v));
                opt.maxRetries = static_cast<unsigned>(v);
            } else if (arg == "--backoff-base-ms") {
                opt.backoffBaseMs =
                    sweep::parseU64(value(), "--backoff-base-ms");
            } else if (arg == "--backoff-cap-ms") {
                opt.backoffCapMs =
                    sweep::parseU64(value(), "--backoff-cap-ms");
            } else if (arg == "--connect-timeout-ms") {
                opt.connectTimeoutMs =
                    sweep::parseU64(value(), "--connect-timeout-ms");
            } else if (arg == "--fault") {
                const std::string spec = value();
                if (!parseFaultSpec(spec, opt.faults)) {
                    std::fprintf(stderr,
                                 "imo-worker: bad --fault spec '%s' "
                                 "(want name=prob)\n",
                                 spec.c_str());
                    return usage();
                }
            } else if (arg == "--fault-seed") {
                opt.faults.seed =
                    sweep::parseU64(value(), "--fault-seed");
            } else if (arg == "--log-json") {
                log_json_path = value();
            } else if (arg == "--worker-id") {
                worker_id = value();
            } else if (arg == "--quiet") {
                setLogLevel(LogLevel::Quiet);
            } else {
                std::fprintf(stderr,
                             "imo-worker: unknown option '%s'\n",
                             arg.c_str());
                return usage();
            }
        }
        sim_throw_if(opt.port == 0, ErrCode::BadConfig,
                     "imo-worker: --coordinator HOST:PORT is required");
    } catch (const SimException &e) {
        std::fprintf(stderr, "imo-worker: error [%s] %s\n",
                     errCodeName(e.code()),
                     e.error().message.c_str());
        return kExitBadInput;
    }

    {
        struct sigaction sa{};
        sa.sa_handler = onStopSignal;
        sa.sa_flags = SA_RESETHAND;
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);
    }

    // Structured session log: one JSON object per line, appended (a
    // reconnecting daemon keeps one continuous log), joinable with the
    // coordinator's manifest and progress file on the run id.
    std::ofstream log_json;
    if (!log_json_path.empty()) {
        if (worker_id.empty())
            worker_id = "worker-" + std::to_string(::getpid());
        log_json.open(log_json_path, std::ios::app);
        if (!log_json) {
            std::fprintf(stderr,
                         "imo-worker: cannot open --log-json '%s'\n",
                         log_json_path.c_str());
            return kExitBadInput;
        }
        opt.onEvent = [&](const farm::SessionEvent &ev) {
            const std::uint64_t ts = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now()
                        .time_since_epoch())
                    .count());
            log_json << "{\"ts_ms\":" << ts << ",\"worker\":\""
                     << stats::jsonEscape(worker_id)
                     << "\",\"run_id\":\""
                     << stats::jsonEscape(ev.runId) << "\",\"event\":\""
                     << stats::jsonEscape(ev.name) << "\",\"slot\":"
                     << ev.slot;
            if (!ev.detail.empty())
                log_json << ",\"detail\":\""
                         << stats::jsonEscape(ev.detail) << "\"";
            log_json << "}\n" << std::flush;
        };
    }

    const SimError err = farm::runWorker(opt, &g_stop);
    if (err.ok()) {
        inform("imo-worker: shut down cleanly");
        return 0;
    }
    std::fprintf(stderr, "imo-worker: error [%s] %s\n",
                 errCodeName(err.code), err.message.c_str());
    for (const std::string &note : err.context)
        std::fprintf(stderr, "    %s\n", note.c_str());
    switch (err.code) {
      case ErrCode::BadConfig:
        return kExitBadInput;
      case ErrCode::Interrupted:
        return kExitInterrupted;
      default:
        return kExitFailure;
    }
}
