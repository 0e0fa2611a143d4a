/**
 * @file
 * imo-report: post-mortem summary of one orchestrated run.
 *
 *   imo-report --manifest run.manifest.json [--store results/]
 *              [--trace farm_trace.json] [--top 5]
 *
 * Joins the telemetry artifacts one imo-farm / imo-sweep / imo-run
 * invocation leaves behind — the versioned run manifest (what was
 * asked, what happened per point, how it ended), the content-addressed
 * result store (which fragments are actually on disk), and the lease-
 * timeline trace (what the coordinator did, when) — into one
 * human-readable report. Nothing here re-runs anything: it is pure
 * artifact archaeology, so a failed overnight sweep can be diagnosed
 * from its droppings alone.
 *
 * Exit codes: the one table in README.md ("Command-line exit codes");
 * 0 even when the summarized run failed, 3 for an unreadable or
 * malformed artifact.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "cli.hh"
#include "common/json.hh"

namespace
{

using namespace imo;

void
usage()
{
    std::fprintf(stderr,
        "usage: imo-report --manifest PATH [options]\n"
        "options:\n"
        "  --manifest PATH   run manifest written by --manifest "
        "(required)\n"
        "  --store DIR       result-store directory to audit against "
        "the manifest\n"
        "  --trace PATH      chrome-format trace written by "
        "--trace-out\n"
        "  --top N           slowest points to list (default 5)\n");
}

std::uint64_t
uintField(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v && v->isNumber() ? v->asUint() : 0;
}

std::string
stringField(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v && v->isString() ? v->asString() : std::string();
}

/** One manifest point, flattened for sorting/printing. */
struct PointRow
{
    std::size_t index = 0;
    std::string desc;
    std::string status;
    std::string key;
    bool storeHit = false;
    std::uint64_t attempts = 0;
    std::uint64_t simulateMs = 0;
    std::uint64_t queueWaitMs = 0;
    std::string error;
};

/** Parse the JSON artifact at @p path; BadConfig if it cannot be. */
json::Value
parseArtifact(const std::string &path)
{
    json::Value v;
    std::string err;
    sim_throw_if(!json::parseFile(path, v, err), ErrCode::BadConfig,
                 "%s: %s", path.c_str(), err.c_str());
    return v;
}

int
runTool(cli::Args &args)
{
    std::string manifest_path;
    std::string store_dir;
    std::string trace_path;
    std::size_t top = 5;

    while (args.next()) {
        if (args.is("--manifest"))
            manifest_path = args.value();
        else if (args.is("--store"))
            store_dir = args.value();
        else if (args.is("--trace"))
            trace_path = args.value();
        else if (args.is("--top"))
            top = args.u64();
        else
            args.unknown();
    }
    if (manifest_path.empty())
        throw cli::UsageError("");

    const json::Value manifest = parseArtifact(manifest_path);
    sim_throw_if(!manifest.isObject() ||
                     manifest.find("manifest_schema_version") == nullptr,
                 ErrCode::BadConfig,
                 "%s is not a run manifest (missing "
                 "manifest_schema_version)",
                 manifest_path.c_str());

    // --- Header -----------------------------------------------------
    const std::string run_id = stringField(manifest, "run_id");
    const std::string status = stringField(manifest, "status");
    const double elapsed_s =
        static_cast<double>(uintField(manifest, "elapsed_ms")) / 1000.0;
    std::printf("run      %s  (%s, manifest schema %llu)\n",
                run_id.c_str(), stringField(manifest, "tool").c_str(),
                static_cast<unsigned long long>(
                    uintField(manifest, "manifest_schema_version")));
    std::printf("status   %s  after %.1fs\n", status.c_str(),
                elapsed_s);
    if (status != "ok") {
        const std::string code = stringField(manifest, "error_code");
        const std::string msg = stringField(manifest, "error_message");
        if (!code.empty() || !msg.empty())
            std::printf("error    [%s] %s\n", code.c_str(),
                        msg.c_str());
    }
    const std::string fault_spec = stringField(manifest, "fault_spec");
    if (!fault_spec.empty())
        std::printf("faults   %s  (seed %llu)\n", fault_spec.c_str(),
                    static_cast<unsigned long long>(
                        uintField(manifest, "fault_seed")));

    // --- Points -----------------------------------------------------
    std::vector<PointRow> rows;
    std::uint64_t total_attempts = 0;
    std::uint64_t store_hits = 0;
    std::size_t failed = 0;
    const json::Value *points = manifest.find("points");
    if (points && points->isArray()) {
        for (std::size_t i = 0; i < points->array().size(); ++i) {
            const json::Value &p = points->array()[i];
            PointRow row;
            row.index = i;
            row.desc = stringField(p, "desc");
            row.status = stringField(p, "status");
            row.key = stringField(p, "key");
            const json::Value *hit = p.find("store_hit");
            row.storeHit = hit && hit->isBool() && hit->asBool();
            row.attempts = uintField(p, "attempts");
            row.simulateMs = uintField(p, "simulate_ms");
            row.queueWaitMs = uintField(p, "queue_wait_ms");
            row.error = stringField(p, "error");
            total_attempts += row.attempts;
            if (row.storeHit)
                ++store_hits;
            if (row.status != "ok")
                ++failed;
            rows.push_back(std::move(row));
        }
    }
    std::printf("points   %llu/%zu done (%llu store hits)",
                static_cast<unsigned long long>(
                    uintField(manifest, "points_done")),
                rows.size(),
                static_cast<unsigned long long>(store_hits));
    const std::uint64_t simulated_points =
        rows.size() > store_hits
            ? static_cast<std::uint64_t>(rows.size()) - store_hits
            : 0;
    if (simulated_points && total_attempts > simulated_points)
        std::printf(", %llu extra attempts",
                    static_cast<unsigned long long>(total_attempts -
                                                    simulated_points));
    std::printf("\n");

    for (const PointRow &row : rows) {
        if (row.status == "ok")
            continue;
        std::printf("  %-9s #%zu %s%s%s\n", row.status.c_str(),
                    row.index, row.desc.c_str(),
                    row.error.empty() ? "" : ": ",
                    row.error.c_str());
    }

    std::vector<PointRow> slow = rows;
    std::sort(slow.begin(), slow.end(),
              [](const PointRow &a, const PointRow &b) {
                  return a.simulateMs > b.simulateMs;
              });
    if (!slow.empty() && slow.front().simulateMs > 0) {
        std::printf("slowest points:\n");
        for (std::size_t i = 0; i < slow.size() && i < top; ++i) {
            const PointRow &row = slow[i];
            if (row.simulateMs == 0)
                break;
            std::printf("  %6llu ms  %s  (attempts %llu, queued "
                        "%llu ms)\n",
                        static_cast<unsigned long long>(row.simulateMs),
                        row.desc.c_str(),
                        static_cast<unsigned long long>(row.attempts),
                        static_cast<unsigned long long>(
                            row.queueWaitMs));
        }
    }

    // --- Store audit ------------------------------------------------
    if (!store_dir.empty()) {
        std::uint64_t present = 0, missing = 0, keyless = 0;
        std::uint64_t bytes = 0;
        for (const PointRow &row : rows) {
            if (row.key.empty()) {
                ++keyless;
                continue;
            }
            struct stat st{};
            const std::string path =
                store_dir + "/" + row.key + ".imores";
            if (::stat(path.c_str(), &st) == 0) {
                ++present;
                bytes += static_cast<std::uint64_t>(st.st_size);
            } else {
                ++missing;
            }
        }
        std::printf("store    %llu/%llu records present (%llu bytes)",
                    static_cast<unsigned long long>(present),
                    static_cast<unsigned long long>(present + missing),
                    static_cast<unsigned long long>(bytes));
        if (keyless)
            std::printf(", %llu points ran without a store key",
                        static_cast<unsigned long long>(keyless));
        std::printf("\n");
    }

    // --- Trace join -------------------------------------------------
    if (!trace_path.empty()) {
        const json::Value trace = parseArtifact(trace_path);
        const json::Value *events = trace.find("traceEvents");
        sim_throw_if(!events || !events->isArray(), ErrCode::BadConfig,
                     "%s has no traceEvents array", trace_path.c_str());
        std::uint64_t total = 0, leases = 0, retries = 0;
        std::uint64_t stragglers = 0, heartbeats = 0;
        for (const json::Value &e : events->array()) {
            ++total;
            const std::string name = stringField(e, "name");
            if (name == "lease" || name == "lease-straggler" ||
                name == "lease-lost")
                ++leases;
            else if (name == "retry")
                ++retries;
            else if (name == "straggler-grant")
                ++stragglers;
            else if (name == "heartbeat")
                ++heartbeats;
        }
        std::printf("trace    %llu events: %llu lease spans, %llu "
                    "retries, %llu straggler grants, %llu "
                    "heartbeats\n",
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(leases),
                    static_cast<unsigned long long>(retries),
                    static_cast<unsigned long long>(stragglers),
                    static_cast<unsigned long long>(heartbeats));
    }

    // --- Aggregated stats (embedded) --------------------------------
    const json::Value *stats = manifest.find("stats");
    if (stats && stats->isObject()) {
        const json::Value *farm = stats->find("farm");
        if (farm && farm->isObject()) {
            const json::Value *hit_rate = farm->find("store_hit_rate");
            const json::Value *pps = farm->find("points_per_sec");
            if (hit_rate && hit_rate->isNumber() && pps &&
                pps->isNumber())
                std::printf("farm     %.2f points/s, store hit rate "
                            "%.2f\n",
                            pps->asDouble(), hit_rate->asDouble());
        }
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv);
    return cli::run("imo-report", usage, [&] { return runTool(args); });
}
