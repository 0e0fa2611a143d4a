/**
 * @file
 * imo-bench: the simulator's benchmark of record.
 *
 *   imo-bench [--workload NAME|all] [--seed S] [--seconds T] [--smoke]
 *             [--json FILE] [--scratch DIR]
 *   imo-bench --trace FILE [--workload NAME|all] [--seed S] [--smoke]
 *
 * Timed mode runs each workload as a closed loop: one client submits
 * one grid at a time to at most 4 pool threads or farm workers. Every
 * repetition is a freshly spawned copy of this program (--child rep),
 * one warm-up repetition is discarded, and repetitions continue until
 * --seconds of them have been measured (at least two). A sweep's
 * set-up is also sampled by copies that stop at the hand-off of the
 * grid (--child setup). Every repetition's report must match an
 * untimed reference run (--child ref) byte for byte; a mismatch counts
 * as a failed point and makes the exit status 1.
 *
 * Trace mode is a separate run: one plain repetition, then the same
 * workload replayed as the public calls of each layer inside spans,
 * written as Chrome trace JSON; it prints the per-layer metrics.
 *
 * Exit codes: 0 ok, 1 a failed or mismatched point, 2 usage error or a
 * refused configuration, 3 a run that could not complete.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/stats.hh"
#include "layers.hh"
#include "spans.hh"
#include "stats.hh"
#include "suite.hh"

namespace
{

using namespace imo;
using namespace imo::bench;

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

/** Set-up-only children per sweep workload (timedWorkload). */
constexpr unsigned kSetupSamples = 30;

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Options
{
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    double seconds = 14;
    bool smoke = false;
    std::string tracePath;
    std::string jsonPath;
    std::string scratch = ".bench_build/imo-bench";
};

int
usage()
{
    std::fprintf(stderr,
        "usage: imo-bench [--workload NAME|all] [--seed S] [--seconds T]\n"
        "                 [--smoke] [--json FILE] [--scratch DIR]\n"
        "       imo-bench --trace FILE [--workload NAME|all] [--seed S] "
        "[--smoke]\n"
        "  --workload W  fig2-full, fig2-sampled, geometry-mc, latency-lp,\n"
        "                farm-fig2, fig4-coherence, or all (default all)\n"
        "  --seed S      feeds WorkloadParams.seed and KernelParams.seed "
        "(default 1)\n"
        "  --seconds T   measured time per workload (default 14; at "
        "least 2 reps)\n"
        "  --smoke       tiny grids, 1 repetition, 2 threads; allowed "
        "in any build\n"
        "  --trace FILE  traced run: per-layer metrics, Chrome trace "
        "to FILE\n"
        "  --json FILE   write every metric, digest and setting to FILE\n"
        "  --scratch DIR directory for farm stores (default "
        ".bench_build/imo-bench)\n");
    return kExitUsage;
}

/** Spawn `imo-bench --child KIND ...` and collect its result. */
ChildResult
spawnChild(const char *kind, const RunSettings &s)
{
    int fds[2];
    sim_throw_if(::pipe(fds) != 0, ErrCode::Internal,
                 "imo-bench: pipe: %s", std::strerror(errno));
    const std::int64_t spawn_ns = steadyNs();
    const std::vector<std::string> args = {
        "imo-bench", "--child", kind, "--workload", s.workload,
        "--seed", std::to_string(s.seed), "--scratch", s.scratch,
        "--spawn-ns", std::to_string(spawn_ns),
        s.smoke ? "--smoke" : "--no-smoke"};
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    std::fflush(nullptr);
    const pid_t pid = ::fork();
    sim_throw_if(pid < 0, ErrCode::Internal, "imo-bench: fork: %s",
                 std::strerror(errno));
    if (pid == 0) {
        ::close(fds[0]);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[1]);
        ::execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    ::close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    struct rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }

    ChildResult r;
    std::string err;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        r.ok = false;
        r.error = simFormat("child %s exited with status %d", kind, status);
    } else if (!decodeChildResult(text, r, err)) {
        r.ok = false;
        r.error = "unreadable child result: " + err;
    }
    r.peakRssMb = ru.ru_maxrss / 1024.0; // Linux reports KiB
    return r;
}

/** Points of @p rep that failed or differ from the reference. */
std::uint64_t
badPoints(const ChildResult &rep, const ChildResult &ref)
{
    if (!rep.ok || rep.pointDigests.size() != ref.pointDigests.size())
        return std::max(rep.points, ref.points);
    std::uint64_t bad = rep.failed;
    for (std::size_t i = 0; i < rep.pointDigests.size(); ++i)
        bad += rep.pointDigests[i] != ref.pointDigests[i] ? 1 : 0;
    return std::min<std::uint64_t>(bad, rep.points);
}

/** One workload's outcome, for printing and the --json file. */
struct WorkloadReport
{
    std::string name;
    std::string mode; //!< "timed" or "traced"
    unsigned reps = 0;
    std::uint64_t points = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool digestsAgree = true;
    std::string referenceDigest;
    std::vector<std::string> repDigests;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
};

void
printReport(const WorkloadReport &w)
{
    std::printf("== %s (%s: %llu points x %u, %llu attempted, %llu "
                "failed) ==\n",
                w.name.c_str(), w.mode.c_str(),
                static_cast<unsigned long long>(w.points), w.reps,
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed));
    for (const Metric &m : w.metrics) {
        if (m.n)
            std::printf("  %-36s %14.6g %-8s (n=%llu)\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.n));
        else
            std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    std::printf("  digest reference %s", w.referenceDigest.c_str());
    for (const std::string &d : w.repDigests)
        std::printf(" %s", d.c_str());
    std::printf(" [%s]\n", w.digestsAgree ? "identical" : "MISMATCH");
    for (const std::string &e : w.errors)
        std::printf("  error: %s\n", e.c_str());
}

/** Compare every repetition with the reference; fill the counts. */
void
checkRepetitions(WorkloadReport &w, const ChildResult &ref,
                 const std::vector<ChildResult> &reps)
{
    w.referenceDigest = ref.digest;
    w.points = ref.points;
    if (!ref.ok)
        w.errors.push_back("reference: " + ref.error);
    for (const ChildResult &r : reps) {
        w.repDigests.push_back(r.digest);
        w.attempted += std::max(r.points, ref.points);
        w.failed += ref.ok ? badPoints(r, ref) : r.points;
        if (!r.ok || r.digest != ref.digest)
            w.digestsAgree = false;
        if (!r.ok)
            w.errors.push_back(r.error);
    }
    w.digestsAgree = w.digestsAgree && ref.ok;
}

WorkloadReport
timedWorkload(const Options &o, const RunSettings &s)
{
    WorkloadReport w;
    w.name = s.workload;
    w.mode = "timed";
    const ChildResult ref = spawnChild("ref", s);
    if (!o.smoke)
        spawnChild("rep", s); // warm-up, discarded

    // At least two repetitions, so a median never rests on one; a farm
    // repetition alone takes about 7 s.
    std::vector<ChildResult> reps;
    double measured = 0;
    while (o.smoke ? reps.empty()
                   : (reps.size() < 2 || measured < o.seconds)) {
        const std::int64_t t0 = steadyNs();
        reps.push_back(spawnChild("rep", s));
        measured += (steadyNs() - t0) * 1e-9;
        if (!reps.back().ok)
            break;
    }
    checkRepetitions(w, ref, reps);
    w.reps = static_cast<unsigned>(reps.size());

    // A sweep's set-up is 1.5-3 ms, mostly process start, and varies by
    // tens of percent from one process to the next, so it is sampled by
    // children that stop at the hand-off as well as by the repetitions.
    std::vector<double> wall, setup, rss, mops, pps, rerun, point_ms;
    if (findWorkload(s.workload)->engine == Engine::Sweep) {
        for (unsigned i = 0; i < kSetupSamples; ++i) {
            const ChildResult c = spawnChild("setup", s);
            if (c.ok)
                setup.push_back(c.setupS);
            else
                w.errors.push_back(c.error);
        }
    }
    for (const ChildResult &r : reps) {
        if (!r.ok || r.wallS <= 0)
            continue;
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        rss.push_back(r.peakRssMb);
        mops.push_back(r.simOps / (r.wallS * 1e6));
        pps.push_back(r.points / r.wallS);
        if (r.rerunS >= 0)
            rerun.push_back(r.rerunS);
        point_ms.insert(point_ms.end(), r.pointMs.begin(), r.pointMs.end());
    }
    const auto n = static_cast<std::uint64_t>(wall.size());
    w.metrics.push_back({"wall_s", median(wall), "s", n});
    w.metrics.push_back(
        {"point_ms_p50", hdQuantile(point_ms, 0.5), "ms", point_ms.size()});
    const double p90 = hdQuantile(point_ms, 0.9);
    if (countAbove(point_ms, p90) >= 10)
        w.metrics.push_back({"point_ms_p90", p90, "ms", point_ms.size()});
    w.metrics.push_back({"sim_mops", median(mops), "op/us", n});
    w.metrics.push_back({"points_per_s", median(pps), "1/s", n});
    w.metrics.push_back({"setup_s", median(setup), "s", setup.size()});
    w.metrics.push_back({"peak_rss_mb", median(rss), "MB", n});
    w.metrics.push_back(
        {"fail_ratio",
         w.attempted ? static_cast<double>(w.failed) / w.attempted : 1.0,
         "ratio", w.attempted});
    if (ref.cpiErrPct >= 0)
        w.metrics.push_back({"cpi_err_pct", ref.cpiErrPct, "%", ref.points});
    if (!rerun.empty())
        w.metrics.push_back({"rerun_s", median(rerun), "s", rerun.size()});
    return w;
}

/** Traced run of one workload; its spans are appended to @p all. */
WorkloadReport
tracedWorkload(const RunSettings &s, SpanRecorder &all)
{
    WorkloadReport w;
    w.name = s.workload;
    w.mode = "traced";
    const ChildResult ref = spawnChild("ref", s);
    const ChildResult plain = spawnChild("rep", s);
    checkRepetitions(w, ref, {plain});
    w.reps = 1;
    if (plain.ok) {
        SpanRecorder rec;
        w.metrics = runTraced(s, rec, plain);
        all.append(rec);
    }
    return w;
}

void
writeJson(const std::string &path, const Options &o,
          const std::vector<WorkloadReport> &reports)
{
    std::ofstream f(path);
    sim_throw_if(!f, ErrCode::BadConfig, "imo-bench: cannot write '%s'",
                 path.c_str());
    f << simFormat(
        "{\"env\":{\"build_type\":\"%s\",\"ndebug\":%s,\"nproc\":%u,"
        "\"jobs\":%u,\"seed\":%llu,\"git_sha\":\"%s\",\"smoke\":%s,"
        "\"seconds\":%.17g},\"workloads\":{",
        IMO_BENCH_BUILD_TYPE, kOptimizedBuild ? "true" : "false",
        std::thread::hardware_concurrency(), benchJobs(o.smoke),
        static_cast<unsigned long long>(o.seed), IMO_BENCH_GIT_SHA,
        o.smoke ? "true" : "false", o.seconds);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport &w = reports[i];
        f << (i ? "," : "") << '"' << w.name << "\":{";
        f << simFormat("\"mode\":\"%s\",\"correct\":%s,\"reps\":%u,"
                       "\"points\":%llu,\"attempted\":%llu,"
                       "\"failed\":%llu,",
                       w.mode.c_str(),
                       w.failed == 0 && w.digestsAgree && w.errors.empty()
                           ? "true"
                           : "false",
                       w.reps, static_cast<unsigned long long>(w.points),
                       static_cast<unsigned long long>(w.attempted),
                       static_cast<unsigned long long>(w.failed));
        f << "\"digests\":{\"reference\":\"" << w.referenceDigest
          << "\",\"repetitions\":[";
        for (std::size_t k = 0; k < w.repDigests.size(); ++k)
            f << (k ? "," : "") << '"' << w.repDigests[k] << '"';
        f << "],\"identical\":" << (w.digestsAgree ? "true" : "false")
          << "},\"errors\":[";
        for (std::size_t k = 0; k < w.errors.size(); ++k)
            f << (k ? "," : "") << '"' << stats::jsonEscape(w.errors[k])
              << '"';
        f << "],\"metrics\":{";
        for (std::size_t k = 0; k < w.metrics.size(); ++k) {
            const Metric &m = w.metrics[k];
            f << (k ? "," : "")
              << simFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\","
                           "\"n\":%llu}",
                           m.name.c_str(), m.value, m.unit.c_str(),
                           static_cast<unsigned long long>(m.n));
        }
        f << "}}";
    }
    f << "}}\n";
}

int
childMain(int argc, char **argv)
{
    RunSettings s;
    std::string kind;
    std::int64_t spawn_ns = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const std::string v = argv[i + 1];
        if (a == "--child")
            kind = v;
        else if (a == "--workload")
            s.workload = v;
        else if (a == "--seed")
            s.seed = std::stoull(v);
        else if (a == "--scratch")
            s.scratch = v;
        else if (a == "--spawn-ns")
            spawn_ns = std::stoll(v);
    }
    s.smoke = std::string(argv[argc - 1]) == "--smoke";
    try {
        const ChildResult r = kind == "ref"     ? runReference(s)
                              : kind == "setup" ? runSetup(s, spawn_ns)
                                                : runRepetition(s, spawn_ns);
        std::fputs(encodeChildResult(r).c_str(), stdout);
        return 0;
    } catch (const SimException &e) {
        std::fprintf(stderr, "imo-bench child: %s\n",
                     e.error().format().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "imo-bench child: %s\n", e.what());
    }
    return kExitError;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 2 && std::string(argv[1]) == "--child")
        return childMain(argc, argv);

    Options o;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throwSimError(ErrCode::BadConfig,
                                  "imo-bench: %s needs a value", a.c_str());
                return argv[++i];
            };
            if (a == "--workload") {
                const std::string v = value();
                if (v != "all") {
                    sim_throw_if(!findWorkload(v), ErrCode::BadConfig,
                                 "imo-bench: unknown workload '%s'",
                                 v.c_str());
                    o.workloads.push_back(v);
                }
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--smoke") {
                o.smoke = true;
            } else if (a == "--trace") {
                o.tracePath = value();
            } else if (a == "--json") {
                o.jsonPath = value();
            } else if (a == "--scratch") {
                o.scratch = value();
            } else {
                std::fprintf(stderr, "imo-bench: unknown option '%s'\n",
                             a.c_str());
                return usage();
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    }
    if (!kOptimizedBuild && !o.smoke) {
        std::fprintf(stderr,
                     "imo-bench: refusing to report timings from a build "
                     "without NDEBUG (build type '%s'); use a Release "
                     "build or --smoke\n",
                     IMO_BENCH_BUILD_TYPE);
        return kExitUsage;
    }
    if (o.workloads.empty())
        for (const Workload &w : workloads())
            o.workloads.push_back(w.name);

    std::printf("imo-bench: build %s (%s), git %s, nproc %u, jobs %u, "
                "seed %llu%s\n",
                IMO_BENCH_BUILD_TYPE, kOptimizedBuild ? "NDEBUG" : "asserts",
                IMO_BENCH_GIT_SHA, std::thread::hardware_concurrency(),
                benchJobs(o.smoke), static_cast<unsigned long long>(o.seed),
                o.smoke ? ", smoke" : "");
    std::fflush(stdout);

    std::vector<WorkloadReport> reports;
    bool clean = true;
    try {
        std::filesystem::create_directories(o.scratch);
        SpanRecorder rec;
        for (const std::string &name : o.workloads) {
            RunSettings s;
            s.workload = name;
            s.seed = o.seed;
            s.smoke = o.smoke;
            s.scratch = o.scratch;
            reports.push_back(o.tracePath.empty() ? timedWorkload(o, s)
                                                  : tracedWorkload(s, rec));
            printReport(reports.back());
            std::fflush(stdout);
            const WorkloadReport &w = reports.back();
            clean = clean && w.failed == 0 && w.digestsAgree &&
                    w.errors.empty();
        }
        if (!o.tracePath.empty()) {
            std::ofstream f(o.tracePath);
            sim_throw_if(!f, ErrCode::BadConfig,
                         "imo-bench: cannot write '%s'",
                         o.tracePath.c_str());
            rec.writeChromeTrace(f);
            std::printf("trace: %zu spans written to %s\n",
                        rec.spans().size(), o.tracePath.c_str());
        }
        if (!o.jsonPath.empty())
            writeJson(o.jsonPath, o, reports);
    } catch (const SimException &e) {
        std::fprintf(stderr, "imo-bench: %s\n", e.error().format().c_str());
        return kExitError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "imo-bench: %s\n", e.what());
        return kExitError;
    }
    return clean ? 0 : kExitFailed;
}
