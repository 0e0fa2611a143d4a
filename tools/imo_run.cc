/**
 * @file
 * imo-run: command-line driver for the simulator.
 *
 *   imo-run --workload compress [--machine ooo|inorder]
 *           [--mode N|S|U|CC] [--len K] [--scale F] [--seed N] [--csv]
 *   imo-run --asm file.mrisc [--machine ...] [--dump]
 *   imo-run --list
 *
 * Runs the selected program through functional execution plus the
 * detailed timing model and prints the result (or CSV for scripting).
 *
 * Exit codes:
 *   0  success
 *   2  usage error (bad flags)
 *   3  bad input (BadConfig / BadProgram)
 *   4  simulation failure (Deadlock / RunawayExecution / ...)
 *   5  interrupted (SIGINT/SIGTERM; partial outputs were flushed)
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/manifest.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "core/informing.hh"
#include "isa/asm.hh"
#include "isa/disasm.hh"
#include "isa/verify.hh"
#include "common/stats.hh"
#include "obs/observer.hh"
#include "pipeline/simulate.hh"
#include "sample/sample.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;

constexpr int kExitUsage = 2;       //!< bad command line
constexpr int kExitBadInput = 3;    //!< BadConfig / BadProgram
constexpr int kExitSimError = 4;    //!< Deadlock / Runaway / fault / bug
constexpr int kExitInterrupted = 5; //!< stopped by SIGINT/SIGTERM

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

/** Route SIGINT/SIGTERM to the cooperative stop flag: the simulation
 *  loop notices, flushes a resume checkpoint if one was requested, and
 *  unwinds with a structured Interrupted error instead of dying with
 *  partial output. A second signal falls back to the default (kill)
 *  disposition so a wedged run can still be stopped. */
void
installStopHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sa.sa_flags = SA_RESETHAND;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

int
usage()
{
    std::fprintf(stderr,
        "usage: imo-run --workload <name> | --asm <file> | --list\n"
        "  --machine ooo|inorder   timing model (default ooo)\n"
        "  --mode N|S|U|CC         informing instrumentation "
        "(default N)\n"
        "  --len K                 generic handler length "
        "(default 10)\n"
        "  --scale F               workload scale factor (default 1)\n"
        "  --seed N                workload seed\n"
        "  --dump                  print the program and exit\n"
        "  --csv                   one CSV row instead of a report\n"
        "  --watchdog N            deadlock watchdog threshold in "
        "cycles (0 disables)\n"
        "  --max-insts N           runaway-execution instruction "
        "budget\n"
        "  --fault NAME=PROB       enable fault injection at NAME "
        "with probability PROB\n"
        "                          (repeatable; see --fault list)\n"
        "  --fault-seed N          fault-injection RNG seed\n"
        "  --checkpoint-out PATH   write final state (or, on failure, "
        "a reproducer\n"
        "                          of the most recent checkpoint) to "
        "PATH\n"
        "  --checkpoint-in PATH    restore state from PATH before "
        "running\n"
        "  --checkpoint-every N    checkpoint every N retired "
        "instructions\n"
        "  --sample U:W:M          sampled simulation: fast-forward U "
        "insts with\n"
        "                          functional warming, warm up the "
        "timing model for W,\n"
        "                          measure M; repeats to end of "
        "program\n"
        "  --sample-target F       extend sampling (phase-offset "
        "passes) until the\n"
        "                          CPI 95%% CI is within fraction F of "
        "the mean\n"
        "  --sample-passes N       extension pass limit for "
        "--sample-target (default 8)\n"
        "  --sample-preset P       named U:W:M schedule preset "
        "(default, periodic);\n"
        "                          an explicit --sample overrides it\n"
        "  --stats                 print the full stats tree after the "
        "run\n"
        "  --stats-json PATH       write the stats tree as JSON to PATH "
        "('-' for stdout)\n"
        "  --trace-out PATH        write structured event trace to "
        "PATH\n"
        "  --trace-format F        chrome (trace_event JSON, default) "
        "or jsonl\n"
        "  --trace-categories CSV  categories to trace (default all): "
        "fetch,issue,grad,\n"
        "                          mem,mshr,trap,coh,sweep,farm,store,"
        "net\n"
        "  --manifest PATH         write a versioned run manifest "
        "(run id, wall\n"
        "                          time, final status)\n"
        "  --profile               print the per-PC miss profile after "
        "the run\n"
        "  --profile-top N         entries shown by --profile "
        "(default 10)\n"
        "  --quiet                 suppress warn/info diagnostics "
        "(also: IMO_LOG=quiet)\n"
        "  --verbose               full diagnostics (default; also: "
        "IMO_LOG=info)\n");
    return kExitUsage;
}

int
listFaultPoints()
{
    std::fprintf(stderr, "fault points:\n");
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        std::fprintf(stderr, "  %s\n",
                     faultPointName(static_cast<FaultPoint>(i)));
    }
    return kExitUsage;
}

/** Print a structured error, context chain and all, to stderr. */
void
printError(const SimError &err)
{
    std::fprintf(stderr, "imo-run: error [%s] %s\n",
                 errCodeName(err.code), err.message.c_str());
    for (const std::string &note : err.context)
        std::fprintf(stderr, "    %s\n", note.c_str());
}

int
exitCodeFor(ErrCode code)
{
    switch (code) {
      case ErrCode::BadConfig:
      case ErrCode::BadProgram:
        return kExitBadInput;
      case ErrCode::Interrupted:
        return kExitInterrupted;
      default:
        return kExitSimError;
    }
}

/** Write the run manifest (telemetry only — failures are warnings and
 *  never change the run's outputs or exit code). */
void
emitManifest(const std::string &path,
             const std::vector<std::string> &args,
             const std::string &desc, const std::string &fault_spec,
             std::uint64_t fault_seed, const char *status,
             const SimError *err, std::uint64_t elapsed_ms,
             const std::string &stats_json)
{
    if (path.empty())
        return;
    manifest::Manifest m;
    m.tool = "imo-run";
    m.runId = manifest::makeRunId("imo-run");
    m.args = args;
    m.faultSpec = fault_spec;
    m.faultSeed = fault_seed;
    m.status = status;
    if (err) {
        m.errorCode = errCodeName(err->code);
        m.errorMessage = err->message;
    }
    m.elapsedMs = elapsed_ms;
    m.pointsTotal = 1;
    manifest::PointEntry e;
    e.desc = desc;
    e.attempts = 1;
    e.simulateMs = elapsed_ms;
    e.endMs = elapsed_ms;
    if (err) {
        e.status = "failed";
        e.error = err->message;
    } else {
        m.pointsDone = 1;
    }
    m.points.push_back(std::move(e));
    m.statsJson = stats_json;
    std::string werr;
    if (!manifest::writeManifestFile(path, m, werr))
        warn("imo-run: %s", werr.c_str());
}

/** Wall-clock milliseconds (steady), for manifest timings. */
std::uint64_t
steadyMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string asm_path;
    std::string machine_name = "ooo";
    std::string mode_name = "N";
    std::uint32_t handler_len = 10;
    workloads::WorkloadParams wp;
    bool dump = false;
    bool csv = false;
    bool list = false;
    bool have_watchdog = false;
    Cycle watchdog_cycles = 0;
    bool have_max_insts = false;
    std::uint64_t max_insts = 0;
    FaultSchedule fault_schedule;
    pipeline::SimulateOptions sim_options;
    bool want_stats = false;
    std::string stats_json_path;
    std::string trace_path;
    std::string trace_format = "chrome";
    std::string trace_categories = "all";
    bool want_profile = false;
    std::size_t profile_top = 10;
    std::string sample_spec;
    double sample_target = 0.0;
    std::uint32_t sample_passes = 0;
    std::string sample_preset;
    std::string manifest_path;
    std::string fault_spec_joined;

    const std::vector<std::string> cli_args(argv + 1, argv + argc);

    initLogLevelFromEnv();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "imo-run: missing value for %s\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        const char *val = nullptr;
        if (arg == "--workload") {
            if (!(val = next())) return usage();
            workload = val;
        } else if (arg == "--asm") {
            if (!(val = next())) return usage();
            asm_path = val;
        } else if (arg == "--machine") {
            if (!(val = next())) return usage();
            machine_name = val;
        } else if (arg == "--mode") {
            if (!(val = next())) return usage();
            mode_name = val;
        } else if (arg == "--len") {
            if (!(val = next())) return usage();
            handler_len = static_cast<std::uint32_t>(atoi(val));
        } else if (arg == "--scale") {
            if (!(val = next())) return usage();
            wp.scale = atof(val);
        } else if (arg == "--seed") {
            if (!(val = next())) return usage();
            wp.seed = static_cast<std::uint64_t>(atoll(val));
        } else if (arg == "--watchdog") {
            if (!(val = next())) return usage();
            watchdog_cycles = static_cast<Cycle>(atoll(val));
            have_watchdog = true;
        } else if (arg == "--max-insts") {
            if (!(val = next())) return usage();
            max_insts = static_cast<std::uint64_t>(atoll(val));
            have_max_insts = true;
        } else if (arg == "--fault") {
            if (!(val = next())) return usage();
            if (std::strcmp(val, "list") == 0)
                return listFaultPoints();
            if (!parseFaultSpec(val, fault_schedule)) {
                std::fprintf(stderr,
                             "imo-run: bad --fault spec '%s' "
                             "(want name=prob; see --fault list)\n",
                             val);
                return usage();
            }
            if (!fault_spec_joined.empty())
                fault_spec_joined += ',';
            fault_spec_joined += val;
        } else if (arg == "--fault-seed") {
            if (!(val = next())) return usage();
            fault_schedule.seed =
                static_cast<std::uint64_t>(atoll(val));
        } else if (arg == "--checkpoint-out") {
            if (!(val = next())) return usage();
            sim_options.checkpointOut = val;
        } else if (arg == "--checkpoint-in") {
            if (!(val = next())) return usage();
            sim_options.checkpointIn = val;
        } else if (arg == "--checkpoint-every") {
            if (!(val = next())) return usage();
            sim_options.checkpointEvery =
                static_cast<std::uint64_t>(atoll(val));
        } else if (arg == "--sample") {
            if (!(val = next())) return usage();
            sample_spec = val;
        } else if (arg == "--sample-target") {
            if (!(val = next())) return usage();
            sample_target = atof(val);
        } else if (arg == "--sample-passes") {
            if (!(val = next())) return usage();
            sample_passes = static_cast<std::uint32_t>(atoi(val));
        } else if (arg == "--sample-preset") {
            if (!(val = next())) return usage();
            sample_preset = val;
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--stats-json") {
            if (!(val = next())) return usage();
            stats_json_path = val;
        } else if (arg == "--trace-out") {
            if (!(val = next())) return usage();
            trace_path = val;
        } else if (arg == "--trace-format") {
            if (!(val = next())) return usage();
            trace_format = val;
            if (trace_format != "chrome" && trace_format != "jsonl")
                return usage();
        } else if (arg == "--trace-categories") {
            if (!(val = next())) return usage();
            trace_categories = val;
        } else if (arg == "--manifest") {
            if (!(val = next())) return usage();
            manifest_path = val;
        } else if (arg == "--profile") {
            want_profile = true;
        } else if (arg == "--profile-top") {
            if (!(val = next())) return usage();
            profile_top = static_cast<std::size_t>(atoll(val));
            want_profile = true;
        } else if (arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else if (arg == "--verbose") {
            setLogLevel(LogLevel::Info);
        } else if (arg == "--dump") {
            dump = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--list") {
            list = true;
        } else {
            std::fprintf(stderr, "imo-run: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    if (list) {
        for (const auto &bm : workloads::suite()) {
            std::printf("%-10s %-3s %s\n", bm.name.c_str(),
                        bm.floatingPoint ? "fp" : "int",
                        bm.description.c_str());
        }
        return 0;
    }
    if (workload.empty() == asm_path.empty())
        return usage();

    try {
        // Build the base program.
        isa::Program base;
        if (!workload.empty()) {
            sim_throw_if(!workloads::find(workload), ErrCode::BadConfig,
                         "unknown workload '%s' (try --list)",
                         workload.c_str());
            base = workloads::build(workload, wp);
        } else {
            std::ifstream in(asm_path);
            sim_throw_if(!in, ErrCode::BadProgram, "cannot open %s",
                         asm_path.c_str());
            std::ostringstream text;
            text << in.rdbuf();
            const isa::AsmResult r = isa::assemble(text.str());
            sim_throw_if(!r.ok, ErrCode::BadProgram, "%s:%d: %s",
                         asm_path.c_str(), r.errorLine,
                         r.error.c_str());
            base = r.program;
        }

        // Instrumentation mode.
        core::InformingMode mode;
        if (mode_name == "N") mode = core::InformingMode::None;
        else if (mode_name == "S") mode = core::InformingMode::TrapSingle;
        else if (mode_name == "U") mode = core::InformingMode::TrapUnique;
        else if (mode_name == "CC") mode = core::InformingMode::CondCode;
        else return usage();
        const isa::Program prog =
            core::instrument(base, mode, {.length = handler_len});

        if (dump) {
            std::fputs(isa::formatAssembly(prog).c_str(), stdout);
            return 0;
        }

        pipeline::MachineConfig machine;
        if (machine_name == "ooo")
            machine = pipeline::makeOutOfOrderConfig();
        else if (machine_name == "inorder")
            machine = pipeline::makeInOrderConfig();
        else
            return usage();

        if (have_watchdog)
            machine.watchdogCycles = watchdog_cycles;
        if (have_max_insts)
            machine.maxInstructions = max_insts;

        FaultInjector faults(fault_schedule);
        if (fault_schedule.any())
            machine.faults = &faults;

        obs::Observer observer;
        const bool want_obs = want_stats || want_profile ||
            !stats_json_path.empty() || !trace_path.empty();
        if (!trace_path.empty()) {
            std::uint32_t mask = 0;
            std::string why;
            if (!obs::parseTraceCategories(trace_categories, mask,
                                           why)) {
                std::fprintf(stderr, "imo-run: %s\n", why.c_str());
                return usage();
            }
            observer.trace.enable(mask);
        }
        if (want_obs)
            machine.obs = &observer;

        // Validate eagerly so input errors are reported before any
        // simulation output; simulate() re-validates defensively.
        machine.validate();
        isa::verifyProgram(prog);

        installStopHandlers();
        sim_options.stopFlag = &g_stop;

        const std::string run_desc =
            (workload.empty() ? asm_path : workload) + " machine=" +
            machine_name + " mode=" + mode_name;
        const std::uint64_t run_start = steadyMs();
        const auto statusOf = [](const SimError &err) {
            return err.code == ErrCode::Interrupted ? "interrupted"
                                                    : "failed";
        };

        if (!sample_spec.empty() || !sample_preset.empty()) {
            sample::SampleParams sp;
            if (!sample_preset.empty())
                sp = sample::SampleParams::preset(sample_preset,
                                                  workload);
            if (!sample_spec.empty())
                sp = sample::SampleParams::parse(sample_spec);

            if (sample_target > 0.0)
                sp.targetRelErr = sample_target;
            if (sample_passes > 0)
                sp.maxPasses = sample_passes;
            if (sim_options.checkpointEvery) {
                warn("--checkpoint-every is ignored in sampled mode");
                sim_options.checkpointEvery = 0;
            }

            sample::Sampler sampler(prog, machine, sp);
            const sample::SampleEstimate est =
                sampler.run(sim_options);

            if (want_obs) {
                stats::StatGroup root("sim");
                sampler.registerStats(root);
                std::ostringstream text;
                root.dump(text);
                observer.statsText = text.str();
                std::ostringstream json;
                json << "{\"sim\":";
                root.dumpJson(json);
                json << "}\n";
                observer.statsJson = json.str();
            }
            if (!stats_json_path.empty()) {
                if (stats_json_path == "-") {
                    std::fputs(observer.statsJson.c_str(), stdout);
                } else {
                    std::ofstream out(stats_json_path);
                    sim_throw_if(!out, ErrCode::BadConfig,
                                 "cannot write %s",
                                 stats_json_path.c_str());
                    out << observer.statsJson;
                }
            }

            emitManifest(manifest_path, cli_args, run_desc,
                         fault_spec_joined, fault_schedule.seed,
                         est.ok ? "ok" : statusOf(est.error),
                         est.ok ? nullptr : &est.error,
                         steadyMs() - run_start, observer.statsJson);

            if (!est.ok) {
                printError(est.error);
                return exitCodeFor(est.error.code);
            }

            if (csv) {
                std::printf(
                    "%s,%s,%s,%u,%s,%llu,%u,%.6f,%.6f,%.0f,%llu,"
                    "%.6f,%.6f,%.6f,%llu\n",
                    prog.name().c_str(), machine.name.c_str(),
                    mode_name.c_str(), handler_len, est.spec.c_str(),
                    static_cast<unsigned long long>(est.windows),
                    est.passes, est.cpiMean, est.cpiCi95,
                    est.estCycles(),
                    static_cast<unsigned long long>(est.instructions),
                    est.missRateMean, est.missRateCi95,
                    est.exactMissRate(),
                    static_cast<unsigned long long>(
                        est.detailedInstructions));
                return 0;
            }

            std::printf("program   %s  (%u static insts, %u static "
                        "refs)\n",
                        prog.name().c_str(), prog.size(),
                        prog.numStaticRefs());
            std::printf("machine   %s   mode %s   sampled %s\n\n",
                        machine.name.c_str(), mode_name.c_str(),
                        est.spec.c_str());
            std::printf("instructions  %12llu   (exact)\n",
                        static_cast<unsigned long long>(
                            est.instructions));
            std::printf("windows       %12llu   across %u pass(es)\n",
                        static_cast<unsigned long long>(est.windows),
                        est.passes);
            std::printf("cpi           %12.4f   +/- %.4f (95%% CI; "
                        "IPC %.3f)\n",
                        est.cpiMean, est.cpiCi95, est.ipcMean());
            std::printf("est cycles    %12.0f\n", est.estCycles());
            std::printf("detailed      %12llu   insts through the "
                        "timing model (%.1f%%)\n",
                        static_cast<unsigned long long>(
                            est.detailedInstructions),
                        est.instructions
                            ? 100.0 * est.detailedInstructions /
                                  est.instructions
                            : 0.0);
            std::printf("L1 miss rate  %12.4f   +/- %.4f (exact "
                        "%.4f)\n",
                        est.missRateMean, est.missRateCi95,
                        est.exactMissRate());
            std::printf("traps         %12llu\n",
                        static_cast<unsigned long long>(est.traps));
            if (!sim_options.checkpointIn.empty())
                std::printf("checkpoint    resumed at instruction "
                            "%llu (from %s)\n",
                            static_cast<unsigned long long>(
                                est.resumedInstructions),
                            sim_options.checkpointIn.c_str());
            if (!sim_options.checkpointOut.empty())
                std::printf("checkpoint    final state written to "
                            "%s\n",
                            sim_options.checkpointOut.c_str());
            if (want_stats) {
                std::printf("\n");
                std::fputs(observer.statsText.c_str(), stdout);
            }
            return 0;
        }

        func::ExecStats es;
        const pipeline::RunResult r =
            pipeline::simulate(prog, machine, sim_options, &es);

        // Observability outputs are emitted on success and on failure
        // alike: partial stats and traces are part of a failure report.
        if (!stats_json_path.empty()) {
            if (stats_json_path == "-") {
                std::fputs(observer.statsJson.c_str(), stdout);
            } else {
                std::ofstream out(stats_json_path);
                sim_throw_if(!out, ErrCode::BadConfig, "cannot write %s",
                             stats_json_path.c_str());
                out << observer.statsJson;
            }
        }
        if (!trace_path.empty()) {
            std::ofstream out(trace_path);
            sim_throw_if(!out, ErrCode::BadConfig, "cannot write %s",
                         trace_path.c_str());
            if (trace_format == "chrome")
                observer.trace.writeChromeTrace(out);
            else
                observer.trace.writeJsonl(out);
            if (observer.trace.dropped()) {
                warn("trace capacity reached: %llu events dropped",
                     static_cast<unsigned long long>(
                         observer.trace.dropped()));
            }
        }

        emitManifest(manifest_path, cli_args, run_desc,
                     fault_spec_joined, fault_schedule.seed,
                     r.ok ? "ok" : statusOf(r.error),
                     r.ok ? nullptr : &r.error, steadyMs() - run_start,
                     observer.statsJson);

        if (!r.ok) {
            printError(r.error);
            if (!sim_options.checkpointOut.empty()) {
                const bool interrupted =
                    r.error.code == ErrCode::Interrupted;
                std::fprintf(stderr,
                             "imo-run: %s written to %s (resume with "
                             "--checkpoint-in)\n",
                             interrupted ? "interrupted state"
                                         : "failure reproducer",
                             sim_options.checkpointOut.c_str());
            }
            return exitCodeFor(r.error.code);
        }

        if (csv) {
            std::printf(
                "%s,%s,%s,%u,%llu,%llu,%.4f,%llu,%llu,%llu,%llu\n",
                prog.name().c_str(), machine.name.c_str(),
                mode_name.c_str(), handler_len,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                r.ipc(),
                static_cast<unsigned long long>(r.dataRefs),
                static_cast<unsigned long long>(r.l1Misses),
                static_cast<unsigned long long>(r.traps),
                static_cast<unsigned long long>(r.mispredicts));
            return 0;
        }

        std::printf("program   %s  (%u static insts, %u static refs)\n",
                    prog.name().c_str(), prog.size(),
                    prog.numStaticRefs());
        std::printf("machine   %s   mode %s", machine.name.c_str(),
                    mode_name.c_str());
        if (mode != core::InformingMode::None)
            std::printf(" (handler %u insts)", handler_len);
        std::printf("\n\n");
        std::printf("cycles        %12llu\n",
                    static_cast<unsigned long long>(r.cycles));
        std::printf("instructions  %12llu   (IPC %.3f)\n",
                    static_cast<unsigned long long>(r.instructions),
                    r.ipc());
        std::printf("slots         %5.1f%% busy, %5.1f%% cache stall, "
                    "%5.1f%% other\n",
                    100 * r.busyFraction(),
                    100 * r.cacheStallFraction(),
                    100 * r.otherStallFraction());
        std::printf("data refs     %12llu   (L1 miss rate %.3f)\n",
                    static_cast<unsigned long long>(r.dataRefs),
                    r.dataRefs
                        ? static_cast<double>(r.l1Misses) / r.dataRefs
                        : 0.0);
        std::printf("traps         %12llu   handler insts %llu\n",
                    static_cast<unsigned long long>(r.traps),
                    static_cast<unsigned long long>(
                        r.handlerInstructions));
        std::printf("branches      %12llu   mispredicts %llu\n",
                    static_cast<unsigned long long>(r.condBranches),
                    static_cast<unsigned long long>(r.mispredicts));
        if (fault_schedule.any())
            std::printf("faults        %12llu   injected (%s)\n",
                        static_cast<unsigned long long>(
                            r.faultsInjected),
                        faults.summary().c_str());
        if (!sim_options.checkpointIn.empty())
            std::printf("checkpoint    resumed at instruction %llu "
                        "(from %s)\n",
                        static_cast<unsigned long long>(
                            r.resumedInstructions),
                        sim_options.checkpointIn.c_str());
        if (r.checkpointsTaken)
            std::printf("checkpoint    %llu periodic images taken\n",
                        static_cast<unsigned long long>(
                            r.checkpointsTaken));
        if (!sim_options.checkpointOut.empty())
            std::printf("checkpoint    final state written to %s\n",
                        sim_options.checkpointOut.c_str());
        if (want_stats) {
            std::printf("\n");
            std::fputs(observer.statsText.c_str(), stdout);
        }
        if (want_profile) {
            std::printf("\n%s",
                        observer.profiler.report(profile_top).c_str());
        }
        return 0;
    } catch (const SimException &e) {
        printError(e.error());
        emitManifest(manifest_path, cli_args,
                     workload.empty() ? asm_path : workload,
                     fault_spec_joined, fault_schedule.seed, "failed",
                     &e.error(), 0, "");
        return exitCodeFor(e.error().code);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "imo-run: internal error: %s\n", e.what());
        return kExitSimError;
    }
}
