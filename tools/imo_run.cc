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
 * Exit codes: the one table in README.md ("Command-line exit codes");
 * on SIGINT/SIGTERM partial outputs are flushed before exit 5.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/error.hh"
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
#include "sweep/gridcli.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;

void
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
}

int
listFaultPoints()
{
    std::fprintf(stderr, "fault points:\n");
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        std::fprintf(stderr, "  %s\n",
                     faultPointName(static_cast<FaultPoint>(i)));
    }
    return cli::kExitUsage;
}

/** The command line of one imo-run invocation. */
struct Options
{
    std::string workload;
    std::string asmPath;
    std::string machine = "ooo";
    std::string mode = "N";
    std::uint32_t handlerLen = 10;
    workloads::WorkloadParams wp;
    bool dump = false;
    bool csv = false;
    bool list = false;
    std::optional<Cycle> watchdog;
    std::optional<std::uint64_t> maxInsts;
    FaultSchedule faults;
    std::string faultSpec; //!< the --fault specs verbatim, for the manifest
    pipeline::SimulateOptions sim;
    bool stats = false;
    std::string statsJsonPath;
    std::string tracePath;
    std::string traceFormat = "chrome";
    std::string traceCategories = "all";
    bool profile = false;
    std::size_t profileTop = 10;
    std::string sample;
    double sampleTarget = 0.0;
    std::uint32_t samplePasses = 0;
    std::string samplePreset;
    std::string manifestPath;

    std::string
    desc() const
    {
        return workload.empty() ? asmPath : workload;
    }
};

/** Read the command line into @p o. @return a nonzero exit code when
 *  the run ends here (--fault list). */
int
parseArgs(cli::Args &args, Options &o)
{
    while (args.next()) {
        if (args.is("--workload")) {
            o.workload = args.value();
        } else if (args.is("--asm")) {
            o.asmPath = args.value();
        } else if (args.is("--machine")) {
            o.machine = args.value();
        } else if (args.is("--mode")) {
            o.mode = args.value();
        } else if (args.is("--len")) {
            o.handlerLen = static_cast<std::uint32_t>(args.u64(UINT32_MAX));
        } else if (args.is("--scale")) {
            o.wp.scale = sweep::parseScale(args.value());
        } else if (args.is("--seed")) {
            o.wp.seed = args.u64();
        } else if (args.is("--watchdog")) {
            o.watchdog = args.u64();
        } else if (args.is("--max-insts")) {
            o.maxInsts = args.u64();
        } else if (args.is("--fault")) {
            const std::string spec = args.value();
            if (spec == "list")
                return listFaultPoints();
            if (!parseFaultSpec(spec, o.faults))
                throw cli::UsageError("bad --fault spec '" + spec +
                                      "' (want name=prob; see --fault "
                                      "list)");
            o.faultSpec += (o.faultSpec.empty() ? "" : ",") + spec;
        } else if (args.is("--fault-seed")) {
            o.faults.seed = args.u64();
        } else if (args.is("--checkpoint-out")) {
            o.sim.checkpointOut = args.value();
        } else if (args.is("--checkpoint-in")) {
            o.sim.checkpointIn = args.value();
        } else if (args.is("--checkpoint-every")) {
            o.sim.checkpointEvery = args.u64();
        } else if (args.is("--sample")) {
            o.sample = args.value();
        } else if (args.is("--sample-target")) {
            o.sampleTarget = args.real();
        } else if (args.is("--sample-passes")) {
            o.samplePasses = static_cast<std::uint32_t>(args.u64(UINT32_MAX));
        } else if (args.is("--sample-preset")) {
            o.samplePreset = args.value();
        } else if (args.is("--stats")) {
            o.stats = true;
        } else if (args.is("--stats-json")) {
            o.statsJsonPath = args.value();
        } else if (args.is("--trace-out")) {
            o.tracePath = args.value();
        } else if (args.is("--trace-format")) {
            o.traceFormat = args.oneOf({"chrome", "jsonl"});
        } else if (args.is("--trace-categories")) {
            o.traceCategories = args.value();
        } else if (args.is("--manifest")) {
            o.manifestPath = args.value();
        } else if (args.is("--profile")) {
            o.profile = true;
        } else if (args.is("--profile-top")) {
            o.profileTop = args.u64();
            o.profile = true;
        } else if (args.is("--quiet")) {
            setLogLevel(LogLevel::Quiet);
        } else if (args.is("--verbose")) {
            setLogLevel(LogLevel::Info);
        } else if (args.is("--dump")) {
            o.dump = true;
        } else if (args.is("--csv")) {
            o.csv = true;
        } else if (args.is("--list")) {
            o.list = true;
        } else {
            args.unknown();
        }
    }
    return 0;
}

/** Write the run manifest (telemetry only — failures are warnings and
 *  never change the run's outputs or exit code). */
void
emitManifest(const Options &o, const cli::Args &args,
             const std::string &desc, const SimError &err,
             std::uint64_t elapsed_ms, const std::string &stats_json)
{
    if (o.manifestPath.empty())
        return;
    manifest::Manifest m =
        cli::manifestHeader("imo-run", args, err, elapsed_ms);
    m.faultSpec = o.faultSpec;
    m.faultSeed = o.faults.seed;
    m.pointsTotal = 1;
    manifest::PointEntry e;
    e.desc = desc;
    e.attempts = 1;
    e.simulateMs = elapsed_ms;
    e.endMs = elapsed_ms;
    if (!err.ok()) {
        e.status = "failed";
        e.error = err.message;
    } else {
        m.pointsDone = 1;
    }
    m.points.push_back(std::move(e));
    m.statsJson = stats_json;
    cli::writeManifest(o.manifestPath, m);
}

/** Build, simulate, and report the run @p o describes. */
int
runTool(const cli::Args &args, Options &o)
{
    if (o.list) {
        for (const auto &bm : workloads::suite()) {
            std::printf("%-10s %-3s %s\n", bm.name.c_str(),
                        bm.floatingPoint ? "fp" : "int",
                        bm.description.c_str());
        }
        return 0;
    }
    if (o.workload.empty() == o.asmPath.empty())
        throw cli::UsageError("");

    // Build the base program.
    isa::Program base;
    if (!o.workload.empty()) {
        sim_throw_if(!workloads::find(o.workload), ErrCode::BadConfig,
                     "unknown workload '%s' (try --list)",
                     o.workload.c_str());
        base = workloads::build(o.workload, o.wp);
    } else {
        std::ifstream in(o.asmPath);
        sim_throw_if(!in, ErrCode::BadProgram, "cannot open %s",
                     o.asmPath.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        const isa::AsmResult r = isa::assemble(text.str());
        sim_throw_if(!r.ok, ErrCode::BadProgram, "%s:%d: %s",
                     o.asmPath.c_str(), r.errorLine, r.error.c_str());
        base = r.program;
    }

    // Instrumentation mode.
    const core::InformingMode mode = sweep::parseModeName(o.mode);
    const isa::Program prog =
        core::instrument(base, mode, {.length = o.handlerLen});

    if (o.dump) {
        std::fputs(isa::formatAssembly(prog).c_str(), stdout);
        return 0;
    }

    pipeline::MachineConfig machine;
    if (o.machine == "ooo")
        machine = pipeline::makeOutOfOrderConfig();
    else if (o.machine == "inorder")
        machine = pipeline::makeInOrderConfig();
    else
        throw cli::UsageError("bad --machine value '" + o.machine + "'");

    if (o.watchdog)
        machine.watchdogCycles = *o.watchdog;
    if (o.maxInsts)
        machine.maxInstructions = *o.maxInsts;

    FaultInjector faults(o.faults);
    if (o.faults.any())
        machine.faults = &faults;

    obs::Observer observer;
    const bool want_obs = o.stats || o.profile ||
        !o.statsJsonPath.empty() || !o.tracePath.empty();
    if (!o.tracePath.empty()) {
        std::uint32_t mask = 0;
        std::string why;
        if (!obs::parseTraceCategories(o.traceCategories, mask, why))
            throw cli::UsageError(why);
        observer.trace.enable(mask);
    }
    if (want_obs)
        machine.obs = &observer;

    // Validate eagerly so input errors are reported before any
    // simulation output; simulate() re-validates defensively.
    machine.validate();
    isa::verifyProgram(prog);

    pipeline::SimulateOptions &sim = o.sim;
    sim.stopFlag = cli::installStopHandlers();

    const std::string run_desc =
        o.desc() + " machine=" + o.machine + " mode=" + o.mode;
    const std::uint64_t run_start = cli::steadyMs();

    if (!o.sample.empty() || !o.samplePreset.empty()) {
        sample::SampleParams sp;
        if (!o.samplePreset.empty())
            sp = sample::SampleParams::preset(o.samplePreset, o.workload);
        if (!o.sample.empty())
            sp = sample::SampleParams::parse(o.sample);

        if (o.sampleTarget > 0.0)
            sp.targetRelErr = o.sampleTarget;
        if (o.samplePasses > 0)
            sp.maxPasses = o.samplePasses;
        if (sim.checkpointEvery) {
            warn("--checkpoint-every is ignored in sampled mode");
            sim.checkpointEvery = 0;
        }

        sample::Sampler sampler(prog, machine, sp);
        const sample::SampleEstimate est = sampler.run(sim);

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
        cli::writeStatsJson(o.statsJsonPath, observer.statsJson);
        emitManifest(o, args, run_desc, est.ok ? SimError{} : est.error,
                     cli::steadyMs() - run_start, observer.statsJson);

        if (!est.ok) {
            cli::printError("imo-run", est.error);
            return cli::exitCodeFor(est.error.code);
        }

        if (o.csv) {
            std::printf(
                "%s,%s,%s,%u,%s,%llu,%u,%.6f,%.6f,%.0f,%llu,"
                "%.6f,%.6f,%.6f,%llu\n",
                prog.name().c_str(), machine.name.c_str(),
                o.mode.c_str(), o.handlerLen, est.spec.c_str(),
                static_cast<unsigned long long>(est.windows),
                est.passes, est.cpiMean, est.cpiCi95, est.estCycles(),
                static_cast<unsigned long long>(est.instructions),
                est.missRateMean, est.missRateCi95, est.exactMissRate(),
                static_cast<unsigned long long>(
                    est.detailedInstructions));
            return 0;
        }

        std::printf("program   %s  (%u static insts, %u static refs)\n",
                    prog.name().c_str(), prog.size(),
                    prog.numStaticRefs());
        std::printf("machine   %s   mode %s   sampled %s\n\n",
                    machine.name.c_str(), o.mode.c_str(),
                    est.spec.c_str());
        std::printf("instructions  %12llu   (exact)\n",
                    static_cast<unsigned long long>(est.instructions));
        std::printf("windows       %12llu   across %u pass(es)\n",
                    static_cast<unsigned long long>(est.windows),
                    est.passes);
        std::printf("cpi           %12.4f   +/- %.4f (95%% CI; IPC "
                    "%.3f)\n",
                    est.cpiMean, est.cpiCi95, est.ipcMean());
        std::printf("est cycles    %12.0f\n", est.estCycles());
        std::printf("detailed      %12llu   insts through the timing "
                    "model (%.1f%%)\n",
                    static_cast<unsigned long long>(
                        est.detailedInstructions),
                    est.instructions ? 100.0 * est.detailedInstructions /
                                           est.instructions
                                     : 0.0);
        std::printf("L1 miss rate  %12.4f   +/- %.4f (exact %.4f)\n",
                    est.missRateMean, est.missRateCi95,
                    est.exactMissRate());
        std::printf("traps         %12llu\n",
                    static_cast<unsigned long long>(est.traps));
        if (!sim.checkpointIn.empty())
            std::printf("checkpoint    resumed at instruction %llu "
                        "(from %s)\n",
                        static_cast<unsigned long long>(
                            est.resumedInstructions),
                        sim.checkpointIn.c_str());
        if (!sim.checkpointOut.empty())
            std::printf("checkpoint    final state written to %s\n",
                        sim.checkpointOut.c_str());
        if (o.stats) {
            std::printf("\n");
            std::fputs(observer.statsText.c_str(), stdout);
        }
        return 0;
    }

    func::ExecStats es;
    const pipeline::RunResult r =
        pipeline::simulate(prog, machine, sim, &es);

    // Observability outputs are emitted on success and on failure
    // alike: partial stats and traces are part of a failure report.
    cli::writeStatsJson(o.statsJsonPath, observer.statsJson);
    cli::writeTrace(observer.trace, o.tracePath, o.traceFormat);
    emitManifest(o, args, run_desc, r.ok ? SimError{} : r.error,
                 cli::steadyMs() - run_start, observer.statsJson);

    if (!r.ok) {
        cli::printError("imo-run", r.error);
        if (!sim.checkpointOut.empty()) {
            std::fprintf(stderr,
                         "imo-run: %s written to %s (resume with "
                         "--checkpoint-in)\n",
                         r.error.code == ErrCode::Interrupted
                             ? "interrupted state"
                             : "failure reproducer",
                         sim.checkpointOut.c_str());
        }
        return cli::exitCodeFor(r.error.code);
    }

    if (o.csv) {
        std::printf("%s,%s,%s,%u,%llu,%llu,%.4f,%llu,%llu,%llu,%llu\n",
                    prog.name().c_str(), machine.name.c_str(),
                    o.mode.c_str(), o.handlerLen,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.instructions),
                    r.ipc(), static_cast<unsigned long long>(r.dataRefs),
                    static_cast<unsigned long long>(r.l1Misses),
                    static_cast<unsigned long long>(r.traps),
                    static_cast<unsigned long long>(r.mispredicts));
        return 0;
    }

    std::printf("program   %s  (%u static insts, %u static refs)\n",
                prog.name().c_str(), prog.size(), prog.numStaticRefs());
    std::printf("machine   %s   mode %s", machine.name.c_str(),
                o.mode.c_str());
    if (mode != core::InformingMode::None)
        std::printf(" (handler %u insts)", o.handlerLen);
    std::printf("\n\n");
    std::printf("cycles        %12llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions  %12llu   (IPC %.3f)\n",
                static_cast<unsigned long long>(r.instructions), r.ipc());
    std::printf("slots         %5.1f%% busy, %5.1f%% cache stall, "
                "%5.1f%% other\n",
                100 * r.busyFraction(), 100 * r.cacheStallFraction(),
                100 * r.otherStallFraction());
    std::printf("data refs     %12llu   (L1 miss rate %.3f)\n",
                static_cast<unsigned long long>(r.dataRefs),
                r.dataRefs ? static_cast<double>(r.l1Misses) / r.dataRefs
                           : 0.0);
    std::printf("traps         %12llu   handler insts %llu\n",
                static_cast<unsigned long long>(r.traps),
                static_cast<unsigned long long>(r.handlerInstructions));
    std::printf("branches      %12llu   mispredicts %llu\n",
                static_cast<unsigned long long>(r.condBranches),
                static_cast<unsigned long long>(r.mispredicts));
    if (o.faults.any())
        std::printf("faults        %12llu   injected (%s)\n",
                    static_cast<unsigned long long>(r.faultsInjected),
                    faults.summary().c_str());
    if (!sim.checkpointIn.empty())
        std::printf("checkpoint    resumed at instruction %llu (from "
                    "%s)\n",
                    static_cast<unsigned long long>(r.resumedInstructions),
                    sim.checkpointIn.c_str());
    if (r.checkpointsTaken)
        std::printf("checkpoint    %llu periodic images taken\n",
                    static_cast<unsigned long long>(r.checkpointsTaken));
    if (!sim.checkpointOut.empty())
        std::printf("checkpoint    final state written to %s\n",
                    sim.checkpointOut.c_str());
    if (o.stats) {
        std::printf("\n");
        std::fputs(observer.statsText.c_str(), stdout);
    }
    if (o.profile)
        std::printf("\n%s", observer.profiler.report(o.profileTop).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    initLogLevelFromEnv();
    cli::Args args(argc, argv);
    Options o;
    return cli::run(
        "imo-run", usage,
        [&] {
            const int rc = parseArgs(args, o);
            return rc ? rc : runTool(args, o);
        },
        [&](const SimError &err) {
            emitManifest(o, args, o.desc(), err, 0, "");
        });
}
