#include "pipeline/simulate.hh"

#include <sstream>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/faultinject.hh"
#include "common/stats.hh"
#include "isa/verify.hh"
#include "obs/observer.hh"
#include "pipeline/cpu_model.hh"
#include "pipeline/image.hh"

namespace imo::pipeline
{

namespace
{

/** The stepping loop shared by both timing models. */
template <typename Cpu>
RunResult
drive(Cpu &cpu, func::Executor &exec, const isa::Program &program,
      const MachineConfig &config, const SimulateOptions &opt)
{
    cpu.reset();

    std::vector<std::uint8_t> in_image;
    const std::vector<std::uint8_t> *resume = opt.resumeImage;
    if (!resume && !opt.checkpointIn.empty()) {
        in_image = Deserializer::readFile(opt.checkpointIn);
        resume = &in_image;
    }

    std::uint64_t resumed = 0;
    std::vector<std::uint8_t> last_image;
    const bool want_reproducer =
        opt.checkpointOnError && !opt.checkpointOut.empty();
    if (resume) {
        resumed = restoreImage(*resume, Cpu::kind, exec, cpu, config.faults);
        if (want_reproducer)
            last_image = *resume;
    } else if (want_reproducer) {
        // Cold start: until the first periodic image replaces it, the
        // initial state is the failure reproducer.
        last_image = makeImage(Cpu::kind, program, exec, cpu, config.faults,
                               cpu.retired());
    }

    std::uint64_t taken = 0;
    try {
        while (cpu.step(exec)) {
            if (opt.stopFlag && *opt.stopFlag) [[unlikely]] {
                // Graceful stop: flush the state at this quiesced step
                // boundary as the resumable marker, then surface a
                // structured Interrupted error (partial stats are
                // captured by the normal failure path).
                if (!opt.checkpointOut.empty()) {
                    writeCheckpointFile(
                        opt.checkpointOut,
                        makeImage(Cpu::kind, program, exec, cpu,
                                  config.faults, cpu.retired()));
                }
                throwSimError(ErrCode::Interrupted,
                              "interrupted at instruction %llu (cycle "
                              "%llu)",
                              static_cast<unsigned long long>(
                                  cpu.retired()),
                              static_cast<unsigned long long>(
                                  cpu.result().cycles));
            }
            if (opt.checkpointEvery &&
                cpu.retired() % opt.checkpointEvery == 0) {
                std::vector<std::uint8_t> image =
                    makeImage(Cpu::kind, program, exec, cpu, config.faults,
                              cpu.retired());
                ++taken;
                if (opt.onCheckpoint)
                    opt.onCheckpoint(image, cpu.retired());
                if (want_reproducer)
                    last_image = std::move(image);
            }
        }
    } catch (const SimException &e) {
        // Emit the most recent quiesced image as a crash reproducer:
        // resuming from it deterministically replays the failure. An
        // Interrupted stop already wrote its own (newer) resume image.
        if (want_reproducer && !last_image.empty() &&
            e.code() != ErrCode::Interrupted) {
            writeCheckpointFile(opt.checkpointOut, last_image);
        }
        throw;
    }

    RunResult res = cpu.result();
    res.checkpointsTaken = taken;
    res.resumedInstructions = resumed;
    if (!opt.checkpointOut.empty()) {
        writeCheckpointFile(opt.checkpointOut,
                            makeImage(Cpu::kind, program, exec, cpu,
                                      config.faults, cpu.retired()));
    }
    return res;
}

/**
 * Capture the full stats tree into the attached Observer (text and
 * JSON renderings). Built as a transient report root so repeated
 * captures cannot duplicate registrations; called on success and on
 * failure alike (partial stats are part of a failure report).
 */
template <typename Cpu>
void
captureStats(const MachineConfig &config, func::Executor &exec, Cpu &cpu)
{
    if (!config.obs)
        return;
    stats::StatGroup root("sim");
    exec.registerStats(root);
    cpu.registerStats(root);
    // Trace-buffer health (record/drop counts) rides in the same dump
    // so truncated traces are visible in --stats-json, not just as a
    // CLI warning.
    config.obs->trace.registerStats(root.childGroup("obs"));
    std::ostringstream text;
    root.dump(text);
    config.obs->statsText = text.str();
    std::ostringstream json;
    json << "{\"sim\":";
    root.dumpJson(json);
    json << "}\n";
    config.obs->statsJson = json.str();
}

} // anonymous namespace

RunResult
simulate(const isa::Program &program, const MachineConfig &config,
         const SimulateOptions &options, func::ExecStats *exec_stats)
{
    RunResult result;
    result.machine = config.name;
    result.workload = program.name();
    result.issueWidth = config.issueWidth;

    try {
        config.validate();
        isa::verifyProgram(program);

        func::Executor exec(program,
                            func::Executor::Config{
                                .l1 = config.l1,
                                .l2 = config.l2,
                                .maxInstructions = config.maxInstructions});
        withCpuModel(config, [&]<typename Cpu>(std::type_identity<Cpu>) {
            Cpu cpu(config);
            try {
                result = drive(cpu, exec, program, config, options);
            } catch (const SimException &e) {
                result = cpu.result();
                result.ok = false;
                result.error = e.error();
            }
            captureStats(config, exec, cpu);
        });
        result.workload = program.name();
        if (exec_stats)
            *exec_stats = exec.stats();
    } catch (const SimException &e) {
        result.ok = false;
        result.error = e.error();
    } catch (const std::exception &e) {
        // Anything else escaping the models is a simulator bug, but we
        // still refuse to take the process down with us.
        result.ok = false;
        result.error = SimError{ErrCode::Internal, e.what(), {}};
    }
    if (config.faults)
        result.faultsInjected = config.faults->totalFired();
    return result;
}

RunResult
simulate(const isa::Program &program, const MachineConfig &config,
         func::ExecStats *exec_stats)
{
    return simulate(program, config, SimulateOptions{}, exec_stats);
}

} // namespace imo::pipeline
