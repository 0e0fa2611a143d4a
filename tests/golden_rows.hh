/**
 * @file
 * A row of the timing golden table (test_timing_golden.cc) — which
 * machine, workload, informing mode and configuration variant it runs —
 * and the one runner that turns a row into its pinned figures. The
 * runner uses only long-standing public APIs (SweepPoint, simulate(),
 * OooCpu, makeImage()), so this header compiled against an older
 * checkout regenerates the expected values from that checkout's code.
 */

#ifndef IMO_TESTS_GOLDEN_ROWS_HH
#define IMO_TESTS_GOLDEN_ROWS_HH

#include <cstdint>
#include <vector>

#include "core/informing.hh"
#include "func/executor.hh"
#include "pipeline/image.hh"
#include "pipeline/ooo/cpu.hh"
#include "pipeline/simulate.hh"
#include "sample/livepoint.hh"
#include "sweep/sweep.hh"

namespace imo::testhelpers
{

/** A departure from the machine's Table-1 configuration. */
enum class GoldenVariant : std::uint8_t
{
    Plain,
    ExceptionStyle,       //!< OOO traps dispatched at the ROB head
    InformingCheckpoint,  //!< informing refs hold branch shadow state
    Gshare,               //!< gshare instead of 2-bit counters
    ExtendedMshr,         //!< section-3.3 MSHR lifetime
    WrongPathProbes,      //!< OOO: 2 squashed probes per mispredict
    ReplayPenalty,        //!< in-order replay trap costs 9, not 5
};

/** One row of the table: what to run. */
struct GoldenSpec
{
    const char *machine;
    const char *workload;
    core::InformingMode mode;
    GoldenVariant variant;
};

/** One row's pinned figures: every RunResult counter plus the FNV-1a
 *  hash of the checkpoint image at instruction @ref goldenImageAt. */
struct GoldenFigures
{
    std::uint64_t cycles, instructions, handlerInstructions;
    std::uint64_t cacheStallSlots, otherStallSlots;
    std::uint64_t dataRefs, l1Misses, traps, replayTraps;
    std::uint64_t condBranches, mispredicts;
    std::uint64_t mshrFullRejects, bankConflicts, squashInvalidations;
    std::uint64_t checkpointsTaken;
    std::uint64_t imageHash;
};

constexpr double goldenScale = 0.05;
constexpr std::uint64_t goldenImageAt = 20000;

/** Run @p spec and collect its figures. */
inline GoldenFigures
runGoldenRow(const GoldenSpec &spec)
{
    sweep::SweepPoint p;
    p.machine = spec.machine;
    p.workload = spec.workload;
    p.mode = spec.mode;
    p.handlerLen = 10;
    p.scale = goldenScale;
    pipeline::MachineConfig cfg = p.resolveConfig();
    const isa::Program prog = p.buildProgram();

    switch (spec.variant) {
      case GoldenVariant::Plain:
        break;
      case GoldenVariant::ExceptionStyle:
        cfg.trapDispatch = pipeline::TrapDispatch::ExceptionStyle;
        break;
      case GoldenVariant::InformingCheckpoint:
        cfg.informingTakesCheckpoint = true;
        break;
      case GoldenVariant::Gshare:
        cfg.useGshare = true;
        break;
      case GoldenVariant::ExtendedMshr:
      case GoldenVariant::WrongPathProbes:
        cfg.mem.extendedMshrLifetime = true;
        break;
      case GoldenVariant::ReplayPenalty:
        cfg.replayTrapPenalty = 9;
        break;
    }

    std::vector<std::uint8_t> image;
    pipeline::RunResult r;
    if (spec.variant == GoldenVariant::WrongPathProbes) {
        // Probes are a method of the model, not a configuration field,
        // so this row steps the machine itself.
        func::Executor exec(prog,
                            func::Executor::Config{
                                .l1 = cfg.l1,
                                .l2 = cfg.l2,
                                .maxInstructions = cfg.maxInstructions});
        pipeline::OooCpu cpu(cfg);
        cpu.setWrongPathProbes(2);
        cpu.reset();
        while (cpu.step(exec)) {
            if (cpu.retired() == goldenImageAt)
                image = pipeline::makeImage("ooo", prog, exec, cpu,
                                            nullptr, cpu.retired());
        }
        r = cpu.result();
    } else {
        pipeline::SimulateOptions opt;
        opt.checkpointEvery = goldenImageAt;
        opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                               std::uint64_t at) {
            if (at == goldenImageAt)
                image = img;
        };
        r = pipeline::simulate(prog, cfg, opt);
    }

    GoldenFigures f{};
    if (!r.ok)
        return f;
    f.cycles = r.cycles;
    f.instructions = r.instructions;
    f.handlerInstructions = r.handlerInstructions;
    f.cacheStallSlots = r.cacheStallSlots;
    f.otherStallSlots = r.otherStallSlots;
    f.dataRefs = r.dataRefs;
    f.l1Misses = r.l1Misses;
    f.traps = r.traps;
    f.replayTraps = r.replayTraps;
    f.condBranches = r.condBranches;
    f.mispredicts = r.mispredicts;
    f.mshrFullRejects = r.mshrFullRejects;
    f.bankConflicts = r.bankConflicts;
    f.squashInvalidations = r.squashInvalidations;
    f.checkpointsTaken = r.checkpointsTaken;
    f.imageHash = sample::fnv1a64(image.data(), image.size());
    return f;
}

} // namespace imo::testhelpers

#endif // IMO_TESTS_GOLDEN_ROWS_HH
