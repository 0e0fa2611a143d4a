/**
 * @file
 * imo-fuzz: robustness harness and failure shrinker for the engine.
 *
 *   imo-fuzz [--iterations N] [--seed S] [--verbose]
 *   imo-fuzz --shrink-demo [--seed S] [--verbose]
 *
 * Fuzz mode: each iteration generates a random (but terminating) MRISC
 * program — straight-line bodies, nested loops, JAL/JR call trees, and
 * hand-written informing miss handlers — picks a scenario (valid run,
 * statically corrupted program, corrupted machine configuration,
 * dynamically non-terminating program, or a fault-injected run) and
 * drives pipeline::simulate(). The engine must either complete
 * (result.ok) or come back with a structured error of the expected
 * class; any escaping exception, abort, or unexpected error code is a
 * harness failure (exit 1).
 *
 * Shrink-demo mode: searches for a seed whose fault-injected run fails,
 * then (a) uses periodic in-memory checkpoints to bisect the failure to
 * a narrow retired-instruction window — resuming from the last good
 * image replays the crash deterministically — and (b) shrinks the
 * program to a smaller one that still reproduces the same error class:
 * loop trip counts are driven toward 1 and instruction chunks are
 * replaced by NOPs (ddmin-style, static-ref ids renumbered), validating
 * and re-running each candidate. Exit 0 iff a failure was found,
 * bisected, and shrunk.
 *
 * A bad command line exits as the table in README.md ("Command-line
 * exit codes") says.
 */

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/faultinject.hh"
#include "common/rng.hh"
#include "core/informing.hh"
#include "isa/builder.hh"
#include "isa/instruction.hh"
#include "isa/op.hh"
#include "pipeline/simulate.hh"

namespace
{

using namespace imo;

/** Scratch integer registers the generator may clobber. */
constexpr std::uint8_t firstScratch = 3;
constexpr std::uint8_t numScratch = 8;

/** Loop counters and link registers live outside the scratch range. */
constexpr std::uint8_t outerCounterReg = 20;
constexpr std::uint8_t innerCounterReg = 21;
constexpr std::uint8_t linkReg = 30;      //!< body -> function calls
constexpr std::uint8_t leafLinkReg = 29;  //!< mid-level -> leaf calls

std::uint8_t
scratchReg(Rng &rng)
{
    return static_cast<std::uint8_t>(firstScratch + rng.below(numScratch));
}

std::uint8_t
scratchFpReg(Rng &rng)
{
    return isa::fpReg(static_cast<std::uint8_t>(rng.below(8)));
}

/** Which optional program shapes the generator emits. */
struct GenFeatures
{
    bool nestedLoop = false;  //!< a counted loop inside the main loop
    bool calls = false;       //!< JAL/JR call tree (body->mid->leaf)
    bool handler = false;     //!< hand-written informing miss handler
};

/** Emit one random body instruction (or a short forward skip). */
void
emitBodyInst(isa::ProgramBuilder &b, Rng &rng, std::uint64_t words)
{
    const std::uint64_t kind = rng.below(10);
    const std::int64_t off =
        8 * rng.between(0, static_cast<std::int64_t>(words) - 1);
    switch (kind) {
      case 0: case 1: case 2:
        b.ld(scratchReg(rng), 1, off);
        break;
      case 3:
        b.st(scratchReg(rng), 1, off);
        break;
      case 4:
        b.add(scratchReg(rng), scratchReg(rng), scratchReg(rng));
        break;
      case 5:
        b.addi(scratchReg(rng), scratchReg(rng), rng.between(-64, 64));
        break;
      case 6:
        b.xor_(scratchReg(rng), scratchReg(rng), scratchReg(rng));
        break;
      case 7:
        b.fadd(scratchFpReg(rng), scratchFpReg(rng), scratchFpReg(rng));
        break;
      case 8:
        b.prefetch(1, off);
        break;
      default: {
        // Forward skip over a couple of instructions.
        isa::Label skip = b.newLabel();
        b.beq(scratchReg(rng), scratchReg(rng), skip);
        b.addi(scratchReg(rng), scratchReg(rng), 1);
        b.ld(scratchReg(rng), 1, off);
        b.bind(skip);
        break;
      }
    }
}

/**
 * Generate a random, guaranteed-terminating program: a counted loop
 * (the counter registers untouched by the body) around a random body,
 * optionally with a nested inner loop, calls into a small JAL/JR
 * function tree, and a hand-written informing miss handler installed
 * via SETMHAR (not through core::instrument). All memory references
 * are 8-byte aligned inside a private data block based at r1.
 *
 * @param runaway if true, the outer loop condition never becomes false
 * (counter held at 1), so the program is statically well-formed but
 * dynamically non-terminating.
 */
isa::Program
generateProgram(Rng &rng, std::uint64_t iter, bool runaway,
                const GenFeatures &feat)
{
    isa::ProgramBuilder b("fuzz-" + std::to_string(iter));

    const std::uint64_t words = 64 + rng.below(1024);
    const Addr base = b.allocData(words);

    isa::Label handler = b.newLabel();
    isa::Label simpleFunc = b.newLabel();
    isa::Label midFunc = b.newLabel();
    isa::Label leafFunc = b.newLabel();

    b.li(1, static_cast<std::int64_t>(base));
    if (feat.handler)
        b.setmhar(handler);
    b.li(outerCounterReg, runaway ? 1 : 1 + rng.between(1, 40));

    isa::Label top = b.newLabel();
    b.bind(top);

    const std::uint64_t body = 4 + rng.below(24);
    for (std::uint64_t k = 0; k < body; ++k) {
        if (feat.calls && rng.chance(0.15)) {
            b.jal(linkReg, rng.chance(0.5) ? midFunc : simpleFunc);
            continue;
        }
        emitBodyInst(b, rng, words);
    }

    if (feat.nestedLoop) {
        // Inner counted loop, counter re-armed every outer iteration.
        b.li(innerCounterReg, 1 + rng.between(1, 8));
        isa::Label innerTop = b.newLabel();
        b.bind(innerTop);
        const std::uint64_t inner_body = 2 + rng.below(8);
        for (std::uint64_t k = 0; k < inner_body; ++k)
            emitBodyInst(b, rng, words);
        b.addi(innerCounterReg, innerCounterReg, -1);
        b.bne(innerCounterReg, 0, innerTop);
    }

    if (!runaway)
        b.addi(outerCounterReg, outerCounterReg, -1);
    b.bne(outerCounterReg, 0, top);
    b.halt();

    if (feat.calls) {
        // Call tree: the body calls simpleFunc or midFunc through
        // linkReg; midFunc calls leafFunc through leafLinkReg, so the
        // two live return addresses never alias.
        b.bind(simpleFunc);
        b.addi(scratchReg(rng), scratchReg(rng), rng.between(-8, 8));
        b.jr(linkReg);

        b.bind(midFunc);
        b.add(scratchReg(rng), scratchReg(rng), scratchReg(rng));
        b.ld(scratchReg(rng), 1,
             8 * rng.between(0, static_cast<std::int64_t>(words) - 1));
        b.jal(leafLinkReg, leafFunc);
        b.xor_(scratchReg(rng), scratchReg(rng), scratchReg(rng));
        b.jr(linkReg);

        b.bind(leafFunc);
        b.addi(scratchReg(rng), scratchReg(rng), rng.between(-8, 8));
        b.jr(leafLinkReg);
    }

    if (feat.handler) {
        // Hand-written informing miss handler: inspect the miss
        // address, do a little arithmetic, return. Installed with
        // SETMHAR above; runs on primary-cache misses of informing
        // references.
        b.bind(handler);
        b.getmhrr(11);
        b.addi(12, 11, 8);
        b.xor_(13, 12, 11);
        b.retmh();
    }

    return b.finish();
}

/** Statically corrupt @p prog so validation must reject it. */
const char *
corruptProgram(Rng &rng, isa::Program &prog)
{
    auto &insts = prog.insts();
    switch (rng.below(3)) {
      case 0:
        // Branch/jump target far outside the program.
        for (auto &in : insts) {
            if (in.op == isa::Op::BNE || in.op == isa::Op::BEQ) {
                in.imm = static_cast<std::int64_t>(prog.size()) + 1000;
                return "wild branch target";
            }
        }
        [[fallthrough]];
      case 1:
        // Out-of-range register id.
        insts[insts.size() / 2].rs1 = isa::numUnifiedRegs + 17;
        insts[insts.size() / 2].op = isa::Op::ADD;
        return "bad register id";
      default:
        // Remove every HALT.
        for (auto &in : insts) {
            if (in.op == isa::Op::HALT)
                in.op = isa::Op::NOP;
        }
        return "no HALT";
    }
}

/** Corrupt @p machine so MachineConfig::validate() must reject it. */
const char *
corruptConfig(Rng &rng, pipeline::MachineConfig &machine)
{
    switch (rng.below(4)) {
      case 0:
        machine.issueWidth = 0;
        return "zero issue width";
      case 1:
        if (machine.outOfOrder) {
            machine.robSize = 0;
            return "zero ROB";
        }
        [[fallthrough]];
      case 2:
        machine.l1.lineBytes = 48;
        return "non-pow2 L1 line";
      default:
        machine.mem.mshrs = 0;
        return "zero MSHRs";
    }
}

bool
codeIn(ErrCode code, std::initializer_list<ErrCode> allowed)
{
    for (const ErrCode c : allowed) {
        if (code == c)
            return true;
    }
    return false;
}

int
fail(std::uint64_t iter, const char *scenario, const std::string &what)
{
    std::fprintf(stderr,
                 "imo-fuzz: FAILURE at iteration %llu (%s): %s\n",
                 static_cast<unsigned long long>(iter), scenario,
                 what.c_str());
    return 1;
}

// --- Shrinking ------------------------------------------------------

/** A failing (program, machine, fault plan) triple and its error. */
struct FailingCase
{
    isa::Program prog;
    pipeline::MachineConfig machine;  //!< faults pointer unset
    FaultSchedule sched;
    ErrCode code = ErrCode::None;
};

/** Run @p prog under @p c's machine and fault plan (deterministic:
 *  fresh injector, same seed). @return true iff it fails with c.code. */
bool
reproduces(const FailingCase &c, const isa::Program &prog)
{
    pipeline::MachineConfig machine = c.machine;
    FaultInjector faults(c.sched);
    if (c.sched.any())
        machine.faults = &faults;
    const pipeline::RunResult r = pipeline::simulate(prog, machine);
    return !r.ok && r.error.code == c.code;
}

/** Re-assign dense staticRefIds after instructions were NOPed out. */
void
renumberStaticRefs(isa::Program &prog)
{
    std::uint32_t next = 0;
    for (isa::Instruction &in : prog.insts()) {
        if (isa::isDataRef(in.op) && in.staticRefId != isa::noRefId)
            in.staticRefId = next++;
    }
    prog.setNumStaticRefs(next);
}

std::uint64_t
countRealInsts(const isa::Program &prog)
{
    std::uint64_t n = 0;
    for (const isa::Instruction &in : prog.insts()) {
        if (in.op != isa::Op::NOP)
            ++n;
    }
    return n;
}

/** Shared budget across all candidate runs of one shrink session. */
struct ShrinkBudget
{
    std::uint64_t runs = 0;
    std::uint64_t maxRuns = 300;

    bool spent() const { return runs >= maxRuns; }
};

/** Validate + re-run @p candidate; true iff it still fails the same
 *  way (and we still have budget). */
bool
tryCandidate(const FailingCase &c, const isa::Program &candidate,
             ShrinkBudget &budget)
{
    if (budget.spent())
        return false;
    ++budget.runs;
    if (!candidate.validate())
        return false;
    return reproduces(c, candidate);
}

/**
 * Drive LI immediates (loop trip counts and other constants feeding
 * control) toward 1: try 1 first, then halve while the failure still
 * reproduces. Data-pointer LI values are protected by the reproduce
 * check itself — clobbering r1's base simply fails to validate the
 * candidate semantics and is rejected.
 */
isa::Program
shrinkTripCounts(const FailingCase &c, isa::Program prog,
                 ShrinkBudget &budget)
{
    for (std::size_t i = 0; i < prog.insts().size(); ++i) {
        if (prog.insts()[i].op != isa::Op::LI)
            continue;
        while (prog.insts()[i].imm > 1 && !budget.spent()) {
            isa::Program candidate = prog;
            candidate.insts()[i].imm = 1;
            if (tryCandidate(c, candidate, budget)) {
                prog = std::move(candidate);
                break;
            }
            candidate = prog;
            candidate.insts()[i].imm /= 2;
            if (!tryCandidate(c, candidate, budget))
                break;
            prog = std::move(candidate);
        }
    }
    return prog;
}

/**
 * ddmin-lite: replace aligned chunks of instructions with NOPs (halving
 * the chunk size down to 1) whenever the failure still reproduces.
 * NOPing — rather than deleting — keeps every branch target stable, so
 * only the static-reference ids need renumbering per candidate.
 */
isa::Program
shrinkToNops(const FailingCase &c, isa::Program prog,
             ShrinkBudget &budget)
{
    const std::size_t n = prog.insts().size();
    for (std::size_t chunk = n / 2; chunk >= 1; chunk /= 2) {
        for (std::size_t start = 0; start < n; start += chunk) {
            if (budget.spent())
                return prog;
            isa::Program candidate = prog;
            bool changed = false;
            const std::size_t end = std::min(start + chunk, n);
            for (std::size_t i = start; i < end; ++i) {
                isa::Instruction &in = candidate.insts()[i];
                if (in.op == isa::Op::NOP || in.op == isa::Op::HALT)
                    continue;
                in = isa::Instruction{};
                changed = true;
            }
            if (!changed)
                continue;
            renumberStaticRefs(candidate);
            if (tryCandidate(c, candidate, budget))
                prog = std::move(candidate);
        }
        if (chunk == 1)
            break;
    }
    return prog;
}

/**
 * Bisect the failure in time with periodic checkpoints: run the failing
 * case taking an in-memory image every @p every retired instructions,
 * then resume from the newest image and confirm the crash replays.
 *
 * @return the retired-instruction count of the newest image from which
 * the failure still reproduces (0 if it reproduces from cold start
 * only), or -1 if the reproducer property is broken (harness failure).
 */
std::int64_t
bisectWithCheckpoints(const FailingCase &c, std::uint64_t every,
                      bool verbose)
{
    pipeline::MachineConfig machine = c.machine;
    FaultInjector faults(c.sched);
    if (c.sched.any())
        machine.faults = &faults;

    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::uint64_t> marks;
    pipeline::SimulateOptions opt;
    opt.checkpointEvery = every;
    opt.onCheckpoint = [&](const std::vector<std::uint8_t> &img,
                           std::uint64_t retired) {
        images.push_back(img);
        marks.push_back(retired);
    };
    const pipeline::RunResult r =
        pipeline::simulate(c.prog, machine, opt);
    if (r.ok || r.error.code != c.code)
        return -1;

    // Walk images newest-first; the first one that replays the crash
    // pins the failure inside (mark, mark + every] retired insts.
    for (std::size_t i = images.size(); i-- > 0;) {
        pipeline::MachineConfig m2 = c.machine;
        FaultInjector f2(c.sched);
        if (c.sched.any())
            m2.faults = &f2;
        pipeline::SimulateOptions ropt;
        ropt.resumeImage = &images[i];
        const pipeline::RunResult rr =
            pipeline::simulate(c.prog, m2, ropt);
        if (!rr.ok && rr.error.code == c.code)
            return static_cast<std::int64_t>(marks[i]);
        if (verbose) {
            std::fprintf(stderr,
                         "  image @%llu does not replay (%s) — "
                         "fault drew differently before it\n",
                         static_cast<unsigned long long>(marks[i]),
                         rr.ok ? "ok" : errCodeName(rr.error.code));
        }
    }
    return 0;
}

/**
 * Find a failing fault-injected case, bisect it with checkpoints, and
 * shrink the program. @return 0 on a successful demo.
 */
int
shrinkDemo(std::uint64_t seed, bool verbose)
{
    FailingCase c;
    bool found = false;

    for (std::uint64_t attempt = 0; attempt < 200 && !found; ++attempt) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + attempt);
        GenFeatures feat{.nestedLoop = true, .calls = true,
                         .handler = attempt % 2 == 0};
        isa::Program prog = generateProgram(rng, attempt, false, feat);
        if (!feat.handler) {
            prog = core::instrument(prog, core::InformingMode::TrapUnique,
                                    {.length = 4});
        }

        FaultSchedule sched;
        sched.seed = rng.next();
        sched.hardFault = 0.05;

        c.prog = prog;
        c.machine = pipeline::makeOutOfOrderConfig();
        c.machine.watchdogCycles = 500'000;
        c.machine.maxInstructions = 2'000'000;
        c.sched = sched;
        c.code = ErrCode::FaultInjected;
        found = reproduces(c, c.prog);
    }
    if (!found) {
        std::fprintf(stderr, "imo-fuzz: shrink-demo found no failing "
                             "case for seed %llu\n",
                     static_cast<unsigned long long>(seed));
        return 1;
    }

    const std::uint64_t before = countRealInsts(c.prog);
    std::printf("shrink-demo: failing case '%s' (%llu insts, "
                "hard-fault injection, error %s)\n",
                c.prog.name().c_str(),
                static_cast<unsigned long long>(before),
                errCodeName(c.code));

    const std::int64_t window = bisectWithCheckpoints(c, 50, verbose);
    if (window < 0) {
        std::fprintf(stderr, "imo-fuzz: checkpoint bisection could not "
                             "re-establish the failure\n");
        return 1;
    }
    std::printf("shrink-demo: checkpoint bisection — failure replays "
                "when resumed from instruction %lld (window of 50)\n",
                static_cast<long long>(window));

    ShrinkBudget budget;
    isa::Program shrunk = shrinkTripCounts(c, c.prog, budget);
    shrunk = shrinkToNops(c, std::move(shrunk), budget);

    const std::uint64_t after = countRealInsts(shrunk);
    std::printf("shrink-demo: shrunk %llu -> %llu instructions "
                "(%llu candidate runs)\n",
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(after),
                static_cast<unsigned long long>(budget.runs));

    // The shrunk case must still be a faithful reproducer.
    if (!reproduces(c, shrunk)) {
        std::fprintf(stderr,
                     "imo-fuzz: shrunk program no longer fails\n");
        return 1;
    }
    return 0;
}

void
usage()
{
    std::fprintf(stderr, "usage: imo-fuzz [--iterations N] [--seed S] "
                         "[--verbose] [--quiet] [--shrink-demo]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t iterations = 200;
    std::uint64_t seed = 1;
    bool verbose = false;
    bool shrink_demo = false;

    imo::initLogLevelFromEnv();

    cli::Args args(argc, argv);
    const int rc = cli::run("imo-fuzz", usage, [&] {
        while (args.next()) {
            if (args.is("--iterations")) {
                iterations = args.u64();
            } else if (args.is("--seed")) {
                seed = args.u64();
            } else if (args.is("--verbose")) {
                verbose = true;
                imo::setLogLevel(imo::LogLevel::Info);
            } else if (args.is("--quiet")) {
                imo::setLogLevel(imo::LogLevel::Quiet);
            } else if (args.is("--shrink-demo")) {
                shrink_demo = true;
            } else {
                args.unknown();
            }
        }
        return 0;
    });
    if (rc != 0)
        return rc;

    if (shrink_demo)
        return shrinkDemo(seed, verbose);

    std::uint64_t ran_ok = 0, bad_prog = 0, bad_cfg = 0;
    std::uint64_t runaways = 0, faulted = 0, fault_errors = 0;

    for (std::uint64_t iter = 0; iter < iterations; ++iter) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + iter);
        const double roll = rng.real();

        const char *scenario = "?";
        try {
            // Machine under test.
            pipeline::MachineConfig machine =
                rng.chance(0.5) ? pipeline::makeOutOfOrderConfig()
                                : pipeline::makeInOrderConfig();
            machine.watchdogCycles = 500'000;
            machine.maxInstructions = 2'000'000;

            const bool runaway = roll >= 0.50 && roll < 0.55;
            GenFeatures feat{.nestedLoop = rng.chance(0.4),
                             .calls = rng.chance(0.4),
                             .handler = rng.chance(0.3)};
            isa::Program prog =
                generateProgram(rng, iter, runaway, feat);

            // Random informing instrumentation on top — unless the
            // program already installs its own hand-written handler.
            if (!feat.handler) {
                const std::uint64_t m = rng.below(4);
                const core::InformingMode mode =
                    m == 0 ? core::InformingMode::None
                    : m == 1 ? core::InformingMode::TrapSingle
                    : m == 2 ? core::InformingMode::TrapUnique
                             : core::InformingMode::CondCode;
                prog = core::instrument(
                    prog, mode,
                    {.length = static_cast<std::uint32_t>(
                        1 + rng.below(10))});
            }

            FaultInjector faults;
            if (roll < 0.55) {
                scenario = runaway ? "runaway" : "valid";
            } else if (roll < 0.70) {
                scenario = corruptProgram(rng, prog);
            } else if (roll < 0.80) {
                scenario = corruptConfig(rng, machine);
            } else {
                scenario = "fault-injection";
                FaultSchedule sched;
                sched.seed = rng.next();
                sched.memLatencySpike = rng.real() * 0.05;
                sched.mshrExhaustion =
                    rng.chance(0.1) ? 1.0 : rng.real() * 0.02;
                sched.mispredictStorm = rng.real() * 0.10;
                sched.stuckFill =
                    rng.chance(0.1) ? 1.0 : rng.real() * 0.001;
                sched.hardFault = rng.real() * 0.001;
                faults = FaultInjector(sched);
                machine.faults = &faults;
            }

            const pipeline::RunResult r =
                pipeline::simulate(prog, machine);

            if (roll < 0.50) {
                if (!r.ok)
                    return fail(iter, scenario,
                                "expected success, got " +
                                r.error.format());
                ++ran_ok;
            } else if (roll < 0.55) {
                if (r.ok ||
                    r.error.code != ErrCode::RunawayExecution)
                    return fail(iter, scenario,
                                "expected RunawayExecution, got " +
                                (r.ok ? std::string("success")
                                      : r.error.format()));
                ++runaways;
            } else if (roll < 0.70) {
                if (r.ok || r.error.code != ErrCode::BadProgram)
                    return fail(iter, scenario,
                                "expected BadProgram, got " +
                                (r.ok ? std::string("success")
                                      : r.error.format()));
                ++bad_prog;
            } else if (roll < 0.80) {
                if (r.ok || r.error.code != ErrCode::BadConfig)
                    return fail(iter, scenario,
                                "expected BadConfig, got " +
                                (r.ok ? std::string("success")
                                      : r.error.format()));
                ++bad_cfg;
            } else {
                // A faulted run may complete or fail with one of the
                // runtime error classes — anything else is a bug.
                if (!r.ok &&
                    !codeIn(r.error.code,
                            {ErrCode::Deadlock,
                             ErrCode::RunawayExecution,
                             ErrCode::FaultInjected}))
                    return fail(iter, scenario,
                                "unexpected error class: " +
                                r.error.format());
                ++faulted;
                if (!r.ok)
                    ++fault_errors;
            }

            if (verbose) {
                std::fprintf(stderr,
                             "iter %4llu  %-16s %s\n",
                             static_cast<unsigned long long>(iter),
                             scenario,
                             r.ok ? "ok" : r.error.format().c_str());
            }
        } catch (const std::exception &e) {
            // simulate() must capture everything; an escape is a bug.
            return fail(iter, scenario,
                        std::string("exception escaped the engine: ") +
                        e.what());
        } catch (...) {
            return fail(iter, scenario,
                        "unknown exception escaped the engine");
        }
    }

    std::printf("imo-fuzz: %llu iterations clean "
                "(%llu ok, %llu runaway, %llu bad-program, "
                "%llu bad-config, %llu faulted [%llu errored])\n",
                static_cast<unsigned long long>(iterations),
                static_cast<unsigned long long>(ran_ok),
                static_cast<unsigned long long>(runaways),
                static_cast<unsigned long long>(bad_prog),
                static_cast<unsigned long long>(bad_cfg),
                static_cast<unsigned long long>(faulted),
                static_cast<unsigned long long>(fault_errors));
    return 0;
}
