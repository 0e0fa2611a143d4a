/**
 * @file
 * Live-point library: serialized per-window starting states that make
 * sampled simulation embarrassingly parallel (TurboSMARTS-style,
 * applied to this reproduction's two-phase engine).
 *
 * A *live point* is everything a measurement window needs to run in
 * isolation, captured at the window's warmup boundary during one
 * sequential functional pass:
 *
 *   - the functional executor image (architectural state, data memory,
 *     the reference cache hierarchy, exact statistics) — the window's
 *     instruction stream and every cache outcome replay from it;
 *   - the warm timing state (branch-predictor tables) accumulated by
 *     functional warming over everything executed so far.
 *
 * Both timing models hold no other state a window depends on: pipeline
 * occupancy, MSHR residency, and the BTB are short-lived and are
 * re-established by the window's detailed warmup span, so a window is
 * a pure function of (machine config, live point, W, M). Windows can
 * therefore run in any order, on any thread, or on any machine, and
 * folding their samples in window order reproduces the sequential
 * sampler's estimate bit for bit.
 *
 * A library is a checkpoint container (common/checkpoint.hh framing:
 * versioned, named sections, per-section CRC) with three sections:
 *
 *   "libmeta"  format version, machine kind, workload, program
 *              fingerprint, capture digest, U:W:M schedule, exact
 *              functional totals, point count
 *   "index"    per-point image lengths (the offset table), delta-packed
 *   "windows"  the concatenated warm+executor images
 *
 * The capture digest covers only the configuration fields that shape
 *  the captured state — cache geometry, predictor geometry, the
 * runaway bound — so one library serves every machine configuration
 * that varies only window-timing parameters (latencies, bandwidths,
 * MSHR count, ROB size, ...): exactly what a sweep over the memory
 * system needs.
 */

#ifndef IMO_SAMPLE_LIVEPOINT_HH
#define IMO_SAMPLE_LIVEPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "func/executor.hh"
#include "func/trace.hh"
#include "isa/op.hh"
#include "isa/program.hh"
#include "pipeline/config.hh"
#include "pipeline/result.hh"

namespace imo::sample
{

/** Bumped whenever the library layout changes incompatibly. */
constexpr std::uint32_t livePointFormatVersion = 1;

/** Order-sensitive FNV-1a over @p len bytes (same construction as
 *  isa::Program::fingerprint()). */
std::uint64_t fnv1a64(const void *data, std::size_t len,
                      std::uint64_t seed = 14695981039346656037ull);

/**
 * Digest of the configuration fields that determine what a capture
 * pass records: the functional cache geometry (window boundaries and
 * cache outcomes), the predictor geometry (warm-table shapes), and the
 * runaway bound. Window-timing parameters are deliberately excluded —
 * a library captured once is valid for every configuration that
 * matches this digest.
 */
std::uint64_t captureDigest(const pipeline::MachineConfig &config);

/** One measurement window's serialized starting state. */
struct LivePoint
{
    std::vector<std::uint8_t> warmImage; //!< predictor warm state
    std::vector<std::uint8_t> execImage; //!< functional executor
};

/** Exact functional totals of one configuration's whole program run:
 *  a capture pass's executor, or a shared multi-configuration pass
 *  (sample/sharedpass.hh) where instruction, reference and trap counts
 *  are geometry-invariant and l1Misses is the member's own classified
 *  count. Not estimates. */
struct ExactTotals
{
    std::uint64_t instructions = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t traps = 0;
};

/** An in-memory live-point library. */
struct LivePointLibrary
{
    std::string kind;     //!< "ooo" / "inorder"
    std::string workload; //!< program name (informational)
    std::uint64_t programFingerprint = 0;
    std::uint64_t digest = 0; //!< captureDigest() of the capture config

    // The U:W:M schedule the boundaries were laid on.
    std::uint64_t fastForward = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;

    ExactTotals totals;
    std::vector<LivePoint> points;

    /** FNV-1a of the serialized image; identifies the library contents
     *  for result-store keying and farm shard validation. Filled by
     *  serializeLibrary() / parseLibrary(). */
    std::uint64_t contentHash = 0;
};

/** Assemble the container image (also refreshes @p lib.contentHash). */
std::vector<std::uint8_t> serializeLibrary(LivePointLibrary &lib);

/** Parse and validate a container image.
 *  @throw SimException(BadCheckpoint) on any corruption. */
LivePointLibrary parseLibrary(std::vector<std::uint8_t> image);

/** Write @p lib to @p path (atomically: temp+rename). */
void writeLibraryFile(const std::string &path, LivePointLibrary &lib);

/** Load a library file. @throw SimException(BadCheckpoint). */
LivePointLibrary loadLibraryFile(const std::string &path);

/** The outcome of one detailed window (the parallel unit of work). */
struct WindowSample
{
    std::uint64_t warmed = 0;   //!< warmup instructions stepped (<W: halt)
    std::uint64_t measured = 0; //!< measured instructions stepped
    std::uint64_t cycles = 0;   //!< cycles spanned by the measured span
    std::uint64_t misses = 0;   //!< L1 misses in the measured span
    std::uint64_t refs = 0;     //!< data references in the measured span
};

/** Fixed-width little-endian encoding (the farm wire/store format). */
std::string encodeWindowSample(const WindowSample &ws);

/** @throw SimException(BadCheckpoint) unless @p s decodes exactly. */
WindowSample decodeWindowSample(const std::string &s);

// --- Image helpers ---------------------------------------------------

/** Serialize @p cpu's warm state as a standalone container image. */
template <typename Cpu>
std::vector<std::uint8_t>
makeWarmImage(const Cpu &cpu)
{
    Serializer s;
    s.beginSection("warm");
    cpu.saveWarmState(s);
    s.endSection();
    return s.finish();
}

/** Seed a freshly reset @p cpu with a warm image. */
template <typename Cpu>
void
restoreWarmImage(const std::vector<std::uint8_t> &image, Cpu &cpu)
{
    Deserializer d(image);
    d.openSection("warm");
    cpu.restoreWarmState(d);
    d.closeSection();
}

/** Serialize @p exec as a standalone container image. */
std::vector<std::uint8_t> makeExecImage(const func::Executor &exec);

/** Restore @p exec from an image (verifies the program fingerprint). */
void restoreExecImage(const std::vector<std::uint8_t> &image,
                      func::Executor &exec);

/** Step the timing model up to @p n records; @return how many. */
template <typename Cpu>
std::uint64_t
stepWindow(Cpu &cpu, func::TraceSource &src, std::uint64_t n)
{
    std::uint64_t done = 0;
    while (done < n && cpu.step(src))
        ++done;
    return done;
}

/**
 * Trace tee for the sequential (interleaved) sampler: forwards records
 * from the live executor to the window's timing model while training
 * the warm accumulator with every resolved conditional branch. Mirrors
 * exactly what the executor reports to a WarmSink during fastForward()
 * — the four predicted ops only; BRMISS-style branches are statically
 * predicted and carry no predictor state — so the accumulator reaches
 * every window boundary in the same state whether the span in between
 * was fast-forwarded or replayed through a timing model.
 */
template <typename Cpu>
class WarmingTraceSource final : public func::TraceSource
{
  public:
    WarmingTraceSource(func::TraceSource &inner, Cpu &accum)
        : _inner(inner), _accum(accum)
    {
    }

    bool
    next(func::TraceRecord &out) override
    {
        if (!_inner.next(out))
            return false;
        switch (out.inst.op) {
          case isa::Op::BEQ:
          case isa::Op::BNE:
          case isa::Op::BLT:
          case isa::Op::BGE:
            _accum.warmCondBranch(out.pc, out.taken);
            break;
          default:
            break;
        }
        return true;
    }

  private:
    func::TraceSource &_inner;
    Cpu &_accum;
};

/**
 * Runs detailed windows from live points, reusing one executor across
 * calls: constructing an executor is expensive (program copy, cache
 * and data-memory arrays) while restoreExecImage() overwrites every
 * piece of executor state, so each run() is still a pure function of
 * (config, point, W, M) — byte-identical to a fresh-executor run —
 * but a worker draining many windows pays the construction once.
 * One runner per thread; run() itself is not thread-safe.
 */
template <typename Cpu>
class WindowRunner
{
  public:
    WindowRunner(const isa::Program &program,
                 const pipeline::MachineConfig &config)
        : _config(config),
          _exec(program,
                func::Executor::Config{
                    .l1 = config.l1,
                    .l2 = config.l2,
                    .maxInstructions = config.maxInstructions})
    {
    }

    WindowSample
    run(const LivePoint &point, std::uint64_t warmup,
        std::uint64_t measure)
    {
        restoreExecImage(point.execImage, _exec);
        Cpu cpu(_config);
        cpu.reset();
        restoreWarmImage(point.warmImage, cpu);

        WindowSample ws;
        ws.warmed = stepWindow(cpu, _exec, warmup);
        if (ws.warmed < warmup)
            return ws; // program halted during warmup
        const pipeline::RunResult r0 = cpu.result();
        ws.measured = stepWindow(cpu, _exec, measure);
        const pipeline::RunResult r1 = cpu.result();
        ws.cycles = r1.cycles - r0.cycles;
        ws.misses = r1.l1Misses - r0.l1Misses;
        ws.refs = r1.dataRefs - r0.dataRefs;
        return ws;
    }

  private:
    const pipeline::MachineConfig &_config;
    func::Executor _exec;
};

/**
 * Run one detailed window from a live point: a fresh executor replays
 * the window's instruction stream from the saved boundary and a fresh
 * timing model, seeded with the warm state, steps W warmup then M
 * measured instructions. Pure function of its arguments — safe to call
 * concurrently from any thread (every simulator object is local).
 * Batch consumers should hold a WindowRunner instead and amortize the
 * executor construction.
 */
template <typename Cpu>
WindowSample
runLivePointWindow(const isa::Program &program,
                   const pipeline::MachineConfig &config,
                   const LivePoint &point, std::uint64_t warmup,
                   std::uint64_t measure)
{
    WindowRunner<Cpu> runner(program, config);
    return runner.run(point, warmup, measure);
}

} // namespace imo::sample

#endif // IMO_SAMPLE_LIVEPOINT_HH
