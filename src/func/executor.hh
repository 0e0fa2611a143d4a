/**
 * @file
 * The MRISC functional executor.
 *
 * Executes a program to architectural completion, one instruction per
 * step(), consulting an in-order reference cache hierarchy to decide
 * the outcome of every data reference. All informing-memory-operation
 * semantics are implemented here:
 *
 *  - every data reference records its primary-cache outcome in the
 *    cache-outcome condition code (paper section 2.1);
 *  - an informing data reference that misses in the primary cache while
 *    the MHAR is nonzero dispatches a low-overhead miss trap: the MHRR
 *    captures the return address and control transfers to the MHAR
 *    (section 2.2); trapping is disabled until the handler returns with
 *    RETMH so that handlers cannot recursively trap;
 *  - BRMISS implements the explicit conditional branch-and-link-if-miss
 *    used by the condition-code mechanism.
 */

#ifndef IMO_FUNC_EXECUTOR_HH
#define IMO_FUNC_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/types.hh"
#include "func/datamem.hh"
#include "func/trace.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"

namespace imo::func
{

/** Architecturally visible machine state. */
struct ArchState
{
    /** Integer registers; ireg[0] is r0 and must stay zero (the
     *  executor reads r0 from its slot). */
    std::array<std::uint64_t, isa::numIntRegs> ireg{};
    std::array<double, isa::numFpRegs> freg{};
    InstAddr pc = 0;
    std::uint64_t mhar = 0;  //!< Miss Handler Address Register
    std::uint64_t mhrr = 0;  //!< Miss Handler Return Register
    bool ccMiss = false;     //!< primary-cache outcome condition code
    bool ccMissL2 = false;   //!< secondary-cache outcome condition code
    std::uint8_t trapLevel = 1; //!< 1: trap on L1 misses, 2: L2 only
    bool halted = false;
};

/** Aggregate functional-execution statistics. */
struct ExecStats
{
    std::uint64_t instructions = 0;
    std::uint64_t handlerInstructions = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t traps = 0;
    std::uint64_t brmissTaken = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;

    double
    l1MissRate() const
    {
        return dataRefs ? static_cast<double>(l1Misses) / dataRefs : 0.0;
    }
};

/**
 * Receives conditional-branch outcomes during fast-forward so a timing
 * model's branch predictor can stay trained across the gap (functional
 * warming in the SMARTS sense). Only the ops the timing models predict
 * (BEQ/BNE/BLT/BGE) are reported; BRMISS-style branches are statically
 * predicted by both CPU models and carry no predictor state.
 */
class WarmSink
{
  public:
    virtual ~WarmSink() = default;

    /** The branch at @p pc resolved with direction @p taken. */
    virtual void condBranch(InstAddr pc, bool taken) = 0;
};

/**
 * Observes the raw data-reference stream (demand accesses and software
 * prefetches) as the executor produces it, independent of the
 * executor's own hierarchy outcome. This is the attachment point of
 * the multi-configuration cache engine (memory::MultiCacheSim): one
 * functional pass can classify the stream for many geometries at once.
 */
class RefSink
{
  public:
    virtual ~RefSink() = default;

    /** A demand data reference to @p addr retired. */
    virtual void onAccess(Addr addr, bool is_write) = 0;

    /** A software prefetch of @p addr retired. */
    virtual void onPrefetch(Addr addr) = 0;
};

/** Executes one MRISC program against a reference cache hierarchy. */
class Executor : public TraceSource
{
  public:
    struct Config
    {
        memory::CacheGeometry l1;
        memory::CacheGeometry l2;
        /** Abort if a program runs longer than this (runaway guard). */
        std::uint64_t maxInstructions = 400'000'000;
    };

    /** The executor keeps its own copy of @p program. */
    Executor(isa::Program program, const Config &config);

    /**
     * Execute one instruction and describe it in @p out.
     * @return false once the program has halted.
     */
    bool next(TraceRecord &out) override;

    /**
     * Fast functional-warming mode: execute up to @p count instructions
     * without staging trace records for a timing model. Architectural
     * state, the data memory, the reference cache hierarchy, and every
     * informing-op semantic (condition codes, miss traps, handler
     * execution, RETMH re-arming) advance exactly as under next() —
     * only the record fill is compiled out. Conditional-branch outcomes
     * are reported to @p warm (when non-null) so a detached timing
     * model's branch predictor stays trained across the gap.
     *
     * @return the number of instructions executed; less than @p count
     * only if the program halted first.
     */
    std::uint64_t fastForward(std::uint64_t count, WarmSink *warm = nullptr);

    /** Run to completion, discarding records. @return retired count. */
    std::uint64_t run();

    /** Expose execution stats (and both cache levels) as an "exec"
     *  group under @p parent. */
    void registerStats(stats::StatGroup &parent);

    const ArchState &state() const { return _state; }
    DataMemory &mem() { return _mem; }
    memory::FunctionalHierarchy &hierarchy() { return _hier; }
    const ExecStats &stats() const { return _stats; }
    const isa::Program &program() const { return _program; }

    /** True while executing between a dispatch and its RETMH. */
    bool inHandler() const { return _inHandler; }

    /**
     * Attach (or detach, with nullptr) a reference-stream observer.
     * The sink sees every demand data reference and prefetch in
     * program order, under both next() and fastForward(). Transient:
     * not part of checkpoints.
     */
    void setRefSink(RefSink *sink) { _refSink = sink; }

    /**
     * Checkpoint hooks: architectural state, statistics, data memory,
     * and the reference hierarchy all round-trip. The image embeds the
     * program's fingerprint; restoring against a different program
     * raises BadCheckpoint.
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    /**
     * The single execution loop: runs up to @p max_count instructions
     * and returns how many retired (fewer only if the program halted).
     * Fill selects at compile time whether @p out is populated (the
     * next() path feeding a timing model, one instruction a call) or
     * skipped entirely (the fastForward() path, where the record fill
     * would be pure overhead on the sampling fast path). The Fill form
     * returns whether its one instruction retired, so next() is a
     * tail call into it. Guard selects whether each step checks the
     * runaway bound; only fastForward() drops it, for steps it has
     * proven stay below it.
     */
    template <bool Fill, bool Guard>
    std::conditional_t<Fill, bool, std::uint64_t> execute(std::uint64_t max_count, TraceRecord *out,
                          WarmSink *warm);

    std::uint64_t readIreg(std::uint8_t unified) const;
    void writeIreg(std::uint8_t unified, std::uint64_t value);
    double readFreg(std::uint8_t unified) const;
    void writeFreg(std::uint8_t unified, double value);

    isa::Program _program;
    InstAddr _numInsts;  //!< _program.size(), read once per call
    Config _config;
    ArchState _state;
    DataMemory _mem;
    memory::FunctionalHierarchy _hier;
    ExecStats _stats;

    bool _inHandler = false;   //!< between dispatch and RETMH
    bool _trapArmed = true;    //!< hardware trap-enable (off in handler)
    RefSink *_refSink = nullptr; //!< optional stream observer
};

} // namespace imo::func

#endif // IMO_FUNC_EXECUTOR_HH
