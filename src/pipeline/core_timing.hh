/**
 * @file
 * CoreTiming: the per-run state and step() pieces both timing models
 * share. The 21164-style in-order machine (paper section 3.1) and the
 * R10000-style out-of-order machine (section 3.2) differ only in how
 * they issue or dispatch and in how they deliver an informing trap;
 * the fetch engine, the lockup-free memory system, the 2-bit
 * predictors, trap accounting and Figure 2's graduation-slot ledger
 * live here once. Each model's Timing derives from CoreTiming and adds
 * its own policy state.
 *
 * The step pieces run once per simulated instruction, so they stay
 * inline; only the deadlock reports are out of line. Being trace-driven,
 * a model can stop making progress in only two ways: a memory reference
 * rejected forever (MSHR/bank livelock, e.g. under injected MSHR
 * exhaustion) and a completion that runs away from the graduation
 * frontier (e.g. a stuck fill). Both are caught against
 * MachineConfig::watchdogCycles and raised as a structured Deadlock
 * error carrying the recent-event ring as its context chain.
 */

#ifndef IMO_PIPELINE_CORE_TIMING_HH
#define IMO_PIPELINE_CORE_TIMING_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "branch/predictor.hh"
#include "common/diagring.hh"
#include "common/faultinject.hh"
#include "func/trace.hh"
#include "isa/instruction.hh"
#include "memory/timing.hh"
#include "obs/observer.hh"
#include "pipeline/config.hh"
#include "pipeline/pipe_stats.hh"
#include "pipeline/timing_util.hh"

namespace imo::pipeline
{

constexpr std::size_t numOpClasses =
    static_cast<std::size_t>(isa::OpClass::NumClasses);

/** What the memory system did with one accepted reference. */
struct MemAccess
{
    Cycle missDetect;     //!< hit/miss known (the cycle after acceptance)
    Cycle complete;       //!< load data returned; store/prefetch done
    bool missed;          //!< not serviced by the primary cache
    bool cacheStall;      //!< a missing load: graduation waits on it
    memory::MshrRef mshr; //!< the entry an extended lifetime pins
};

/** Timing state both models own, plus the step pieces they share. */
struct CoreTiming
{
    explicit CoreTiming(const MachineConfig &cfg);
    virtual ~CoreTiming() = default;
    CoreTiming(const CoreTiming &) = delete;
    CoreTiming &operator=(const CoreTiming &) = delete;

    // Per-class execution latency and functional-unit group, read once
    // per instruction instead of switching on the class.
    std::array<Cycle, numOpClasses> latOf{};
    std::array<FuGroup, numOpClasses> fuOf{};

    FetchEngine fetch;
    GraduationLedger ledger;
    memory::TimingMemorySystem mem;
    branch::TwoBitPredictor bimodal;
    branch::GsharePredictor gshare;
    DiagRing ring;

    // Register availability: the cycle each value (the newest version,
    // under renaming) can first be read.
    std::array<Cycle, isa::numUnifiedRegs> regReady{};
    Cycle ccReady = 0;
    Cycle mhrrReady = 0;

    /** The cycle every register source in @p srcs is ready: two fixed
     *  reads, each masked to zero when its slot is unused. */
    Cycle
    srcReady(const isa::SrcRegs &srcs) const
    {
        const Cycle m0 = srcs.count > 0 ? ~Cycle{0} : 0;
        const Cycle m1 = srcs.count > 1 ? ~Cycle{0} : 0;
        return std::max(regReady[srcs.reg[0]] & m0,
                        regReady[srcs.reg[1]] & m1);
    }

    // Informing trap service measurement: dispatch cycle of the trap
    // whose RETMH has not yet completed (handlers cannot nest).
    bool trapPending = false;
    Cycle trapDispatch = 0;

    PipeStats pipe;  //!< live counters; RunResult derives from these
    obs::Observer *obs = nullptr;
    obs::TraceSink *trace = nullptr;

    /**
     * Predict conditional branch @p r with the active predictor and
     * train it. A misprediction (or an injected MispredictStorm) is
     * counted and logged at @p resolve.
     * @return true when the prediction was correct.
     */
    bool
    predictBranch(const MachineConfig &cfg, const func::TraceRecord &r,
                  Cycle resolve)
    {
        bool correct = cfg.useGshare
            ? gshare.predictAndUpdate(r.pc, r.taken)
            : bimodal.predictAndUpdate(r.pc, r.taken);
        if (cfg.faults && cfg.faults->fire(FaultPoint::MispredictStorm))
            correct = false;
        if (!correct) {
            ++pipe.mispredicts;
            ring.push(resolve, "mispredict", r.pc, r.taken);
            IMO_TRACE(trace, resolve, obs::Cat::Fetch, "mispredict", r.pc,
                      r.taken);
        }
        return correct;
    }

    /**
     * Present memory reference @p r, issued at @p issue, to the
     * lockup-free memory system, retrying structural-hazard rejections
     * (bank/MSHR busy). A reference rejected for longer than the
     * watchdog is a livelock and raises a structured Deadlock error.
     * Data references are counted (misses, per-PC miss profile) and
     * set the condition code; an informing trap is counted here and
     * delivered by the model.
     */
    MemAccess
    access(const MachineConfig &cfg, const func::TraceRecord &r,
           isa::OpClass cls, Cycle issue)
    {
        Cycle probe = issue;
        memory::MemRequestResult mr;
        for (;;) {
            mr = mem.request(r.addr, r.level, probe);
            if (mr.accepted)
                break;
            probe = std::max(mr.retryCycle, probe + 1);
            if (cfg.watchdogCycles && probe > issue + cfg.watchdogCycles)
                [[unlikely]]
                stuckReference(r, issue, probe);
        }
        ring.push(probe, "mem-accept", r.pc, r.addr);

        MemAccess a;
        a.missDetect = probe + 1;
        a.missed = r.level != MemLevel::L1;
        // Stores and prefetches retire into the write buffer / MSHR
        // without blocking graduation.
        a.complete = cls == isa::OpClass::Load
            ? std::max(mr.dataReady, probe + 1) : probe + 1;
        a.cacheStall = cls == isa::OpClass::Load && a.missed;
        a.mshr = mr.mshr;

        if (isa::isDataRef(r.inst.op)) {
            ++pipe.dataRefs;
            if (a.missed) {
                ++pipe.l1Misses;
                if (obs) {
                    obs->profiler.noteMiss(
                        r.pc, r.level == MemLevel::Memory,
                        mr.dataReady > probe ? mr.dataReady - probe : 0,
                        r.trapped);
                }
            }
            ccReady = a.missDetect;
            if (r.trapped) {
                ++pipe.traps;
                ring.push(a.missDetect, "trap", r.pc, r.addr);
            }
        }
        return a;
    }

    /** An informing trap for @p r dispatches its handler at @p at. */
    void
    enterTrap(const func::TraceRecord &r, Cycle at)
    {
        trapPending = true;
        trapDispatch = at;
        IMO_TRACE(trace, at, obs::Cat::Trap, "trap-enter", r.pc, r.addr);
    }

    /** Jump @p r completes at @p complete; if it is the RETMH of the
     *  pending trap, that trap's service time is sampled. */
    void
    noteTrapExit(const func::TraceRecord &r, Cycle complete)
    {
        if (r.inst.op == isa::Op::RETMH && trapPending) {
            pipe.trapService.sample(complete - trapDispatch);
            trapPending = false;
            IMO_TRACE(trace, trapDispatch, obs::Cat::Trap, "trap-exit",
                      r.pc, 0, 0, complete - trapDispatch);
        }
    }

    /**
     * Retire @p r, which completes at @p complete, by graduating it at
     * @p ready or later. Lost slots are charged to the cache when
     * @p cache_stall. A completion that runs away from the graduation
     * frontier (e.g. a stuck fill) raises a structured Deadlock error.
     * @return the graduation cycle.
     */
    Cycle
    retire(const MachineConfig &cfg, const func::TraceRecord &r,
           Cycle complete, Cycle ready, bool cache_stall)
    {
        if (r.handlerCode)
            ++pipe.handlerInstructions;
        if (cfg.watchdogCycles &&
            complete > ledger.lastCycle() + cfg.watchdogCycles) [[unlikely]]
            noRetirement(r, complete);

        ring.push(complete, "grad", r.pc,
                  static_cast<std::uint64_t>(r.inst.op));
        IMO_TRACE(trace, complete, obs::Cat::Grad, "grad", r.pc,
                  static_cast<std::uint64_t>(r.inst.op));
        if (obs && cache_stall) {
            const std::uint64_t before = ledger.cacheStallSlots();
            const Cycle grad = ledger.graduate(ready, cache_stall);
            obs->profiler.noteStall(r.pc,
                                    ledger.cacheStallSlots() - before);
            return grad;
        }
        return ledger.graduate(ready, cache_stall);
    }

  private:
    [[noreturn]] void stuckReference(const func::TraceRecord &r,
                                     Cycle issue, Cycle probe);
    [[noreturn]] void noRetirement(const func::TraceRecord &r,
                                   Cycle complete);
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_CORE_TIMING_HH
