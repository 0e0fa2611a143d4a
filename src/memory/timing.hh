/**
 * @file
 * TimingMemorySystem: latency and resource model of the data-side
 * memory hierarchy used by both pipeline models.
 *
 * The hit/miss *outcome* of each reference is decided by the in-order
 * FunctionalHierarchy during functional execution (see DESIGN.md); this
 * class turns an outcome into cycles, modeling:
 *   - primary-cache banks (1 access per bank per cycle),
 *   - the lockup-free cache's MSHR file (allocation, merging, fill
 *     occupancy, optional extended lifetime per paper section 3.3),
 *   - secondary-cache and main-memory latency,
 *   - main-memory bandwidth (one access per N cycles).
 */

#ifndef IMO_MEMORY_TIMING_HH
#define IMO_MEMORY_TIMING_HH

#include <cstdint>
#include <vector>

#include "common/faultinject.hh"
#include "common/types.hh"
#include "memory/geometry.hh"
#include "memory/mshr.hh"

namespace imo::memory
{

/** Timing parameters of the data memory system (paper Table 1). */
struct TimingMemoryParams
{
    std::uint32_t lineBytes = 32;
    Cycle l1HitLatency = 2;     //!< load-to-use on a primary hit
    Cycle l2Latency = 12;       //!< primary-to-secondary miss latency
    Cycle memLatency = 75;      //!< primary-to-memory miss latency
    std::uint32_t mshrs = 8;
    std::uint32_t banks = 2;
    Cycle fillCycles = 4;       //!< data cache fill time
    Cycle memBandwidth = 20;    //!< min cycles between memory accesses
    bool extendedMshrLifetime = false;

    bool operator==(const TimingMemoryParams &) const = default;
};

/** Outcome of presenting one data reference to the memory system. */
struct MemRequestResult
{
    bool accepted = false;  //!< false: structural hazard, retry later
    Cycle retryCycle = 0;   //!< earliest useful retry when rejected
    Cycle dataReady = 0;    //!< when the value reaches the processor
    MshrRef mshr;           //!< valid for misses with extended lifetime
};

/** The shared data-side timing model. */
class TimingMemorySystem
{
  public:
    explicit TimingMemorySystem(const TimingMemoryParams &params);

    /**
     * Present a reference whose functional outcome is @p level.
     * @param addr byte address of the reference
     * @param level hierarchy level that services it (from the trace)
     * @param now cycle the cache access starts
     */
    MemRequestResult request(Addr addr, MemLevel level, Cycle now);

    /** Forward graduate/squash notifications to the MSHR file. */
    void notifyGraduated(MshrRef ref, Cycle now)
    {
        _mshrs.notifyGraduated(ref, now);
    }
    void notifySquashed(MshrRef ref, Cycle now)
    {
        _mshrs.notifySquashed(ref, now);
    }

    MshrFile &mshrFile() { return _mshrs; }
    const MshrFile &mshrFile() const { return _mshrs; }
    const TimingMemoryParams &params() const { return _params; }

    /**
     * Attach a fault injector (not owned; may be nullptr). Miss-path
     * requests then consult the MemLatencySpike / MshrExhaustion /
     * StuckFill / HardFault points.
     */
    void setFaultInjector(FaultInjector *faults) { _faults = faults; }

    /** Attach a trace sink (cache access / miss / fill events) to this
     *  system and its MSHR file. Null detaches. */
    void
    setTraceSink(obs::TraceSink *sink)
    {
        _trace = sink;
        _mshrs.setTraceSink(sink);
    }

    /** Expose counters and the miss-latency histogram (plus the MSHR
     *  file's stats) as a "mem" group under @p parent. */
    void registerStats(stats::StatGroup &parent);

    // Statistics.
    std::uint64_t bankConflicts() const { return _bankConflicts; }
    std::uint64_t memQueueCycles() const { return _memQueueCycles; }
    std::uint64_t injectedRejects() const { return _injectedRejects; }
    const stats::Histogram &missLatency() const { return _missLatency; }

    /**
     * Checkpoint hooks. The fault-injector pointer is a live attachment
     * (its own state is checkpointed by the owner); callers must
     * setFaultInjector() again after restore().
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    std::uint32_t bankOf(Addr addr) const;

    TimingMemoryParams _params;
    std::uint32_t _lineShift = 0;   //!< log2(lineBytes); ctor enforces pow2
    std::uint32_t _bankMask = 0;    //!< banks-1 when banks is a power of two
    bool _banksPow2 = false;
    MshrFile _mshrs;
    std::vector<Cycle> _bankFree;
    Cycle _nextMemSlot = 0;
    FaultInjector *_faults = nullptr;

    std::uint64_t _bankConflicts = 0;
    std::uint64_t _memQueueCycles = 0;
    std::uint64_t _injectedRejects = 0;

    stats::Histogram _missLatency{"miss_latency",
                                  "primary-miss service latency, cycles",
                                  24, 8};
    obs::TraceSink *_trace = nullptr;
};

} // namespace imo::memory

#endif // IMO_MEMORY_TIMING_HH
