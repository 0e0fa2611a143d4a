/**
 * @file
 * Multi-configuration cache simulation: classify one reference stream
 * against many cache geometries in a single pass.
 *
 * The engine exploits the LRU stack-inclusion property (Mattson et
 * al.): the contents of an A-way LRU set are exactly the A most
 * recently touched distinct lines mapping to that set, so every
 * associativity sharing one set mapping can be read off a single
 * per-set recency stack. Configurations are grouped into one *forest*
 * per line size and, inside a forest, one *group* per set count; a
 * group keeps per-set timestamp-LRU state, truncated at the group's
 * largest associativity (deeper entries are evicted from every class).
 * A set is a small contiguous array of slots stamped with their last
 * access epoch; a line's stack rank is the count of newer slots, so
 * recency motion is one timestamp store and nothing ever shifts. One
 * scan of the accessed set — at most maxAssoc entries, no hash
 * lookups — resolves hit/miss for every associativity in the group at
 * once: class assoc-A hits iff fewer than A slots are newer, and
 * otherwise evicts exactly the slot ranked A - 1, recovered by
 * ordering the newer slots lazily (misses only). The Ishihara &
 * Fallah way-memoization observation gives the fast path: a re-access
 * of the set's most recent slot hits in every class of the group and
 * needs no scan at all. References are buffered and classified in
 * batches, one group at a time, so a group's arrays stay cache-hot
 * across the whole batch instead of every group's arrays thrashing
 * each other reference by reference.
 *
 * Each configuration additionally owns a dedicated L2 SetAssocCache:
 * L2 contents depend on the per-config L1 miss/writeback stream, so
 * they cannot be shared — but they never feed back into the L1
 * classification, so the engine defers them. Every L1 miss (and
 * prefetch fill) appends one event to its config's queue, and queues
 * drain in bursts — at capture boundaries, at sync(), or when a queue
 * fills — so each config's L2 tag array is walked with hot caches
 * instead of 24 arrays thrashing each other access by access. The
 * per-reference outcome (L1 / L2 / Memory) reproduces
 * FunctionalHierarchy::access byte-for-byte, including dirty-victim
 * writeback ordering; dirtiness is tracked with a per-line last-write
 * epoch against a per-(line, class) fill epoch. Because L2 outcomes
 * surface only at drain points, per-reference levels are read through
 * capture spans (beginCapture()/endCapture()/capturedLevels()) —
 * exactly the shape the sampler's window replay needs.
 *
 * Invalidation is deliberately unsupported: stack inclusion holds only
 * for pure access/prefetch streams, which is exactly what the sweep's
 * functional reference stream is (the executor never invalidates
 * outside the coherence machine). The IMO_PARANOID_XCHECK build replays
 * every classification against a dedicated SetAssocCache per config and
 * throws ErrCode::Internal on any divergence.
 */

#ifndef IMO_MEMORY_MULTICACHE_HH
#define IMO_MEMORY_MULTICACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "memory/cache.hh"
#include "memory/geometry.hh"

namespace imo::memory
{

/** One (L1, L2) geometry pair evaluated by the engine. */
struct MultiCacheConfig
{
    CacheGeometry l1;
    CacheGeometry l2;
};

/** Single-pass hit/miss classifier for many cache configurations. */
class MultiCacheSim
{
  public:
    /**
     * @param configs the geometries to evaluate. Each is validated
     * (power-of-two line sizes and set counts, associativity >= 1);
     * throws SimException(BadConfig) otherwise. Configs sharing an L1
     * shape share all stack bookkeeping automatically.
     */
    explicit MultiCacheSim(std::vector<MultiCacheConfig> configs);

    /** Classify one demand reference for every config. */
    void
    access(Addr addr, bool is_write)
    {
        ++_accesses;
        _batchAddr.push_back(addr);
        _batchFlags.push_back(is_write ? flagWrite
                                       : std::uint8_t{0});
        if (is_write)
            _batchPlain = false;
        if (_batchAddr.size() >= batchCapacity)
            flushBatch();
    }

    /** Software prefetch: pull the line into both levels of every
     *  config (FunctionalHierarchy::prefetch semantics). */
    void
    prefetch(Addr addr)
    {
        ++_prefetches;
        _batchAddr.push_back(addr);
        _batchFlags.push_back(flagPrefetch);
        _batchPlain = false;
        if (_batchAddr.size() >= batchCapacity)
            flushBatch();
    }

    /** Start recording per-config service levels of every demand
     *  reference (one byte per access, MemLevel). Restarts discard the
     *  previous span's logs. */
    void beginCapture();

    /** Stop recording and drain the deferred L2 work so the captured
     *  logs hold final L1/L2/Memory levels. */
    void endCapture();

    /** Config @p c's level log of the last capture span: one MemLevel
     *  per demand access, in stream order. Valid after endCapture(),
     *  until the next beginCapture(). */
    const std::vector<std::uint8_t> &capturedLevels(std::size_t c) const
    {
        return _perConfig[c].log;
    }

    /** Drain all deferred L2 work (l2Misses() is exact afterwards). */
    void sync();

    std::size_t numConfigs() const { return _configs.size(); }
    const MultiCacheConfig &config(std::size_t c) const
    {
        return _configs[c];
    }

    /** Demand references classified so far (the stream length). */
    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t prefetches() const { return _prefetches; }

    /** Demand L1 misses of config @p c — matches the l1Misses counter
     *  a dedicated FunctionalHierarchy run would report. Exact only
     *  after sync() or endCapture() (references are batch-buffered). */
    std::uint64_t l1Misses(std::size_t c) const
    {
        const CfgLoc &loc = _locs[c];
        return _forests[loc.forest]
            .groups[loc.group]
            .cls[loc.cls]
            .misses;
    }

    /** Demand references of config @p c serviced by main memory.
     *  Exact only after sync() or endCapture() (L2 work is deferred). */
    std::uint64_t l2Misses(std::size_t c) const
    {
        return _perConfig[c].l2Misses;
    }

  private:
    /** One deferred L2 operation of a group, in stream order. One
     *  entry serves every class: class k missed iff k < kMiss (the
     *  monotone hit property), and prefetches reach every class's L2.
     *  Dirty-victim addresses (rare) live in per-class side queues,
     *  keyed by a per-event class bitmask in a side queue of its own,
     *  so the common event stays 16 bytes. */
    struct Event
    {
        Addr addr = 0; //!< demand address, or prefetched address
        std::uint32_t logPos = noLog; //!< capture-log slot to patch
        std::uint8_t kMiss = 0; //!< classes [0, kMiss) missed
        std::uint8_t flags = 0;
    };
    static constexpr std::uint32_t noLog = ~0u;
    static constexpr std::uint8_t flagWrite = 1;    //!< demand write
    static constexpr std::uint8_t flagPrefetch = 2; //!< L2 fill, no log

    /** Buffered references per classification batch: large enough to
     *  amortize the per-group pass setup, small enough to stay L1/L2
     *  resident alongside the group arrays. */
    static constexpr std::size_t batchCapacity = 4096;
    static constexpr std::uint8_t flagWb = 4; //!< wbMask entry present

    /** One associativity within a group. All per-access bookkeeping —
     *  miss counter, deferred L2 events, capture log — is per class,
     *  never per config: a class's L1 behaviour is identical for every
     *  config that shares it, so per-config state (the L2) is only
     *  touched when the class's queue drains. */
    struct ClassState
    {
        std::uint64_t misses = 0;      //!< demand L1 misses
        std::vector<Addr> wbVictims;   //!< dirty victims, queue order
        std::vector<std::uint8_t> log; //!< capture-span level template
        std::vector<std::uint32_t> cfgs; //!< configs of this class
#ifdef IMO_PARANOID_XCHECK
        std::unique_ptr<SetAssocCache> l1ref; //!< dedicated replay
#endif
    };

    /** All classes sharing one (line size, set count): per-set
     *  timestamp-LRU state serves every associativity in the group
     *  from one scan. Set s owns slots [s * maxAssoc,
     *  (s + 1) * maxAssoc); slots [0, len) are live and unordered —
     *  a line's stack rank is the number of slots with a newer
     *  last-access time, so nothing ever shifts. assocs is sorted
     *  ascending, so classes [0, kMiss) miss and [kMiss, n) hit,
     *  where kMiss is the first assoc > rank: the per-access loop
     *  touches missing classes only, and victims (the slot ranked
     *  exactly assoc - 1) are ordered lazily, only on misses. */
    struct Group
    {
        std::uint64_t setMask = 0;  //!< numSets - 1
        std::uint32_t maxAssoc = 1; //!< deepest class
        std::vector<std::uint32_t> assocs; //!< ascending, one per class
        std::vector<ClassState> cls;
        std::vector<Event> queue; //!< deferred L2 ops, all classes
        /** Per flagWb event, in queue order: bit k set = class k
         *  evicted a dirty victim (next entry of cls[k].wbVictims). */
        std::vector<std::uint64_t> wbMasks;

        /** One line of one set: tag and last-access epoch interleave
         *  so the scan and the install touch the same cache lines. */
        struct Slot
        {
            Addr la = 0;
            std::uint64_t time = 0;
        };
        /** Per-set slot bookkeeping (mru = most recent slot, len =
         *  live slots), kept apart from mruLa so the fast-path probe
         *  array stays as small — as cache-resident — as possible. */
        struct SetHdr
        {
            std::uint8_t mru = 0; //!< most recent slot
            std::uint8_t len = 0; //!< live slots
        };
        std::vector<Slot> slots; //!< set-major, maxAssoc per set
        std::vector<SetHdr> sets;
        /** Line address of each set's most recent slot (~0 = none):
         *  one tag compare resolves the all-hit fast path, and a
         *  repeated MRU hit updates nothing — the line is already
         *  newest, so leaving its timestamp stale reorders no slot. */
        std::vector<Addr> mruLa;
        std::vector<std::uint64_t> lastW; //!< last demand-write epoch
        /** fill epoch of slot p in class k: fills[p * assocs.size()
         *  + k]; 0 = never filled (or filled clean at epoch 0). */
        std::vector<std::uint64_t> fills;
        /** False until the group's first demand write: read-only
         *  streams skip every dirty-tracking load and store (nothing
         *  can be dirty while all lastW are zero, and once writes
         *  start, a zero fill epoch only pairs with a line whose
         *  lastW correctly decides dirtiness). */
        bool anyWrite = false;
    };

    /** All groups sharing one line size. */
    struct Forest
    {
        std::uint32_t lineShift = 0;
        std::vector<Group> groups;
    };

    /** Where config c's L1 class lives: forest, group, class index. */
    struct CfgLoc
    {
        std::uint32_t forest = 0;
        std::uint32_t group = 0;
        std::uint32_t cls = 0;
    };

    /**
     * Minimal L2 tag store for queue replay: timestamp LRU with the
     * same one-tag-compare MRU fast path as the groups. Content and
     * recency order — hence every future hit/miss — track
     * SetAssocCache::access/fill exactly (victim = invalid way first,
     * else LRU), but dirty state is not kept: L2 victims are never
     * observable through the engine, so writeback bookkeeping would be
     * dead weight on the drain path.
     */
    struct L2Replay
    {
        std::uint32_t lineShift = 0;
        std::uint64_t setMask = 0;
        std::uint32_t assoc = 1;
        // Slots past a set's len are never read, so the two slot
        // arrays start uninitialized: a 2 MiB L2 per config is tens of
        // megabytes across a sweep, and zero-filling it would fault in
        // every page up front while a run touches only a fraction.
        std::unique_ptr<Addr[]> tags; //!< line addr per slot; [0, len) live
        std::unique_ptr<std::uint64_t[]> times;
        std::vector<std::uint32_t> len;
        std::vector<Addr> mruLa; //!< ~0 = none
        std::uint64_t clock = 0;

        explicit L2Replay(const CacheGeometry &g);
        bool access(Addr addr); //!< @return hit; allocates on miss
        void fill(Addr addr);   //!< prefetch install / recency touch
    };

    struct PerConfig
    {
        L2Replay l2;
        std::uint64_t l2Misses = 0;
        std::vector<std::uint8_t> log; //!< finalized capture levels
#ifdef IMO_PARANOID_XCHECK
        std::unique_ptr<SetAssocCache> l2ref; //!< dedicated replay
#endif
        explicit PerConfig(const MultiCacheConfig &cfg);
    };


    /** Classify one reference against every class of @p g, enqueue L2
     *  work for the missing classes, update the recency stack. */
    void handleAccess(Group &g, std::uint32_t lineShift, Addr addr,
                      bool is_write, std::uint64_t epoch);
    void handlePrefetch(Group &g, std::uint32_t lineShift, Addr addr,
                        std::uint64_t epoch);

    /** Classify every buffered reference, one group at a time, so a
     *  group's arrays stay cache-hot across the whole batch. */
    void flushBatch();

    /** Replay @p g's queued L2 operations into every config of every
     *  class; patch config logs when @p patch. */
    void drainGroup(Group &g, bool patch);

    std::vector<MultiCacheConfig> _configs;
    std::vector<Forest> _forests;
    std::vector<CfgLoc> _locs;
    std::vector<PerConfig> _perConfig;
    /** Buffered references awaiting batch classification (parallel
     *  arrays: the classification loop streams addresses and only the
     *  dispatch consults flags). */
    std::vector<Addr> _batchAddr;
    std::vector<std::uint8_t> _batchFlags; //!< flagWrite / flagPrefetch
    bool _batchPlain = true; //!< no write or prefetch in the batch
    bool _capturing = false;
    std::uint64_t _epochBase = 1; //!< epoch of _batch[0]
    std::uint64_t _accesses = 0;
    std::uint64_t _prefetches = 0;

    /** Scratch for ordering a set's slots by recency on a miss;
     *  sized to the largest group's maxAssoc. */
    std::vector<std::uint32_t> _orderTmp;
};

} // namespace imo::memory

#endif // IMO_MEMORY_MULTICACHE_HH
