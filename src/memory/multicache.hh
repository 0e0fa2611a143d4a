/**
 * @file
 * Multi-configuration cache simulation: classify one reference stream
 * against many cache geometries in a single pass.
 *
 * The engine is Mattson et al.'s stack algorithm. The contents of an
 * A-way LRU set are exactly the A most recently touched distinct lines
 * mapping to that set, so every associativity sharing one set mapping
 * can be read off a single per-set recency stack. Configurations are
 * grouped by (L1 line size, set count); each group keeps, per set, a
 * move-to-front array of line addresses truncated at the group's
 * deepest associativity. A line's position in that array is its stack
 * distance: class assoc-A misses iff the position is at least A, and
 * its victim is the entry at position A - 1. One scan of the set
 * resolves every associativity of the group at once.
 *
 * Dirtiness is one bitmask per stack entry, bit k naming class k: a
 * hit keeps its bits, a fill clears the filling classes' bits and a
 * write sets them all, so a class's victim is dirty iff its bit is set.
 * A demand reference to a set's top entry hits in every class and
 * moves nothing, so outside capture spans one compare settles it (the
 * way-memoization observation of Ishihara & Fallah).
 *
 * Each configuration owns its L2, the same move-to-front stack with
 * tags only: L2 contents depend on that config's own L1 miss and
 * writeback stream, so they cannot be shared. Every L1 miss (and every
 * prefetch) writes the class's dirty victim and then accesses or fills
 * each config's L2 on the spot, so the per-reference outcome (L1 / L2
 * / Memory) reproduces FunctionalHierarchy::access exactly, writeback
 * ordering included. Configs with equal L2 geometry keep their stacks
 * in one set-major array, so the L2 touches one reference causes
 * across configs land side by side in memory. Levels are recorded per
 * config inside capture spans (beginCapture()/endCapture()/
 * capturedLevels()), the shape the sampler's window replay needs.
 *
 * Invalidation is deliberately unsupported: stack inclusion holds only
 * for pure access/prefetch streams, which is exactly what the sweep's
 * functional reference stream is (the executor never invalidates
 * outside the coherence machine). The IMO_PARANOID_XCHECK build replays
 * every reference through a dedicated FunctionalHierarchy per config
 * and throws ErrCode::Internal at the first level or L1 miss count
 * that differs.
 */

#ifndef IMO_MEMORY_MULTICACHE_HH
#define IMO_MEMORY_MULTICACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "memory/geometry.hh"

#ifdef IMO_PARANOID_XCHECK
#include "memory/hierarchy.hh"
#endif

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
     * throws SimException(BadConfig) otherwise, and also when an L1
     * is more than 255-way or more than 64 associativities share one
     * (line size, set count). Configs sharing an L1 shape share all
     * stack bookkeeping automatically.
     */
    explicit MultiCacheSim(std::vector<MultiCacheConfig> configs);

    /** Classify one demand reference for every config. */
    void
    access(Addr addr, bool is_write)
    {
        ++_accesses;
        reference(addr, is_write ? Op::Write : Op::Read);
    }

    /** Software prefetch: pull the line into both levels of every
     *  config (FunctionalHierarchy::prefetch semantics). */
    void
    prefetch(Addr addr)
    {
        ++_prefetches;
        reference(addr, Op::Prefetch);
    }

    /** Start recording per-config service levels of every demand
     *  reference (one byte per access, MemLevel). Restarts discard the
     *  previous span's logs. */
    void beginCapture();

    /** Stop recording; the captured logs hold final levels. */
    void endCapture() { _capturing = false; }

    /** Config @p c's level log of the last capture span: one MemLevel
     *  per demand access, in stream order. Valid after endCapture(),
     *  until the next beginCapture(). */
    const std::vector<std::uint8_t> &capturedLevels(std::size_t c) const
    {
        return _perConfig[c].log;
    }

    /** Counters are always exact; this only checks that no capture
     *  span is open (throws SimException(Internal) otherwise). */
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
     *  a dedicated FunctionalHierarchy run would report. */
    std::uint64_t l1Misses(std::size_t c) const
    {
        const PerConfig &pc = _perConfig[c];
        return _groups[pc.group].cls[pc.cls].misses;
    }

    /** Demand references of config @p c serviced by main memory. */
    std::uint64_t l2Misses(std::size_t c) const
    {
        return _perConfig[c].l2Misses;
    }

  private:
    enum class Op : std::uint8_t { Read, Write, Prefetch };

    /** Marks an empty stack entry. Line addresses never reach it for
     *  lines of two bytes or more. */
    static constexpr Addr emptyLine = ~Addr{0};

    /** One associativity within a group. */
    struct ClassState
    {
        std::uint32_t assoc = 1;
        std::uint64_t misses = 0;        //!< demand L1 misses
        std::vector<std::uint32_t> cfgs; //!< configs of this class
    };

    /** One line of an L1 stack and the classes it is dirty in. */
    struct Entry
    {
        Addr la = emptyLine;
        std::uint64_t dirty = 0; //!< bit k: dirty in class k
    };

    /** All classes sharing one (line size, set count). Set s owns
     *  stack[s * depth, (s + 1) * depth), most recent first. cls is
     *  sorted by ascending assoc, so the classes missing a line at
     *  stack position p are a prefix: those with assoc <= p. */
    struct Group
    {
        std::uint32_t lineShift = 0;
        std::uint64_t setMask = 0; //!< numSets - 1
        std::uint32_t depth = 1;   //!< deepest class's assoc
        std::uint64_t allBits = 0; //!< one dirty bit per class
        std::vector<ClassState> cls;
        std::vector<Entry> stack;
    };

    /**
     * The L2s of every config with one L2 geometry: a move-to-front
     * tag stack per (set, member). Content and recency order, hence
     * every hit or miss, track SetAssocCache::access and fill exactly.
     * Dirty state is not kept: L2 victims are never observable through
     * the engine. Sets are outermost, so the members' stacks for one
     * reference sit side by side in memory.
     */
    struct L2Stacks
    {
        std::uint32_t lineShift = 0;
        std::uint64_t setMask = 0;
        std::uint32_t assoc = 1;
        std::uint32_t members = 0;
        // Entries past a stack's len are never read, so the tag array
        // starts uninitialized: a 2 MiB L2 per config is tens of
        // megabytes across a sweep, and zero-filling it would fault in
        // every page up front while a run touches only a fraction.
        std::unique_ptr<Addr[]> tags;   //!< [set][member][way]
        std::vector<std::uint32_t> len; //!< [set][member] live entries

        /** Access or fill @p addr in member @p m's L2.
         *  @return true if the line was present. */
        bool touch(std::uint32_t m, Addr addr);
    };

    struct PerConfig
    {
        std::uint32_t group = 0;  //!< its L1 group in _groups
        std::uint32_t cls = 0;    //!< its class within that group
        std::uint32_t l2 = 0;     //!< its L2Stacks in _l2s
        std::uint32_t member = 0; //!< its stacks within them
        std::uint64_t l2Misses = 0;
        std::vector<std::uint8_t> log; //!< capture-span levels
#ifdef IMO_PARANOID_XCHECK
        std::unique_ptr<FunctionalHierarchy> ref; //!< dedicated replay
        MemLevel level = MemLevel::L1; //!< this reference's outcome
#endif
    };

    /** Classify one reference against every group and every config.
     *  Inline, so a reference every group's probe settles costs no
     *  call. */
    void
    reference(Addr addr, Op op)
    {
        const bool probe = op != Op::Prefetch && !_capturing;
        for (Group &g : _groups) {
            const Addr la = addr >> g.lineShift;
            Entry &top = g.stack[(la & g.setMask) * g.depth];
            if (probe && top.la == la) [[likely]] {
                // The set's most recent line hits in every class and
                // is already on top: nothing moves.
                if (op == Op::Write)
                    top.dirty = g.allBits;
                continue;
            }
            classify(g, addr, op);
        }
#ifdef IMO_PARANOID_XCHECK
        xcheck(addr, op);
#endif
    }

    /** The part of reference() for one group that the top-entry probe
     *  does not settle: every class, every config's L2, the logs and
     *  the stack update. Out of line so the probe loop stays small. */
    [[gnu::noinline]] void classify(Group &g, Addr addr, Op op);
#ifdef IMO_PARANOID_XCHECK
    /** Replay the reference through every config's dedicated
     *  hierarchy; throw ErrCode::Internal at the first difference. */
    void xcheck(Addr addr, Op op);
#endif

    std::vector<MultiCacheConfig> _configs;
    std::vector<Group> _groups;
    std::vector<PerConfig> _perConfig;
    std::vector<L2Stacks> _l2s;
    bool _capturing = false;
    std::uint64_t _accesses = 0;
    std::uint64_t _prefetches = 0;
};

} // namespace imo::memory

#endif // IMO_MEMORY_MULTICACHE_HH
