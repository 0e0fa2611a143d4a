/**
 * @file
 * FunctionalHierarchy: the content-reference model of a two-level data
 * cache hierarchy.
 *
 * The functional executor consults this model to decide the hit/miss
 * outcome of every data reference in program order. Because the paper's
 * section 3.3 hardware guarantees that squashed speculative fills are
 * invalidated before they can be silently observed, the in-order
 * contents tracked here match the contents the proposed mechanism
 * exposes to software.
 */

#ifndef IMO_MEMORY_HIERARCHY_HH
#define IMO_MEMORY_HIERARCHY_HH

#include "common/types.hh"
#include "memory/cache.hh"

namespace imo::memory
{

/** Two-level content model: private L1 + L2 backed by main memory. */
class FunctionalHierarchy
{
  public:
    FunctionalHierarchy(CacheGeometry l1, CacheGeometry l2);

    /**
     * Perform a demand reference and update both levels.
     * @return the level that serviced the reference.
     *
     * Forced inline so the executor's per-reference call collapses
     * into the L1 MRU-hit fast path of SetAssocCache::access; the L2
     * side stays out of line to keep the executor's step body small.
     */
    [[gnu::always_inline]] MemLevel
    access(Addr addr, bool is_write)
    {
        const CacheAccessResult r1 = _l1.access(addr, is_write);
        if (r1.hit) [[likely]]
            return MemLevel::L1;
        return accessL2(addr, is_write, r1.writeback);
    }

    /** Software prefetch: pull the line into both levels. */
    void prefetch(Addr addr);

    /** Invalidate the line in both levels (coherence / §3.3). */
    void invalidate(Addr addr);

    /** Drop all cached contents. */
    void flushAll();

    /** Expose both levels' traffic stats under @p parent. */
    void
    registerStats(stats::StatGroup &parent)
    {
        _l1.registerStats(parent, "l1");
        _l2.registerStats(parent, "l2");
    }

    SetAssocCache &l1() { return _l1; }
    SetAssocCache &l2() { return _l2; }
    const SetAssocCache &l1() const { return _l1; }
    const SetAssocCache &l2() const { return _l2; }

    /** Checkpoint hooks: both levels round-trip. */
    void
    save(Serializer &s) const
    {
        _l1.save(s);
        _l2.save(s);
    }

    void
    restore(Deserializer &d)
    {
        _l1.restore(d);
        _l2.restore(d);
    }

  private:
    /** The L1-miss remainder of access(). */
    MemLevel accessL2(Addr addr, bool is_write,
                      std::optional<Addr> l1_writeback);

    SetAssocCache _l1;
    SetAssocCache _l2;
};

} // namespace imo::memory

#endif // IMO_MEMORY_HIERARCHY_HH
