/**
 * @file
 * Cache geometry: size / line / associativity and address slicing.
 *
 * Every legal geometry has a power-of-two line size and a power-of-two
 * set count (enforced by wellFormed()), so set-index and tag extraction
 * are pure shift/mask operations. compile() precomputes those shifts
 * once; the accessors then avoid the divide chains entirely. A plain
 * aggregate-initialized geometry that never called compile() falls back
 * to the reference arithmetic, so `CacheGeometry{.sizeBytes = ...}`
 * literals keep working unchanged.
 */

#ifndef IMO_MEMORY_GEOMETRY_HH
#define IMO_MEMORY_GEOMETRY_HH

#include <bit>
#include <cstdint>
#include <string>

#include "common/error.hh"
#include "common/types.hh"

namespace imo::memory
{

/** Static shape of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 1;

    // Precomputed slicing, filled in by compile(). Left at defaults for
    // aggregate-initialized geometries (precomputed == false routes the
    // accessors through the reference arithmetic).
    std::uint32_t lineShift = 0;  //!< log2(lineBytes)
    std::uint32_t tagShift = 0;   //!< log2(lineBytes * numSets())
    std::uint64_t setMask = 0;    //!< numSets() - 1
    bool precomputed = false;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / assoc; }

    /** @return the line-aligned address containing @p addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes - 1);
    }

    /** Reference set-index arithmetic (divide chain); the fast path is
     *  cross-checked against this in the IMO_PARANOID_XCHECK build. */
    std::uint64_t
    setIndexRef(Addr addr) const
    {
        return (addr / lineBytes) % numSets();
    }

    /** Reference tag arithmetic. */
    Addr
    tagRef(Addr addr) const
    {
        return addr / lineBytes / numSets();
    }

    /** @return the set index for @p addr. */
    std::uint64_t
    setIndex(Addr addr) const
    {
        if (!precomputed)
            return setIndexRef(addr);
        const std::uint64_t set = (addr >> lineShift) & setMask;
#ifdef IMO_PARANOID_XCHECK
        sim_throw_if(set != setIndexRef(addr), ErrCode::Internal,
                     "xcheck: fast setIndex %llu != reference %llu "
                     "for addr %#llx",
                     static_cast<unsigned long long>(set),
                     static_cast<unsigned long long>(setIndexRef(addr)),
                     static_cast<unsigned long long>(addr));
#endif
        return set;
    }

    /** @return the tag for @p addr. */
    Addr
    tag(Addr addr) const
    {
        if (!precomputed)
            return tagRef(addr);
        const Addr t = addr >> tagShift;
#ifdef IMO_PARANOID_XCHECK
        sim_throw_if(t != tagRef(addr), ErrCode::Internal,
                     "xcheck: fast tag %#llx != reference %#llx "
                     "for addr %#llx",
                     static_cast<unsigned long long>(t),
                     static_cast<unsigned long long>(tagRef(addr)),
                     static_cast<unsigned long long>(addr));
#endif
        return t;
    }

    /**
     * Reconstruct the line-aligned byte address cached under
     * (@p tag_v, @p set) — the inverse of setIndex()/tag(), used to
     * name dirty victims at eviction time.
     */
    Addr
    lineAddrOf(Addr tag_v, std::uint64_t set) const
    {
        if (!precomputed)
            return (tag_v * numSets() + set) * lineBytes;
        return ((tag_v << (tagShift - lineShift)) | set) << lineShift;
    }

    /**
     * Precompute the shift/mask slicing. Throws SimException(BadConfig)
     * if the geometry is not realizable (the shifts only exist for
     * power-of-two line sizes and set counts).
     */
    void
    compile()
    {
        check();
        lineShift = static_cast<std::uint32_t>(
            std::countr_zero(static_cast<std::uint64_t>(lineBytes)));
        setMask = numSets() - 1;
        tagShift = lineShift + static_cast<std::uint32_t>(
            std::countr_zero(numSets()));
        precomputed = true;
    }

    /**
     * @return true if the geometry is realizable; otherwise false,
     * with a description of the first problem in @p why (if non-null).
     */
    bool
    wellFormed(std::string *why = nullptr) const
    {
        auto fail = [&](std::string text) {
            if (why)
                *why = std::move(text);
            return false;
        };
        if (sizeBytes == 0 || lineBytes == 0 || assoc == 0)
            return fail("cache geometry has a zero parameter");
        if (lineBytes & (lineBytes - 1))
            return fail(simFormat("line size %u is not a power of two",
                                  lineBytes));
        if (sizeBytes % (static_cast<std::uint64_t>(lineBytes) * assoc))
            return fail(simFormat(
                "cache size %llu not divisible by line*assoc",
                static_cast<unsigned long long>(sizeBytes)));
        const std::uint64_t sets = numSets();
        if (sets == 0 || (sets & (sets - 1)))
            return fail(simFormat(
                "cache set count %llu is not a power of two",
                static_cast<unsigned long long>(sets)));
        return true;
    }

    /** Throw SimException(BadConfig) if the geometry is not realizable. */
    void
    check() const
    {
        std::string why;
        sim_throw_if(!wellFormed(&why), ErrCode::BadConfig,
                     "cache geometry: %s", why.c_str());
    }

    bool operator==(const CacheGeometry &) const = default;
};

} // namespace imo::memory

#endif // IMO_MEMORY_GEOMETRY_HH
