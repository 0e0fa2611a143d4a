/**
 * @file
 * Sparse 64-bit-word data memory for functional execution.
 */

#ifndef IMO_FUNC_DATAMEM_HH
#define IMO_FUNC_DATAMEM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/types.hh"

namespace imo::func
{

/**
 * Byte-addressed, 8-byte-aligned, zero-initialized data memory backed
 * by 4 KiB pages allocated on demand.
 */
class DataMemory
{
  public:
    std::uint64_t
    read64(Addr addr) const
    {
        // Effective addresses are program-controlled (base register +
        // displacement), so misalignment is a program error, not an
        // internal invariant violation.
        sim_throw_if(addr & 7, ErrCode::BadProgram,
                     "unaligned 64-bit read at %#llx",
                     static_cast<unsigned long long>(addr));
        const Addr pg = pageOf(addr);
        if (std::uint64_t *words = cachedPage(pg)) [[likely]]
            return words[wordInPage(addr)];
        auto it = _pages.find(pg);
        if (it == _pages.end())
            return 0;
        // The map itself is non-const; only this accessor is const.
        remember(pg, const_cast<std::vector<std::uint64_t> &>(it->second));
        return it->second[wordInPage(addr)];
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        sim_throw_if(addr & 7, ErrCode::BadProgram,
                     "unaligned 64-bit write at %#llx",
                     static_cast<unsigned long long>(addr));
        const Addr pg = pageOf(addr);
        if (std::uint64_t *words = cachedPage(pg)) [[likely]] {
            words[wordInPage(addr)] = value;
            return;
        }
        std::vector<std::uint64_t> &words = page(addr);
        remember(pg, words);
        words[wordInPage(addr)] = value;
    }

    /** @return number of resident pages (for tests). */
    std::size_t residentPages() const { return _pages.size(); }

    /**
     * Checkpoint hooks. Pages are written sorted by page number so the
     * image is independent of hash-map iteration order.
     */
    void
    save(Serializer &s) const
    {
        std::vector<Addr> order;
        order.reserve(_pages.size());
        for (const auto &[page, words] : _pages)
            order.push_back(page);
        std::sort(order.begin(), order.end());
        // Format v4: page numbers delta-varint packed (sorted, so the
        // deltas are small) and each page's words likewise (zeroed and
        // small values dominate real data pages).
        s.vecU64Packed(order);
        for (const Addr page : order)
            s.vecU64Packed(_pages.at(page));
    }

    void
    restore(Deserializer &d)
    {
        _pages.clear();
        _cached = {};
        const std::vector<Addr> order = d.vecU64Packed();
        for (std::size_t i = 0; i < order.size(); ++i) {
            sim_throw_if(i > 0 && order[i] <= order[i - 1],
                         ErrCode::BadCheckpoint,
                         "checkpointed data pages out of order at "
                         "index %zu", i);
            std::vector<std::uint64_t> words = d.vecU64Packed();
            sim_throw_if(words.size() != wordsPerPage,
                         ErrCode::BadCheckpoint,
                         "checkpointed data page %#llx has %zu words, "
                         "expected %llu",
                         static_cast<unsigned long long>(order[i]),
                         words.size(),
                         static_cast<unsigned long long>(wordsPerPage));
            _pages[order[i]] = std::move(words);
        }
    }

  private:
    static constexpr Addr pageBytes = 4096;
    static constexpr Addr wordsPerPage = pageBytes / 8;

    static Addr pageOf(Addr addr) { return addr / pageBytes; }
    static Addr wordInPage(Addr addr) { return (addr % pageBytes) / 8; }

    std::vector<std::uint64_t> &
    page(Addr addr)
    {
        auto [it, inserted] = _pages.try_emplace(pageOf(addr));
        if (inserted)
            it->second.resize(wordsPerPage, 0);
        return it->second;
    }

    /** @return the words of page @p pg if cached, else nullptr. */
    std::uint64_t *
    cachedPage(Addr pg) const
    {
        if (pg == _cached[0].page)
            return _cached[0].words;
        if (pg == _cached[1].page)
            return _cached[1].words;
        return nullptr;
    }

    /** Cache page @p pg, replacing the older of the two entries. */
    void
    remember(Addr pg, std::vector<std::uint64_t> &words) const
    {
        _cached[_cacheVictim] = {pg, words.data()};
        _cacheVictim ^= 1;
    }

    std::unordered_map<Addr, std::vector<std::uint64_t>> _pages;

    // Two-entry page cache: spatial locality makes consecutive
    // references overwhelmingly land on one of a couple of pages (a
    // loop streaming two arrays alternates between two), turning the
    // per-reference hash lookup into a compare or two. Page vectors
    // never resize and mapped values stay put across rehashes, so only
    // restore() (which clears the map) needs to drop the cache.
    static constexpr Addr kNoPage = ~static_cast<Addr>(0);
    struct CachedPage
    {
        Addr page = kNoPage;
        std::uint64_t *words = nullptr;
    };
    mutable std::array<CachedPage, 2> _cached{};
    mutable unsigned _cacheVictim = 0;
};

} // namespace imo::func

#endif // IMO_FUNC_DATAMEM_HH
