#include "memory/cache.hh"

#include <algorithm>
#include <numeric>

#include "common/checkpoint.hh"
#include "common/error.hh"

namespace imo::memory
{

SetAssocCache::SetAssocCache(CacheGeometry geom) : _geom(geom)
{
    _geom.compile();
    _lines.resize(_geom.numLines());
    _mru.assign(_geom.numSets(), 0);
    // Every line starts invalid with the same stamp, so each set's
    // recency order is its ways in index order, way 0 first: what
    // rebuildOrder() yields, without sorting every set of a large L2.
    _order.resize(_geom.numLines());
    const std::uint32_t assoc = _geom.assoc;
    for (std::size_t i = 0; i < _order.size(); i += assoc)
        std::iota(_order.begin() + i, _order.begin() + i + assoc, 0u);
}

void
SetAssocCache::rebuildOrder()
{
    const std::uint32_t assoc = _geom.assoc;
    for (std::uint64_t set = 0; set < _mru.size(); ++set) {
        std::uint32_t *ord = &_order[set * assoc];
        std::iota(ord, ord + assoc, 0u);
        const Line *base = &_lines[set * assoc];
        // Stable insertion sort, most-recent first: ties (possible only
        // among never-touched lines, which are invalid and never
        // reached via the order) keep the lower way first for
        // determinism. Allocation-free: this runs per set, and a
        // large L2 has tens of thousands of them.
        for (std::uint32_t i = 1; i < assoc; ++i) {
            const std::uint32_t way = ord[i];
            const std::uint64_t stamp = base[way].lruStamp;
            std::uint32_t j = i;
            for (; j > 0 && base[ord[j - 1]].lruStamp < stamp; --j)
                ord[j] = ord[j - 1];
            ord[j] = way;
        }
        _mru[set] = ord[0];
    }
}

std::uint32_t
SetAssocCache::lookupWay(std::uint64_t set, Addr tag) const
{
    const std::uint32_t assoc = _geom.assoc;
    const Line *base = &_lines[set * assoc];

    // One-entry MRU filter: most hits re-touch the last-touched way.
    const std::uint32_t mru = _mru[set];
    if (base[mru].valid && base[mru].tag == tag)
        return mru;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return way;
    }
    return assoc;
}

std::uint32_t
SetAssocCache::victimWay(std::uint64_t set) const
{
    const std::uint32_t assoc = _geom.assoc;
    const Line *base = &_lines[set * assoc];
    std::uint32_t way = assoc;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            way = w;
            break;
        }
    }
    if (way == assoc) {
        // All ways valid: the recency order's tail is the LRU way.
        way = _order[set * assoc + assoc - 1];
    }
#ifdef IMO_PARANOID_XCHECK
    // Reference victim selection: first invalid way, else min stamp.
    std::uint32_t ref = 0;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            ref = w;
            break;
        }
        if (base[w].lruStamp < base[ref].lruStamp)
            ref = w;
    }
    sim_throw_if(ref != way, ErrCode::Internal,
                 "xcheck: fast victim way %u != reference way %u in set "
                 "%llu", way, ref, static_cast<unsigned long long>(set));
#endif
    return way;
}

void
SetAssocCache::touch(std::uint64_t set, std::uint32_t way)
{
    _lines[set * _geom.assoc + way].lruStamp = ++_stamp;
    _mru[set] = way;
    std::uint32_t *ord = &_order[set * _geom.assoc];
    if (ord[0] == way)
        return;
    std::uint32_t i = 1;
    while (ord[i] != way)
        ++i;
    for (; i > 0; --i)
        ord[i] = ord[i - 1];
    ord[0] = way;
}

const SetAssocCache::Line *
SetAssocCache::findLine(Addr addr) const
{
    const std::uint64_t set = _geom.setIndex(addr);
    const std::uint32_t way = lookupWay(set, _geom.tag(addr));
    return way == _geom.assoc ? nullptr : &_lines[set * _geom.assoc + way];
}

CacheAccessResult
SetAssocCache::accessSlow(std::uint64_t set, Addr tag, bool is_write)
{
    CacheAccessResult result;
    const std::uint32_t way = lookupWay(set, tag);
    if (way != _geom.assoc) {
        ++_hits;
        result.hit = true;
        Line &line = _lines[set * _geom.assoc + way];
        line.dirty = line.dirty || is_write;
        touch(set, way);
        return result;
    }

    ++_misses;
    const std::uint32_t vway = victimWay(set);
    Line &victim = _lines[set * _geom.assoc + vway];
    if (victim.valid && victim.dirty) {
        ++_writebacks;
        result.writeback = _geom.lineAddrOf(victim.tag, set);
    }
    victim.valid = true;
    victim.dirty = is_write;
    victim.tag = tag;
    touch(set, vway);
    return result;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

std::optional<Addr>
SetAssocCache::fill(Addr addr)
{
    const std::uint64_t set = _geom.setIndex(addr);
    const Addr tag = _geom.tag(addr);

    const std::uint32_t way = lookupWay(set, tag);
    if (way != _geom.assoc) {
        touch(set, way);
        return std::nullopt;
    }
    std::optional<Addr> wb;
    const std::uint32_t vway = victimWay(set);
    Line &victim = _lines[set * _geom.assoc + vway];
    if (victim.valid && victim.dirty) {
        ++_writebacks;
        wb = _geom.lineAddrOf(victim.tag, set);
    }
    victim.valid = true;
    victim.dirty = false;
    victim.tag = tag;
    touch(set, vway);
    return wb;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const std::uint64_t set = _geom.setIndex(addr);
    const std::uint32_t way = lookupWay(set, _geom.tag(addr));
    if (way == _geom.assoc)
        return false;
    Line &line = _lines[set * _geom.assoc + way];
    line.valid = false;
    line.dirty = false;
    ++_invalidations;
    return true;
}

void
SetAssocCache::flushAll()
{
    for (Line &line : _lines) {
        line.valid = false;
        line.dirty = false;
    }
}

void
SetAssocCache::resetStats()
{
    _hits = 0;
    _misses = 0;
    _writebacks = 0;
    _invalidations = 0;
}

void
SetAssocCache::registerStats(stats::StatGroup &parent,
                             const std::string &name)
{
    auto &g = parent.childGroup(name);
    g.make<stats::Value>("hits", "demand accesses that hit",
                         [this] { return _hits; });
    g.make<stats::Value>("misses", "demand accesses that missed",
                         [this] { return _misses; });
    g.make<stats::Value>("writebacks", "dirty victims written back",
                         [this] { return _writebacks; });
    g.make<stats::Value>("invalidations", "lines invalidated",
                         [this] { return _invalidations; });
    g.make<stats::Derived>("miss_rate", "misses / (hits + misses)",
                           [this] { return missRate(); });
}

void
SetAssocCache::save(Serializer &s) const
{
    s.u64(_lines.size());
    s.u64(_stamp);
    s.u64(_hits);
    s.u64(_misses);
    s.u64(_writebacks);
    s.u64(_invalidations);
    // Columnar, compressed (format v4): flag bytes zero-RLE (invalid
    // lines dominate a large L2), tags and LRU stamps delta-varint.
    // The row-major interleaved layout cost ~18 bytes per line; a
    // mostly-cold 2MB L2 now costs a few bytes per *run* of cold
    // lines, which is what makes per-window live-points affordable.
    std::vector<std::uint8_t> flags(_lines.size());
    std::vector<std::uint64_t> tags(_lines.size());
    std::vector<std::uint64_t> stamps(_lines.size());
    for (std::size_t i = 0; i < _lines.size(); ++i) {
        const Line &line = _lines[i];
        flags[i] = static_cast<std::uint8_t>((line.valid ? 1 : 0) |
                                             (line.dirty ? 2 : 0));
        tags[i] = line.tag;
        stamps[i] = line.lruStamp;
    }
    s.vecU8Rle(flags);
    s.vecU64Packed(tags);
    s.vecU64Packed(stamps);
}

void
SetAssocCache::restore(Deserializer &d)
{
    const std::uint64_t count = d.u64();
    sim_throw_if(count != _lines.size(), ErrCode::BadCheckpoint,
                 "checkpointed cache has %llu lines, configured geometry "
                 "has %zu",
                 static_cast<unsigned long long>(count), _lines.size());
    _stamp = d.u64();
    _hits = d.u64();
    _misses = d.u64();
    _writebacks = d.u64();
    _invalidations = d.u64();
    const std::vector<std::uint8_t> flags = d.vecU8Rle();
    const std::vector<std::uint64_t> tags = d.vecU64Packed();
    const std::vector<std::uint64_t> stamps = d.vecU64Packed();
    sim_throw_if(flags.size() != _lines.size() ||
                 tags.size() != _lines.size() ||
                 stamps.size() != _lines.size(),
                 ErrCode::BadCheckpoint,
                 "checkpointed cache arrays (%zu/%zu/%zu entries) do not "
                 "match the %zu-line geometry", flags.size(), tags.size(),
                 stamps.size(), _lines.size());
    for (std::size_t i = 0; i < _lines.size(); ++i) {
        sim_throw_if(flags[i] > 3, ErrCode::BadCheckpoint,
                     "checkpointed cache line %zu has undefined flag "
                     "bits %#x", i, flags[i]);
        Line &line = _lines[i];
        line.valid = flags[i] & 1;
        line.dirty = flags[i] & 2;
        line.tag = tags[i];
        line.lruStamp = stamps[i];
    }
    rebuildOrder();
}

} // namespace imo::memory
