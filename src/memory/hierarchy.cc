#include "memory/hierarchy.hh"

namespace imo::memory
{

FunctionalHierarchy::FunctionalHierarchy(CacheGeometry l1, CacheGeometry l2)
    : _l1(l1), _l2(l2)
{
}

MemLevel
FunctionalHierarchy::accessL2(Addr addr, bool is_write,
                              std::optional<Addr> l1_writeback)
{
    // L1 victim writebacks land in L2 (which already holds the line in
    // an inclusive hierarchy; access keeps its LRU warm).
    if (l1_writeback)
        _l2.access(*l1_writeback, true);

    const CacheAccessResult r2 = _l2.access(addr, is_write);
    return r2.hit ? MemLevel::L2 : MemLevel::Memory;
}

void
FunctionalHierarchy::prefetch(Addr addr)
{
    if (auto wb = _l1.fill(addr))
        _l2.access(*wb, true);
    _l2.fill(addr);
}

void
FunctionalHierarchy::invalidate(Addr addr)
{
    _l1.invalidate(addr);
    _l2.invalidate(addr);
}

void
FunctionalHierarchy::flushAll()
{
    _l1.flushAll();
    _l2.flushAll();
}

} // namespace imo::memory
