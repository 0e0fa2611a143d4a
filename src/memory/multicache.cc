#include "memory/multicache.hh"

#include <algorithm>

#include "common/error.hh"

namespace imo::memory
{

namespace
{

/** The low @p n bits set, for n in [0, 64]. */
constexpr std::uint64_t
lowBits(std::size_t n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

} // namespace

bool
MultiCacheSim::L2Stacks::touch(std::uint32_t m, Addr addr)
{
    const Addr la = addr >> lineShift;
    const std::uint64_t stack = (la & setMask) * members + m;
    Addr *const t = tags.get() + stack * assoc;
    std::uint32_t &n = len[stack];
    // Move to front in one pass: each entry slides down one place
    // until the line itself comes out of the carry.
    Addr carry = la;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::swap(carry, t[i]);
        if (carry == la)
            return true;
    }
    if (n < assoc)
        t[n++] = carry; // else the bottom (LRU) entry drops out
    return false;
}

MultiCacheSim::MultiCacheSim(std::vector<MultiCacheConfig> configs)
    : _configs(std::move(configs)), _perConfig(_configs.size())
{
    sim_throw_if(_configs.empty(), ErrCode::BadConfig,
                 "multicache: config list is empty");
    for (std::size_t c = 0; c < _configs.size(); ++c) {
        CacheGeometry &l1 = _configs[c].l1;
        CacheGeometry &l2 = _configs[c].l2;
        l1.compile();
        l2.compile();
        sim_throw_if(l1.assoc > 255, ErrCode::BadConfig,
                     "multicache: associativity %u exceeds the engine "
                     "limit of 255",
                     l1.assoc);

        // One group per (L1 line size, set count), one class per
        // associativity within it.
        auto g = std::find_if(_groups.begin(), _groups.end(),
                              [&](const Group &x) {
                                  return x.lineShift == l1.lineShift &&
                                         x.setMask == l1.setMask;
                              });
        if (g == _groups.end()) {
            g = _groups.emplace(_groups.end());
            g->lineShift = l1.lineShift;
            g->setMask = l1.setMask;
        }
        auto k = std::find_if(
            g->cls.begin(), g->cls.end(),
            [&](const ClassState &x) { return x.assoc == l1.assoc; });
        if (k == g->cls.end()) {
            k = g->cls.emplace(g->cls.end());
            k->assoc = l1.assoc;
        }
        k->cfgs.push_back(static_cast<std::uint32_t>(c));

        // One L2Stacks per L2 geometry, one member per config.
        auto s = std::find_if(_l2s.begin(), _l2s.end(),
                              [&](const L2Stacks &x) {
                                  return x.lineShift == l2.lineShift &&
                                         x.setMask == l2.setMask &&
                                         x.assoc == l2.assoc;
                              });
        if (s == _l2s.end()) {
            s = _l2s.emplace(_l2s.end());
            s->lineShift = l2.lineShift;
            s->setMask = l2.setMask;
            s->assoc = l2.assoc;
        }
        PerConfig &pc = _perConfig[c];
        pc.l2 = static_cast<std::uint32_t>(s - _l2s.begin());
        pc.member = s->members++;
#ifdef IMO_PARANOID_XCHECK
        pc.ref = std::make_unique<FunctionalHierarchy>(l1, l2);
#endif
    }

    for (std::size_t gi = 0; gi < _groups.size(); ++gi) {
        Group &g = _groups[gi];
        sim_throw_if(g.cls.size() > 64, ErrCode::BadConfig,
                     "multicache: more than 64 associativities share "
                     "one (line size, set count) group");
        std::sort(g.cls.begin(), g.cls.end(),
                  [](const ClassState &a, const ClassState &b) {
                      return a.assoc < b.assoc;
                  });
        for (std::size_t k = 0; k < g.cls.size(); ++k) {
            for (const std::uint32_t c : g.cls[k].cfgs) {
                _perConfig[c].group = static_cast<std::uint32_t>(gi);
                _perConfig[c].cls = static_cast<std::uint32_t>(k);
            }
        }
        g.depth = g.cls.back().assoc;
        g.allBits = lowBits(g.cls.size());
        g.stack.assign((g.setMask + 1) * g.depth, Entry{});
    }
    for (L2Stacks &s : _l2s) {
        const std::size_t stacks = (s.setMask + 1) * s.members;
        s.tags = std::make_unique_for_overwrite<Addr[]>(stacks * s.assoc);
        s.len.assign(stacks, 0);
    }
}

#ifdef IMO_PARANOID_XCHECK
void
MultiCacheSim::xcheck(Addr addr, Op op)
{
    for (std::size_t c = 0; c < _perConfig.size(); ++c) {
        PerConfig &pc = _perConfig[c];
        if (op == Op::Prefetch) {
            pc.ref->prefetch(addr);
            continue;
        }
        const MemLevel want = pc.ref->access(addr, op == Op::Write);
        sim_throw_if(pc.level != want ||
                         l1Misses(c) != pc.ref->l1().misses(),
                     ErrCode::Internal,
                     "xcheck: multicache config %zu gives %s (%llu L1 "
                     "misses), FunctionalHierarchy %s (%llu) at addr "
                     "%#llx",
                     c, memLevelName(pc.level),
                     static_cast<unsigned long long>(l1Misses(c)),
                     memLevelName(want),
                     static_cast<unsigned long long>(
                         pc.ref->l1().misses()),
                     static_cast<unsigned long long>(addr));
        pc.level = MemLevel::L1;
    }
}
#endif

void
MultiCacheSim::classify(Group &g, Addr addr, Op op)
{
    const bool demand = op != Op::Prefetch;
    const Addr la = addr >> g.lineShift;
    Entry *const e = g.stack.data() + (la & g.setMask) * g.depth;

    std::uint32_t pos = g.depth; // stack distance; depth = absent
    for (std::uint32_t i = 0; i < g.depth; ++i)
        pos = e[i].la == la ? i : pos;
    const std::size_t nk = g.cls.size();
    std::size_t kMiss = 0; // classes [0, kMiss) miss
    for (std::size_t k = 0; k < nk; ++k)
        kMiss += g.cls[k].assoc <= pos;

    // Missing classes write their dirty victim, then access their L2;
    // a prefetch fills every class's L2, hit or miss.
    for (std::size_t k = 0; k < (demand ? kMiss : nk); ++k) {
        ClassState &cs = g.cls[k];
        Addr victim = emptyLine;
        if (k < kMiss) {
            const Entry &v = e[cs.assoc - 1];
            if (v.la != emptyLine && ((v.dirty >> k) & 1))
                victim = v.la << g.lineShift;
            if (demand)
                ++cs.misses;
        }
        for (const std::uint32_t c : cs.cfgs) {
            PerConfig &pc = _perConfig[c];
            L2Stacks &l2 = _l2s[pc.l2];
            if (victim != emptyLine)
                l2.touch(pc.member, victim);
            const bool hit = l2.touch(pc.member, addr);
            if (!demand)
                continue;
            const MemLevel level = hit ? MemLevel::L2 : MemLevel::Memory;
            pc.l2Misses += !hit;
            if (_capturing)
                pc.log.push_back(static_cast<std::uint8_t>(level));
#ifdef IMO_PARANOID_XCHECK
            pc.level = level;
#endif
        }
    }
    if (_capturing && demand)
        for (std::size_t k = kMiss; k < nk; ++k)
            for (const std::uint32_t c : g.cls[k].cfgs)
                _perConfig[c].log.push_back(
                    static_cast<std::uint8_t>(MemLevel::L1));

    // Move the line to the top: hitting classes keep its dirty bits,
    // filling classes start clean, a write dirties all. Entries above
    // it slide down one place; a line not in the stack pushes the
    // bottom entry out.
    Entry carry{la, pos < g.depth ? e[pos].dirty & ~lowBits(kMiss) : 0};
    if (op == Op::Write)
        carry.dirty = g.allBits;
    for (std::uint32_t i = 0, n = std::min(pos + 1, g.depth); i < n; ++i)
        std::swap(carry, e[i]);
}

void
MultiCacheSim::beginCapture()
{
    for (PerConfig &pc : _perConfig)
        pc.log.clear();
    _capturing = true;
}

void
MultiCacheSim::sync()
{
    sim_throw_if(_capturing, ErrCode::Internal,
                 "multicache: sync() inside a capture span "
                 "(use endCapture())");
}

} // namespace imo::memory
