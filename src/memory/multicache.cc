#include "memory/multicache.hh"

#include <algorithm>

#include "common/error.hh"

namespace imo::memory
{


namespace
{

/** Auto-drain bound on a class queue outside capture spans. */
constexpr std::size_t drainThreshold = 65536;

/** References buffered before a batch classification pass. */
} // namespace

MultiCacheSim::L2Replay::L2Replay(const CacheGeometry &g)
    : lineShift(g.lineShift), setMask(g.setMask), assoc(g.assoc)
{
    const std::size_t slots = (setMask + 1) * assoc;
    tags = std::make_unique_for_overwrite<Addr[]>(slots);
    times = std::make_unique_for_overwrite<std::uint64_t[]>(slots);
    len.assign(setMask + 1, 0);
    mruLa.assign(setMask + 1, ~0ull);
}

bool
MultiCacheSim::L2Replay::access(Addr addr)
{
    const Addr la = addr >> lineShift;
    const std::uint64_t set = la & setMask;
    if (mruLa[set] == la)
        return true; // already the newest slot: nothing to reorder
    const std::size_t base = set * assoc;
    const std::uint32_t n = len[set];
    for (std::uint32_t i = 0; i < n; ++i) {
        if (tags[base + i] == la) {
            times[base + i] = ++clock;
            mruLa[set] = la;
            return true;
        }
    }
    std::uint32_t slot = n;
    if (n == assoc) {
        // Full set: evict the LRU slot (oldest timestamp).
        slot = 0;
        for (std::uint32_t i = 1; i < assoc; ++i)
            if (times[base + i] < times[base + slot])
                slot = i;
    } else {
        len[set] = n + 1;
    }
    tags[base + slot] = la;
    times[base + slot] = ++clock;
    mruLa[set] = la;
    return false;
}

void
MultiCacheSim::L2Replay::fill(Addr addr)
{
    // SetAssocCache::fill: a present line is touched, an absent one
    // installs — identical recency motion to access().
    access(addr);
}

MultiCacheSim::PerConfig::PerConfig(const MultiCacheConfig &cfg)
    : l2(cfg.l2)
{
#ifdef IMO_PARANOID_XCHECK
    l2ref = std::make_unique<SetAssocCache>(cfg.l2);
#endif
}

MultiCacheSim::MultiCacheSim(std::vector<MultiCacheConfig> configs)
    : _configs(std::move(configs))
{
    sim_throw_if(_configs.empty(), ErrCode::BadConfig,
                 "multicache: config list is empty");
    for (MultiCacheConfig &c : _configs) {
        c.l1.compile();
        c.l2.compile();
    }

    // Group configs: one forest per L1 line size, one group per set
    // count within it, one class per associativity within that.
    for (std::size_t c = 0; c < _configs.size(); ++c) {
        const CacheGeometry &g = _configs[c].l1;
        std::size_t fi = 0;
        for (; fi < _forests.size(); ++fi)
            if (_forests[fi].lineShift == g.lineShift)
                break;
        if (fi == _forests.size()) {
            _forests.emplace_back();
            _forests.back().lineShift = g.lineShift;
        }
        Forest &f = _forests[fi];
        std::size_t gi = 0;
        for (; gi < f.groups.size(); ++gi)
            if (f.groups[gi].setMask == g.setMask)
                break;
        if (gi == f.groups.size()) {
            f.groups.emplace_back();
            f.groups.back().setMask = g.setMask;
        }
        Group &grp = f.groups[gi];
        std::size_t k = 0;
        for (; k < grp.assocs.size(); ++k)
            if (grp.assocs[k] == g.assoc)
                break;
        if (k == grp.assocs.size()) {
            grp.assocs.push_back(g.assoc);
            grp.cls.emplace_back();
        }
        grp.cls[k].cfgs.push_back(static_cast<std::uint32_t>(c));
        _perConfig.emplace_back(_configs[c]);
    }

    _locs.resize(_configs.size());
    std::size_t max_assoc = 1;
    for (std::size_t fi = 0; fi < _forests.size(); ++fi) {
        Forest &f = _forests[fi];
        for (std::size_t gi = 0; gi < f.groups.size(); ++gi) {
            Group &g = f.groups[gi];

            // Sort classes ascending by associativity so the miss
            // predicate "assoc <= stack rank" is a prefix.
            std::vector<std::size_t> order(g.assocs.size());
            for (std::size_t k = 0; k < order.size(); ++k)
                order[k] = k;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return g.assocs[a] < g.assocs[b];
                      });
            std::vector<std::uint32_t> assocs;
            std::vector<ClassState> cls;
            for (const std::size_t k : order) {
                assocs.push_back(g.assocs[k]);
                cls.push_back(std::move(g.cls[k]));
            }
            g.assocs = std::move(assocs);
            g.cls = std::move(cls);

            for (std::size_t k = 0; k < g.cls.size(); ++k) {
                for (const std::uint32_t c : g.cls[k].cfgs)
                    _locs[c] = CfgLoc{static_cast<std::uint32_t>(fi),
                                      static_cast<std::uint32_t>(gi),
                                      static_cast<std::uint32_t>(k)};
#ifdef IMO_PARANOID_XCHECK
                g.cls[k].l1ref = std::make_unique<SetAssocCache>(
                    _configs[g.cls[k].cfgs.front()].l1);
#endif
            }

            g.maxAssoc = g.assocs.back();
            sim_throw_if(g.maxAssoc > 255, ErrCode::BadConfig,
                         "multicache: associativity %u exceeds the "
                         "engine limit of 255",
                         g.maxAssoc);
            sim_throw_if(g.cls.size() > 64, ErrCode::BadConfig,
                         "multicache: more than 64 associativities "
                         "share one (line size, set count) group");
            const std::size_t slots = (g.setMask + 1) * g.maxAssoc;
            g.slots.assign(slots, Group::Slot{});
            g.sets.assign(g.setMask + 1, Group::SetHdr{});
            g.mruLa.assign(g.setMask + 1, ~0ull);
            g.lastW.assign(slots, 0);
            g.fills.assign(slots * g.assocs.size(), 0);
            max_assoc = std::max<std::size_t>(max_assoc, g.maxAssoc);
        }
    }

    _orderTmp.resize(max_assoc);
    _batchAddr.reserve(batchCapacity);
    _batchFlags.reserve(batchCapacity);
}

void
MultiCacheSim::drainGroup(Group &g, bool patch)
{
    if (g.queue.empty())
        return;
    // Replay the group's deferred L2 operations one config's L2 at a
    // time: the burst keeps that L2's tag array hot instead of
    // interleaving every config's tags access by access. Class k
    // replays the demand entries with kMiss > k and every prefetch.
    for (std::size_t k = 0; k < g.cls.size(); ++k) {
        ClassState &cs = g.cls[k];
        for (std::size_t ci = 0; ci < cs.cfgs.size(); ++ci) {
            const std::uint32_t c = cs.cfgs[ci];
            PerConfig &pc = _perConfig[c];
            std::size_t wb = 0; // cls[k].wbVictims cursor
            std::size_t mi = 0; // wbMasks cursor
            std::uint64_t demand = 0;
            for (const Event &e : g.queue) {
                std::uint64_t mask = 0;
                if (e.flags & flagWb)
                    mask = g.wbMasks[mi++];
                if (e.flags & flagPrefetch) {
                    // Dirty L1 victims land in L2 before the fill,
                    // exactly as FunctionalHierarchy::prefetch.
                    if ((mask >> k) & 1) {
                        const Addr victim = cs.wbVictims[wb++];
                        pc.l2.access(victim);
#ifdef IMO_PARANOID_XCHECK
                        pc.l2ref->access(victim, true);
#endif
                    }
                    pc.l2.fill(e.addr);
#ifdef IMO_PARANOID_XCHECK
                    pc.l2ref->fill(e.addr);
#endif
                    continue;
                }
                if (e.kMiss <= k)
                    continue; // this class hit: no L2 work
                ++demand;
                if ((mask >> k) & 1) {
                    const Addr victim = cs.wbVictims[wb++];
                    pc.l2.access(victim);
#ifdef IMO_PARANOID_XCHECK
                    pc.l2ref->access(victim, true);
#endif
                }
                const bool hit = pc.l2.access(e.addr);
#ifdef IMO_PARANOID_XCHECK
                sim_throw_if(
                    pc.l2ref->access(e.addr, e.flags & flagWrite)
                            .hit != hit,
                    ErrCode::Internal,
                    "xcheck: L2 replay disagrees with SetAssocCache "
                    "(config %u, addr %#llx)",
                    c, static_cast<unsigned long long>(e.addr));
#endif
                if (!hit)
                    ++pc.l2Misses;
                if (patch && e.logPos != noLog)
                    pc.log[e.logPos] = static_cast<std::uint8_t>(
                        hit ? MemLevel::L2 : MemLevel::Memory);
            }
            if (ci == 0)
                cs.misses += demand;
        }
        cs.wbVictims.clear();
    }
    g.queue.clear();
    g.wbMasks.clear();
}

void
MultiCacheSim::handleAccess(Group &g, std::uint32_t lineShift,
                            Addr addr, bool is_write,
                            std::uint64_t epoch)
{
    const Addr la = addr >> lineShift;
    const std::size_t nk = g.assocs.size();
    const std::uint64_t set = la & g.setMask;
    Group::SetHdr &hdr = g.sets[set];
    const std::uint32_t A = g.maxAssoc;
    const std::size_t base = set * A;
    if (is_write)
        g.anyWrite = true;

#ifndef IMO_PARANOID_XCHECK
    if (g.mruLa[set] == la) {
        // Way-memoization fast path: the set's most recent line hits
        // in every class of the group, and it is already the newest
        // slot, so recency state needs no update at all — one tag
        // compare resolves the whole group.
        if (is_write)
            g.lastW[base + hdr.mru] = epoch;
        if (_capturing) {
            for (std::size_t k = 0; k < nk; ++k)
                g.cls[k].log.push_back(
                    static_cast<std::uint8_t>(MemLevel::L1));
        }
        return;
    }
#endif

    Group::Slot *const sl = g.slots.data() + base;
    const std::uint32_t len = hdr.len;

    // Scan the set's live slots. A line's stack rank is the number of
    // newer slots, so class assoc-A hits iff rank < A; on a miss its
    // victim is exactly the slot ranked assoc - 1 when the set holds
    // that many lines — otherwise the set still has invalid ways and
    // nothing is evicted. With assocs ascending, exactly the classes
    // [0, kMiss) miss; victims are ordered lazily, on misses only.
    std::uint32_t me = len;
    for (std::uint32_t i = 0; i < len; ++i) {
        if (sl[i].la == la) {
            me = i;
            break;
        }
    }
    const bool found = me < len;
    std::size_t kMiss = nk;
    std::uint32_t slot;
    if (found) {
        const std::uint64_t t = sl[me].time;
        std::uint32_t rank = 0;
        for (std::uint32_t i = 0; i < len; ++i)
            rank += sl[i].time > t;
        kMiss = 0;
        while (kMiss < nk && g.assocs[kMiss] <= rank)
            ++kMiss;
        slot = me;
        // Victim ordering is only consumed by the dirty-victim check:
        // until the first demand write everything is clean, so skip it.
        if (kMiss != 0 && g.anyWrite) {
            if (kMiss == 1 && g.assocs[0] == 1) {
                // Only a direct-mapped class misses: its victim is the
                // rank-0 slot, which is exactly the set's MRU slot.
                _orderTmp[0] = hdr.mru;
            } else {
                // Victims live among the rank newer slots; order them
                // most recent first (insertion sort, rank <= maxAssoc).
                std::uint32_t nOrder = 0;
                for (std::uint32_t i = 0; i < len; ++i) {
                    if (sl[i].time <= t)
                        continue;
                    std::uint32_t j = nOrder++;
                    while (j > 0 &&
                           sl[_orderTmp[j - 1]].time < sl[i].time) {
                        _orderTmp[j] = _orderTmp[j - 1];
                        --j;
                    }
                    _orderTmp[j] = i;
                }
            }
        }
    } else if (!g.anyWrite) {
        // All lines clean: no victim is ever observed, so only the
        // install slot matters — an invalid way, else the LRU slot.
        if (len < A) {
            slot = len;
        } else {
            std::uint32_t lru = 0;
            for (std::uint32_t i = 1; i < len; ++i)
                if (sl[i].time < sl[lru].time)
                    lru = i;
            slot = lru;
        }
    } else {
        // Every class misses and victims may be dirty; order all live
        // slots for victim lookup.
        std::uint32_t nOrder = 0;
        for (std::uint32_t i = 0; i < len; ++i) {
            std::uint32_t j = nOrder++;
            while (j > 0 && sl[_orderTmp[j - 1]].time < sl[i].time) {
                _orderTmp[j] = _orderTmp[j - 1];
                --j;
            }
            _orderTmp[j] = i;
        }
        // Full set: reuse the LRU slot, which is exactly the deepest
        // class's victim.
        slot = len < A ? len : _orderTmp[A - 1];
    }

    std::uint64_t wbMask = 0;
    if (kMiss != 0) {
        Event e;
        e.addr = addr;
        e.kMiss = static_cast<std::uint8_t>(kMiss);
        e.flags = is_write ? flagWrite : 0;
        if (g.anyWrite) {
            for (std::size_t k = 0; k < kMiss; ++k) {
                const std::uint32_t assoc = g.assocs[k];
                if (found || len >= assoc) {
                    // A valid victim is replaced (found implies
                    // rank >= assoc here, so enough newer slots exist
                    // either way). A zero lastW means the line was
                    // never written: clean.
                    const std::size_t v = base + _orderTmp[assoc - 1];
                    if (g.lastW[v] != 0 &&
                        g.lastW[v] >= g.fills[v * nk + k]) {
                        wbMask |= 1ull << k;
                        g.cls[k].wbVictims.push_back(g.slots[v].la
                                                     << lineShift);
                    }
                }
            }
        }
        if (wbMask != 0) {
            e.flags |= flagWb;
            g.wbMasks.push_back(wbMask);
        }
        if (_capturing)
            e.logPos =
                static_cast<std::uint32_t>(g.cls[0].log.size());
        g.queue.push_back(e);
        if (!_capturing && g.queue.size() >= drainThreshold)
            drainGroup(g, false); // bound queue memory on long gaps
    }
    if (_capturing) {
        // Every class log grows by one byte per demand access, so a
        // log position is class-invariant: misses hold a placeholder
        // for the drain to patch, hits are final.
        for (std::size_t k = 0; k < kMiss; ++k)
            g.cls[k].log.push_back(
                static_cast<std::uint8_t>(MemLevel::Memory));
        for (std::size_t k = kMiss; k < nk; ++k)
            g.cls[k].log.push_back(
                static_cast<std::uint8_t>(MemLevel::L1));
    }
#ifdef IMO_PARANOID_XCHECK
    for (std::size_t k = 0; k < nk; ++k) {
        ClassState &cs = g.cls[k];
        const CacheAccessResult ref = cs.l1ref->access(addr, is_write);
        if (k < kMiss) {
            const bool engine_wb = ((wbMask >> k) & 1) != 0;
            sim_throw_if(ref.hit, ErrCode::Internal,
                         "xcheck: multicache miss but SetAssocCache "
                         "hit (assoc %u, addr %#llx)",
                         g.assocs[k],
                         static_cast<unsigned long long>(addr));
            sim_throw_if(
                ref.writeback.has_value() != engine_wb ||
                    (engine_wb &&
                     *ref.writeback != cs.wbVictims.back()),
                ErrCode::Internal,
                "xcheck: multicache writeback disagrees with "
                "SetAssocCache (assoc %u, addr %#llx)",
                g.assocs[k], static_cast<unsigned long long>(addr));
        } else {
            sim_throw_if(!ref.hit || ref.writeback.has_value(),
                         ErrCode::Internal,
                         "xcheck: multicache hit but SetAssocCache "
                         "missed (assoc %u, addr %#llx)",
                         g.assocs[k],
                         static_cast<unsigned long long>(addr));
        }
    }
#endif

    // Install (or restamp) the line; nothing else moves.
    sl[slot].la = la;
    sl[slot].time = epoch;
    if (g.anyWrite) {
        if (found) {
            if (is_write)
                g.lastW[base + slot] = epoch;
        } else {
            g.lastW[base + slot] = is_write ? epoch : 0;
        }
        for (std::size_t k = 0; k < kMiss; ++k)
            g.fills[(base + slot) * nk + k] = epoch;
    }
    if (!found && len < A)
        hdr.len = static_cast<std::uint8_t>(len + 1);
    hdr.mru = static_cast<std::uint8_t>(slot);
    g.mruLa[set] = la;
}

void
MultiCacheSim::handlePrefetch(Group &g, std::uint32_t lineShift,
                              Addr addr, std::uint64_t epoch)
{
    const Addr la = addr >> lineShift;
    const std::size_t nk = g.assocs.size();
    const std::uint64_t set = la & g.setMask;
    Group::SetHdr &hdr = g.sets[set];
    const std::uint32_t A = g.maxAssoc;
    const std::size_t base = set * A;
    Group::Slot *const sl = g.slots.data() + base;
    const std::uint32_t len = hdr.len;

    std::uint32_t me = len;
    for (std::uint32_t i = 0; i < len; ++i) {
        if (sl[i].la == la) {
            me = i;
            break;
        }
    }
    const bool found = me < len;
    std::size_t kMiss = nk;
    std::uint32_t slot;
    if (found) {
        const std::uint64_t t = sl[me].time;
        std::uint32_t rank = 0;
        for (std::uint32_t i = 0; i < len; ++i)
            rank += sl[i].time > t;
        kMiss = 0;
        while (kMiss < nk && g.assocs[kMiss] <= rank)
            ++kMiss;
        slot = me;
        if (kMiss != 0 && g.anyWrite) {
            std::uint32_t nOrder = 0;
            for (std::uint32_t i = 0; i < len; ++i) {
                if (sl[i].time <= t)
                    continue;
                std::uint32_t j = nOrder++;
                while (j > 0 &&
                       sl[_orderTmp[j - 1]].time < sl[i].time) {
                    _orderTmp[j] = _orderTmp[j - 1];
                    --j;
                }
                _orderTmp[j] = i;
            }
        }
    } else if (!g.anyWrite) {
        if (len < A) {
            slot = len;
        } else {
            std::uint32_t lru = 0;
            for (std::uint32_t i = 1; i < len; ++i)
                if (sl[i].time < sl[lru].time)
                    lru = i;
            slot = lru;
        }
    } else {
        std::uint32_t nOrder = 0;
        for (std::uint32_t i = 0; i < len; ++i) {
            std::uint32_t j = nOrder++;
            while (j > 0 && sl[_orderTmp[j - 1]].time < sl[i].time) {
                _orderTmp[j] = _orderTmp[j - 1];
                --j;
            }
            _orderTmp[j] = i;
        }
        slot = len < A ? len : _orderTmp[A - 1];
    }

    // FunctionalHierarchy::prefetch: L1 fill (dirty victim to L2 as a
    // write), then an L2 fill — always, even when L1 already holds the
    // line, so the event reaches every class. Prefetches never appear
    // in the capture log.
    Event e;
    e.addr = addr;
    e.kMiss = static_cast<std::uint8_t>(kMiss);
    e.flags = flagPrefetch;
    std::uint64_t wbMask = 0;
    if (g.anyWrite) {
        for (std::size_t k = 0; k < kMiss; ++k) {
            const std::uint32_t assoc = g.assocs[k];
            if (found || len >= assoc) {
                const std::size_t v = base + _orderTmp[assoc - 1];
                if (g.lastW[v] != 0 &&
                    g.lastW[v] >= g.fills[v * nk + k]) {
                    wbMask |= 1ull << k;
                    g.cls[k].wbVictims.push_back(g.slots[v].la
                                                 << lineShift);
                }
            }
        }
    }
    if (wbMask != 0) {
        e.flags |= flagWb;
        g.wbMasks.push_back(wbMask);
    }
    g.queue.push_back(e);
    if (!_capturing && g.queue.size() >= drainThreshold)
        drainGroup(g, false);
#ifdef IMO_PARANOID_XCHECK
    for (std::size_t k = 0; k < nk; ++k) {
        ClassState &cs = g.cls[k];
        const std::optional<Addr> wb = cs.l1ref->fill(addr);
        const bool engine_wb = ((wbMask >> k) & 1) != 0;
        sim_throw_if(wb.has_value() != engine_wb ||
                         (engine_wb && *wb != cs.wbVictims.back()),
                     ErrCode::Internal,
                     "xcheck: multicache prefetch fill disagrees with "
                     "SetAssocCache (assoc %u, addr %#llx)",
                     g.assocs[k],
                     static_cast<unsigned long long>(addr));
    }
#endif

    // The prefetched line installs clean: no lastWrite stamp on
    // insertion, and an L1-resident line keeps its dirtiness.
    sl[slot].la = la;
    sl[slot].time = epoch;
    if (g.anyWrite) {
        if (!found)
            g.lastW[base + slot] = 0;
        for (std::size_t k = 0; k < kMiss; ++k)
            g.fills[(base + slot) * nk + k] = epoch;
    }
    if (!found && len < A)
        hdr.len = static_cast<std::uint8_t>(len + 1);
    hdr.mru = static_cast<std::uint8_t>(slot);
    g.mruLa[set] = la;
}

void
MultiCacheSim::flushBatch()
{
    const std::size_t n = _batchAddr.size();
    const Addr *const addrs = _batchAddr.data();
    const std::uint8_t *const flags = _batchFlags.data();
    for (Forest &f : _forests) {
        const std::uint32_t shift = f.lineShift;
        for (Group &g : f.groups) {
#ifndef IMO_PARANOID_XCHECK
            if (!_capturing) {
                // Hot loop: the way-memoization fast path is resolved
                // inline — one tag compare per reference — and only
                // non-MRU references (and writes, prefetches) reach
                // the full classifier. A batch with no writes or
                // prefetches skips the flags load entirely.
                const std::uint64_t mask = g.setMask;
                const Addr *const mru = g.mruLa.data();
                if (_batchPlain) {
                    for (std::size_t i = 0; i < n; ++i) {
                        const Addr la = addrs[i] >> shift;
                        if (mru[la & mask] == la) [[likely]]
                            continue; // MRU repeat: hits everywhere
                        handleAccess(g, shift, addrs[i], false,
                                     _epochBase + i);
                    }
                    continue;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const Addr la = addrs[i] >> shift;
                    if (mru[la & mask] == la && flags[i] == 0)
                        [[likely]]
                        continue; // MRU repeat: hits in every class
                    if (flags[i] & flagPrefetch)
                        handlePrefetch(g, shift, addrs[i],
                                       _epochBase + i);
                    else
                        handleAccess(g, shift, addrs[i],
                                     flags[i] & flagWrite,
                                     _epochBase + i);
                }
                continue;
            }
#endif
            for (std::size_t i = 0; i < n; ++i) {
                if (flags[i] & flagPrefetch)
                    handlePrefetch(g, shift, addrs[i], _epochBase + i);
                else
                    handleAccess(g, shift, addrs[i],
                                 flags[i] & flagWrite, _epochBase + i);
            }
        }
    }
    _epochBase += n;
    _batchAddr.clear();
    _batchFlags.clear();
    _batchPlain = true;
}

void
MultiCacheSim::beginCapture()
{
    flushBatch(); // gap references precede the span
    for (Forest &f : _forests)
        for (Group &g : f.groups)
            for (ClassState &cs : g.cls)
                cs.log.clear();
    _capturing = true;
}

void
MultiCacheSim::endCapture()
{
    flushBatch();
    // Materialize each config's level log from its class's template
    // (pending misses hold a placeholder), then let the drain patch in
    // the per-config L2 outcomes.
    for (Forest &f : _forests) {
        for (Group &g : f.groups) {
            for (std::size_t k = 0; k < g.cls.size(); ++k)
                for (const std::uint32_t c : g.cls[k].cfgs)
                    _perConfig[c].log = g.cls[k].log;
            drainGroup(g, true);
        }
    }
    _capturing = false;
}

void
MultiCacheSim::sync()
{
    sim_throw_if(_capturing, ErrCode::Internal,
                 "multicache: sync() inside a capture span "
                 "(use endCapture())");
    flushBatch();
    for (Forest &f : _forests)
        for (Group &g : f.groups)
            drainGroup(g, false);
}

} // namespace imo::memory
