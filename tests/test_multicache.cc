/**
 * @file
 * Property tests for the single-pass multi-configuration cache engine:
 * every classification must agree exactly with a dedicated
 * FunctionalHierarchy (SetAssocCache L1 + L2) per configuration, over
 * random geometries (all legal shapes) and random and adversarial
 * address streams — the same contract the IMO_PARANOID_XCHECK build
 * enforces inline.
 */

#include <memory>
#include <random>
#include <vector>

#include "gtest/gtest.h"

#include "memory/hierarchy.hh"
#include "memory/multicache.hh"

using namespace imo;

namespace
{

/** Every legal L1 shape class: pow2 line, any assoc (including
 *  non-pow2) as long as the set count is a power of two. Mirrors the
 *  geometry fast-vs-ref generator in test_sweep.cc. */
std::vector<memory::CacheGeometry>
legalShapes()
{
    std::vector<memory::CacheGeometry> shapes;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 6u, 8u}) {
            for (const std::uint64_t sets : {1ull, 2ull, 64ull, 1024ull}) {
                memory::CacheGeometry g;
                g.lineBytes = line;
                g.assoc = assoc;
                g.sizeBytes =
                    static_cast<std::uint64_t>(line) * assoc * sets;
                std::string why;
                EXPECT_TRUE(g.wellFormed(&why)) << why;
                shapes.push_back(g);
            }
        }
    }
    return shapes;
}

memory::CacheGeometry
randomL2For(const memory::CacheGeometry &l1, std::mt19937_64 &rng)
{
    memory::CacheGeometry l2;
    l2.lineBytes = l1.lineBytes;
    const std::uint64_t sets = (rng() & 1) ? 64 : 256;
    l2.assoc = 1u << (rng() % 3);
    l2.sizeBytes =
        static_cast<std::uint64_t>(l2.lineBytes) * l2.assoc * sets;
    return l2;
}

struct Mirror
{
    std::vector<memory::MultiCacheConfig> cfgs;
    std::vector<std::unique_ptr<memory::FunctionalHierarchy>> refs;
    std::vector<std::uint64_t> memRefs; //!< demand refs hitting memory
    /** Per config: expected levels of the current capture span. */
    std::vector<std::vector<std::uint8_t>> want;
    bool capturing = false;

    void
    add(const memory::CacheGeometry &l1, const memory::CacheGeometry &l2)
    {
        cfgs.push_back({l1, l2});
        memory::CacheGeometry c1 = l1, c2 = l2;
        c1.compile();
        c2.compile();
        refs.push_back(
            std::make_unique<memory::FunctionalHierarchy>(c1, c2));
        memRefs.push_back(0);
        want.emplace_back();
    }

    void
    beginSpan(memory::MultiCacheSim &sim)
    {
        sim.beginCapture();
        for (std::vector<std::uint8_t> &w : want)
            w.clear();
        capturing = true;
    }

    /** End the capture span and compare every config's level log
     *  against the dedicated hierarchies. */
    void
    endSpan(memory::MultiCacheSim &sim)
    {
        sim.endCapture();
        capturing = false;
        for (std::size_t c = 0; c < refs.size(); ++c) {
            ASSERT_EQ(sim.capturedLevels(c), want[c])
                << "config " << c
                << " l1 size=" << cfgs[c].l1.sizeBytes
                << " assoc=" << cfgs[c].l1.assoc
                << " line=" << cfgs[c].l1.lineBytes;
        }
    }

    /** Drive both models with one event. */
    void
    step(memory::MultiCacheSim &sim, Addr addr, bool is_write,
         bool is_prefetch)
    {
        if (is_prefetch) {
            sim.prefetch(addr);
            for (auto &r : refs)
                r->prefetch(addr);
            return;
        }
        sim.access(addr, is_write);
        for (std::size_t c = 0; c < refs.size(); ++c) {
            const MemLevel lv = refs[c]->access(addr, is_write);
            if (lv == MemLevel::Memory)
                ++memRefs[c];
            if (capturing)
                want[c].push_back(static_cast<std::uint8_t>(lv));
        }
    }

    void
    checkCounters(memory::MultiCacheSim &sim) const
    {
        sim.sync();
        for (std::size_t c = 0; c < refs.size(); ++c) {
            EXPECT_EQ(sim.l1Misses(c), refs[c]->l1().misses())
                << "config " << c;
            // l2Misses counts demand references serviced by memory
            // (the executor's stats convention), not raw L2 tag-store
            // misses, which also include writeback installs.
            EXPECT_EQ(sim.l2Misses(c), memRefs[c]) << "config " << c;
        }
    }
};

/** Feed @p m @p events random references from @p rng,
 *  alternating captured and uncaptured spans of 1000 events so both the
 *  logged and the unlogged paths are exercised, then check counters. */
void
runRandomStream(Mirror &m, std::mt19937_64 &rng, int events)
{
    memory::MultiCacheSim sim(m.cfgs);
    ASSERT_EQ(sim.numConfigs(), m.cfgs.size());
    for (int i = 0; i < events; ++i) {
        if (i % 1000 == 0) {
            if (i % 2000 == 0)
                m.beginSpan(sim);
            else
                m.endSpan(sim);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        Addr addr = rng();
        if (i % 3 == 0)
            addr &= 0xffff; // small footprint: heavy conflicts
        else if (i % 7 == 0)
            addr &= 0xfffffff;
        const bool prefetch = rng() % 10 == 0;
        const bool write = rng() % 3 == 0;
        m.step(sim, addr, write, prefetch);
    }
    if (m.capturing)
        m.endSpan(sim);
    m.checkCounters(sim);
    EXPECT_GT(sim.accesses(), 0u);
}

} // namespace

TEST(MultiCache, MatchesDedicatedHierarchyOnRandomStreams)
{
    std::mt19937_64 rng(0x1996'07'18); // fixed seed: deterministic
    const std::vector<memory::CacheGeometry> shapes = legalShapes();
    for (int trial = 0; trial < 5; ++trial) {
        Mirror m;
        const std::size_t n = 3 + rng() % 12;
        for (std::size_t i = 0; i < n; ++i) {
            const memory::CacheGeometry &l1 =
                shapes[rng() % shapes.size()];
            m.add(l1, randomL2For(l1, rng));
        }
        runRandomStream(m, rng, 20000);
        if (HasFatalFailure())
            return;
    }
}

TEST(MultiCache, SameL1DifferentL2sLogPerConfig)
{
    // One L1 class serving two L2 geometries: the class's L1 outcomes
    // are shared, but each config's L2 levels and memory misses are its
    // own and must match its own dedicated hierarchy.
    std::mt19937_64 rng(0x12c0);
    memory::CacheGeometry l1;
    l1.lineBytes = 32;
    l1.assoc = 2;
    l1.sizeBytes = 32ull * 2 * 64;
    memory::CacheGeometry small = l1, large = l1;
    small.assoc = 1;
    small.sizeBytes = 32ull * 1 * 128;
    large.assoc = 4;
    large.sizeBytes = 32ull * 4 * 512;
    Mirror m;
    m.add(l1, small);
    m.add(l1, large);
    runRandomStream(m, rng, 20000);
    EXPECT_NE(m.memRefs[0], m.memRefs[1]); // the L2s really differ
}

TEST(MultiCache, SixtyFourAssociativitiesInOneGroup)
{
    // The widest group the engine accepts: every class owns one bit of
    // the dirty mask, the last one bit 63.
    std::mt19937_64 rng(0x6464);
    Mirror m;
    for (std::uint32_t assoc = 1; assoc <= 64; ++assoc) {
        memory::CacheGeometry l1;
        l1.lineBytes = 32;
        l1.assoc = assoc;
        l1.sizeBytes = 32ull * assoc * 4; // 4 sets
        m.add(l1, randomL2For(l1, rng));
    }
    runRandomStream(m, rng, 20000);
}

TEST(MultiCache, AdversarialSetConflictStrides)
{
    // Thrash one set of every geometry at once: walk assoc+1 lines
    // that collide in the largest config, with interleaved writes so
    // dirty-victim writebacks exercise the L2 ordering.
    std::mt19937_64 rng(0xbadcac4e);
    Mirror m;
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u}) {
        memory::CacheGeometry l1;
        l1.lineBytes = 32;
        l1.assoc = assoc;
        l1.sizeBytes = 32ull * assoc * 64; // 64 sets
        m.add(l1, randomL2For(l1, rng));
    }
    memory::MultiCacheSim sim(m.cfgs);

    const std::uint64_t setStride = 32ull * 64; // one full way
    for (int round = 0; round < 400; ++round) {
        if (round % 40 == 0)
            m.beginSpan(sim);
        const std::uint64_t ways = 1 + round % 12;
        for (std::uint64_t w = 0; w <= ways; ++w) {
            const Addr addr = 0x1000 + w * setStride + (round % 2) * 8;
            m.step(sim, addr, (round + w) % 2 == 0, w % 9 == 8);
        }
        if (round % 40 == 20) {
            m.endSpan(sim);
            if (HasFatalFailure())
                return;
        }
    }
    m.checkCounters(sim);
}

TEST(MultiCache, MixedLineSizesShareOnePass)
{
    // Configs spanning several line sizes build independent groups
    // inside one engine; all must classify exactly.
    std::mt19937_64 rng(0x11f0);
    Mirror m;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        memory::CacheGeometry l1;
        l1.lineBytes = line;
        l1.assoc = 2;
        l1.sizeBytes = static_cast<std::uint64_t>(line) * 2 * 128;
        m.add(l1, randomL2For(l1, rng));
    }
    memory::MultiCacheSim sim(m.cfgs);
    for (int i = 0; i < 20000; ++i) {
        if (i % 500 == 0) {
            if (i % 1000 == 0)
                m.beginSpan(sim);
            else
                m.endSpan(sim);
            if (HasFatalFailure())
                return;
        }
        Addr addr = rng() & 0x3ffff;
        m.step(sim, addr, rng() % 4 == 0, rng() % 16 == 0);
    }
    m.checkCounters(sim);
}

TEST(MultiCache, RejectsEmptyAndMalformedConfigs)
{
    EXPECT_THROW(memory::MultiCacheSim{{}}, SimException);
    memory::CacheGeometry bad;
    bad.lineBytes = 24; // not a power of two
    bad.assoc = 1;
    bad.sizeBytes = 24 * 64;
    EXPECT_THROW(
        memory::MultiCacheSim({memory::MultiCacheConfig{bad, bad}}),
        SimException);

    auto codeOf = [](auto &&fn) {
        try {
            fn();
        } catch (const SimException &e) {
            return e.code();
        }
        ADD_FAILURE() << "no SimException";
        return ErrCode::Internal;
    };
    memory::CacheGeometry wide;
    wide.lineBytes = 32;
    wide.assoc = 256; // one more way than the engine allows
    wide.sizeBytes = 32ull * 256;
    EXPECT_EQ(codeOf([&] {
                  memory::MultiCacheSim({memory::MultiCacheConfig{wide,
                                                                  wide}});
              }),
              ErrCode::BadConfig);

    std::vector<memory::MultiCacheConfig> crowded;
    for (std::uint32_t assoc = 1; assoc <= 65; ++assoc) {
        memory::CacheGeometry g;
        g.lineBytes = 32;
        g.assoc = assoc;
        g.sizeBytes = 32ull * assoc * 2; // all at 2 sets: one group
        crowded.push_back({g, g});
    }
    EXPECT_EQ(codeOf([&] { memory::MultiCacheSim{crowded}; }),
              ErrCode::BadConfig);

    crowded.pop_back(); // 64 associativities is the limit, not over it
    memory::MultiCacheSim sim(crowded);
    sim.beginCapture();
    EXPECT_EQ(codeOf([&] { sim.sync(); }), ErrCode::Internal);
    sim.endCapture();
    EXPECT_NO_THROW(sim.sync());
}
