#include "coherence/kernels.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace imo::coherence
{

namespace
{

constexpr Addr sharedBase = 0x100000;
constexpr Addr privateBase = 0x8000000;

/** Per-processor stream under construction. */
class StreamBuilder
{
  public:
    StreamBuilder(std::uint32_t proc, std::uint64_t seed)
        : _proc(proc), _rng(seed ^ (0x9e3779b9ull * (proc + 1)))
    {
    }

    void
    read(Addr addr, std::uint16_t compute = 2)
    {
        _items.push_back({TraceItem::Kind::Ref, addr, false, true,
                          compute});
        maybePrivate();
    }

    void
    write(Addr addr, std::uint16_t compute = 2)
    {
        _items.push_back({TraceItem::Kind::Ref, addr, true, true,
                          compute});
        maybePrivate();
    }

    void
    barrier()
    {
        _items.push_back({TraceItem::Kind::Barrier, 0, false, false, 0});
    }

    std::vector<TraceItem> take() { return std::move(_items); }

    Rng &rng() { return _rng; }

  private:
    /** Sprinkle private (stack/local) accesses between shared ones. */
    void
    maybePrivate()
    {
        if (_rng.chance(0.25)) {
            const Addr addr = privateBase +
                (static_cast<Addr>(_proc) << 16) +
                8 * _rng.below(256);   // 2 KiB private working set
            _items.push_back({TraceItem::Kind::Ref, addr,
                              _rng.chance(0.4), false, 1});
        }
    }

    std::uint32_t _proc;
    Rng _rng;
    std::vector<TraceItem> _items;
};

std::int64_t
scaledCount(const KernelParams &params, std::int64_t n)
{
    const double v = static_cast<double>(n) * params.scale;
    return v < 1.0 ? 1 : static_cast<std::int64_t>(v);
}

} // anonymous namespace

ParallelWorkload
makeStencil(const KernelParams &params)
{
    const std::uint32_t n = params.processors;
    const std::uint32_t rows_per_proc = 8;
    const std::uint32_t cols = 128;            // 1 KiB rows
    const std::uint32_t sample = 1;            // every word
    const std::int64_t phases = scaledCount(params, 6);

    auto row_addr = [&](std::uint32_t row, std::uint32_t col) {
        return sharedBase + (static_cast<Addr>(row) * cols + col) * 8;
    };

    ParallelWorkload wl;
    wl.name = "stencil";
    for (std::uint32_t p = 0; p < n; ++p) {
        StreamBuilder sb(p, params.seed);
        const std::uint32_t row0 = p * rows_per_proc;
        for (std::int64_t phase = 0; phase < phases; ++phase) {
            for (std::uint32_t r = 0; r < rows_per_proc; ++r) {
                const std::uint32_t row = row0 + r;
                for (std::uint32_t c = 0; c < cols; c += sample) {
                    // 5-point stencil: center, east, north, south. The
                    // north/south reads leave the band only on the
                    // boundary rows.
                    sb.read(row_addr(row, c), 3);
                    if (c + 1 < cols)
                        sb.read(row_addr(row, c + 1), 1);
                    if (row > 0)
                        sb.read(row_addr(row - 1, c), 1);
                    if (row + 1 < n * rows_per_proc)
                        sb.read(row_addr(row + 1, c), 1);
                    sb.write(row_addr(row, c), 4);
                }
            }
            sb.barrier();
        }
        wl.streams.push_back(sb.take());
    }
    return wl;
}

ParallelWorkload
makeProdCons(const KernelParams &params)
{
    const std::uint32_t n = params.processors;
    const std::uint32_t seg_words = 256;       // 2 KiB per segment
    const std::int64_t phases = scaledCount(params, 8);

    // Two buffers, each n segments.
    auto seg_addr = [&](std::uint32_t buf, std::uint32_t proc,
                        std::uint32_t word) {
        return sharedBase + 0x200000 +
            ((static_cast<Addr>(buf) * n + proc) * seg_words + word) * 8;
    };

    ParallelWorkload wl;
    wl.name = "prodcons";
    for (std::uint32_t p = 0; p < n; ++p) {
        StreamBuilder sb(p, params.seed);
        for (std::int64_t phase = 0; phase < phases; ++phase) {
            const std::uint32_t out_buf = phase & 1;
            const std::uint32_t in_buf = out_buf ^ 1;
            const std::uint32_t producer = (p + n - 1) % n;
            for (std::uint32_t w = 0; w < seg_words; ++w) {
                // Consume the upstream segment (with reuse: only the
                // first touch of each block misses), produce our own,
                // and re-read the produced value while transforming it.
                sb.read(seg_addr(in_buf, producer, w), 2);
                sb.read(seg_addr(in_buf, producer, w ^ 1), 1);
                sb.read(seg_addr(in_buf, producer, w ^ 2), 1);
                sb.write(seg_addr(out_buf, p, w), 3);
                sb.read(seg_addr(out_buf, p, w), 1);
                sb.read(seg_addr(out_buf, p, w ^ 1), 1);
            }
            sb.barrier();
        }
        wl.streams.push_back(sb.take());
    }
    return wl;
}

ParallelWorkload
makeMigratory(const KernelParams &params)
{
    const std::uint32_t n = params.processors;
    const std::uint32_t counters = 512;
    const std::int64_t iters = scaledCount(params, 1200);
    const Addr base = sharedBase + 0x400000;

    ParallelWorkload wl;
    wl.name = "migratory";
    for (std::uint32_t p = 0; p < n; ++p) {
        StreamBuilder sb(p, params.seed);
        Addr c = base;
        for (std::int64_t i = 0; i < iters; ++i) {
            // Temporal affinity: usually keep working on the same
            // object, occasionally migrate to a random one.
            if (sb.rng().chance(0.3))
                c = base + 32 * sb.rng().below(counters);
            // Acquire the object, then work on it locally before the
            // read-modify-write (local hits under every method).
            sb.read(c, 4);
            for (int k = 0; k < 16; ++k)
                sb.read(c + 8 * (k % 4), 2);
            sb.write(c, 6);
        }
        wl.streams.push_back(sb.take());
    }
    return wl;
}

ParallelWorkload
makeReadMostly(const KernelParams &params)
{
    const std::uint32_t n = params.processors;
    const std::uint32_t blocks = 256;          // 8 KiB: L1 resident
    const std::int64_t iters = scaledCount(params, 9000);
    const Addr base = sharedBase + 0x600000;

    ParallelWorkload wl;
    wl.name = "readmostly";
    for (std::uint32_t p = 0; p < n; ++p) {
        StreamBuilder sb(p, params.seed);
        for (std::int64_t i = 0; i < iters; ++i) {
            const Addr b = base + 32 * sb.rng().below(blocks);
            sb.read(b, 3);
            // Sparse rotating writers invalidate readers; updates are
            // rare enough that reads overwhelmingly hit.
            if (i % 900 == static_cast<std::int64_t>(p) * 55) {
                const Addr w = base + 32 * sb.rng().below(blocks);
                sb.write(w, 4);
            }
        }
        wl.streams.push_back(sb.take());
    }
    return wl;
}

ParallelWorkload
makeFalseShare(const KernelParams &params)
{
    const std::uint32_t n = params.processors;
    const std::uint32_t groups = (n + 3) / 4;  // 4 procs per block group
    const std::uint32_t blocks_per_group = 16;
    const std::int64_t iters = scaledCount(params, 1500);
    const Addr base = sharedBase + 0x800000;

    ParallelWorkload wl;
    wl.name = "falseshare";
    (void)groups;
    for (std::uint32_t p = 0; p < n; ++p) {
        StreamBuilder sb(p, params.seed);
        const std::uint32_t group = p / 4;
        const std::uint32_t word = p % 4;
        for (std::int64_t i = 0; i < iters; ++i) {
            const Addr block = base +
                32 * (static_cast<Addr>(group) * blocks_per_group +
                      i % blocks_per_group);
            // Read own word a few times (hits), then update it: the
            // update contends with the other three processors whose
            // words share the coherence unit.
            sb.read(block + 8 * word, 3);
            sb.read(block + 8 * word, 2);
            sb.read(block + 8 * word, 2);
            sb.read(block + 8 * word, 1);
            sb.write(block + 8 * word, 4);
        }
        wl.streams.push_back(sb.take());
    }
    return wl;
}

std::vector<ParallelWorkload>
makeAllKernels(const KernelParams &params)
{
    // Moved in one by one: a braced list would copy every stream.
    std::vector<ParallelWorkload> kernels;
    kernels.reserve(5);
    kernels.push_back(makeStencil(params));
    kernels.push_back(makeProdCons(params));
    kernels.push_back(makeMigratory(params));
    kernels.push_back(makeReadMostly(params));
    kernels.push_back(makeFalseShare(params));
    return kernels;
}

} // namespace imo::coherence
