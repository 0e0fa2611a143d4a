/**
 * @file
 * Shared timing machinery for the pipeline models: the fetch engine,
 * functional-unit reservation tables, in-order issue ports, and the
 * graduation-slot ledger that produces the paper's Figure 2 breakdown.
 */

#ifndef IMO_PIPELINE_TIMING_UTIL_HH
#define IMO_PIPELINE_TIMING_UTIL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace imo::pipeline
{

/**
 * Models instruction delivery: up to `width` instructions per cycle,
 * with taken-transfer bubbles and redirect gates (mispredictions,
 * informing-trap dispatches, exception drains).
 */
class FetchEngine
{
  public:
    FetchEngine(std::uint32_t width, Cycle taken_bubble)
        : _width(width), _bubble(taken_bubble)
    {
        panic_if(width == 0, "fetch width must be nonzero");
    }

    /** Allocate the next fetch slot. @return its cycle. */
    Cycle
    fetchNext()
    {
        if (_used == _width) {
            ++_cycle;
            _used = 0;
        }
        ++_used;
        return _cycle;
    }

    /** No instruction may be fetched before @p cycle. */
    void
    gate(Cycle cycle)
    {
        if (cycle > _cycle) {
            _cycle = cycle;
            _used = 0;
        }
    }

    /** A taken control transfer was fetched at @p fetch_cycle: the rest
     *  of its fetch group is wasted and a bubble follows. */
    void
    redirectTaken(Cycle fetch_cycle)
    {
        gate(fetch_cycle + 1 + _bubble);
    }

    Cycle currentCycle() const { return _cycle; }

    void
    save(Serializer &s) const
    {
        s.u64(_cycle);
        s.u32(_used);
    }

    void
    restore(Deserializer &d)
    {
        _cycle = d.u64();
        _used = d.u32();
    }

  private:
    std::uint32_t _width;
    Cycle _bubble;
    Cycle _cycle = 0;
    std::uint32_t _used = 0;
};

/**
 * Per-cycle capacity table for a fully pipelined functional-unit class
 * in an out-of-order machine: reservations may probe arbitrary cycles,
 * so occupancy must answer "first cycle >= earliest with a free unit".
 *
 * Occupancy lives in a fixed sliding window of per-cycle counts —
 * pruneBelow() advances the window behind the commit frontier, and
 * reservations land overwhelmingly inside it (the reorder buffer bounds
 * how far completion times run ahead of the frontier), so the common
 * reserve() is an array probe instead of an ordered-map walk. Cycles
 * outside the window (far-future fill completions, or probes behind a
 * freshly advanced window) spill to an ordered map. Serialization
 * writes the merged (cycle, count) pairs in ascending cycle order —
 * exactly the bytes the previous std::map implementation produced.
 */
class SlotTable
{
  public:
    explicit SlotTable(std::uint32_t units_per_cycle)
        : _units(units_per_cycle)
    {
        panic_if(units_per_cycle == 0 || units_per_cycle > 255,
                 "slot table with %u units", units_per_cycle);
    }

    /** Reserve the first cycle >= @p earliest with a free unit. */
    Cycle
    reserve(Cycle earliest)
    {
        Cycle c = earliest;
        if (c >= _base && c < _base + kWindow) [[likely]] {
            // In-window fast path: scan the ring until a free cycle.
            while (c < _base + kWindow) {
                std::uint8_t &used = _ring[c & (kWindow - 1)];
                if (used < _units) {
                    ++used;
                    return c;
                }
                ++c;
            }
        }
        while (countAt(c) >= _units)
            ++c;
        bumpAt(c);
        return c;
    }

    /** Drop bookkeeping for cycles below @p frontier. */
    void
    pruneBelow(Cycle frontier)
    {
        _spill.erase(_spill.begin(), _spill.lower_bound(frontier));
        if (frontier <= _base)
            return;
        // Slide the window: clear the ring slots leaving it, then pull
        // any spilled counts that now fall inside it back into the
        // ring (a count may only live in one of the two structures).
        if (frontier - _base >= kWindow) {
            _ring.fill(0);
        } else {
            // The leaving cycles are at most two contiguous spans of
            // the ring: up to its end, then from its start.
            const std::size_t from = _base & (kWindow - 1);
            const std::size_t n = frontier - _base;
            const std::size_t head = std::min<std::size_t>(n, kWindow - from);
            std::fill_n(_ring.begin() + from, head, 0);
            std::fill_n(_ring.begin(), n - head, 0);
        }
        _base = frontier;
        auto it = _spill.begin();
        while (it != _spill.end() && it->first < _base + kWindow) {
            _ring[it->first & (kWindow - 1)] =
                static_cast<std::uint8_t>(it->second);
            it = _spill.erase(it);
        }
    }

    void
    save(Serializer &s) const
    {
        // Ascending (cycle, count) pairs, exactly as the ordered-map
        // representation serialized: spilled cycles below the window,
        // then the window in cycle order, then spilled cycles above.
        std::uint64_t entries = 0;
        for (const auto &[cycle, count] : _spill) {
            (void)cycle;
            if (count)
                ++entries;
        }
        for (const std::uint8_t count : _ring) {
            if (count)
                ++entries;
        }
        s.u64(entries);
        auto it = _spill.begin();
        for (; it != _spill.end() && it->first < _base; ++it) {
            s.u64(it->first);
            s.u32(it->second);
        }
        for (Cycle c = _base; c < _base + kWindow; ++c) {
            const std::uint32_t count = _ring[c & (kWindow - 1)];
            if (count) {
                s.u64(c);
                s.u32(count);
            }
        }
        for (; it != _spill.end(); ++it) {
            s.u64(it->first);
            s.u32(it->second);
        }
    }

    void
    restore(Deserializer &d)
    {
        _spill.clear();
        _ring.fill(0);
        const std::uint64_t count = d.u64();
        bool first = true;
        for (std::uint64_t i = 0; i < count; ++i) {
            const Cycle cycle = d.u64();
            const std::uint32_t used = d.u32();
            sim_throw_if(used == 0 || used > _units, ErrCode::BadCheckpoint,
                         "slot table holds %u reservations in one cycle "
                         "of %u units", used, _units);
            if (first) {
                // Anchor the window at the oldest live cycle (pairs
                // arrive in ascending order).
                _base = cycle;
                first = false;
            }
            if (cycle >= _base && cycle < _base + kWindow)
                _ring[cycle & (kWindow - 1)] =
                    static_cast<std::uint8_t>(used);
            else
                _spill[cycle] = used;
        }
    }

  private:
    // Power of two, comfortably larger than how far any reservation
    // runs ahead of the commit frontier between prunes (the ROB depth
    // plus the longest latency chain is orders of magnitude smaller).
    static constexpr Cycle kWindow = 8192;

    std::uint32_t
    countAt(Cycle c) const
    {
        if (c >= _base && c < _base + kWindow)
            return _ring[c & (kWindow - 1)];
        const auto it = _spill.find(c);
        return it == _spill.end() ? 0 : it->second;
    }

    void
    bumpAt(Cycle c)
    {
        if (c >= _base && c < _base + kWindow)
            ++_ring[c & (kWindow - 1)];
        else
            ++_spill[c];
    }

    std::uint32_t _units;
    Cycle _base = 0;
    // Counts for [_base, _base + W); a count never exceeds _units, so a
    // byte holds it and the four OOO tables stay small in the host cache.
    std::array<std::uint8_t, kWindow> _ring{};
    std::map<Cycle, std::uint32_t> _spill;  //!< counts outside the window
};

/** Functional-unit groups at issue time. */
enum class FuGroup : std::uint8_t
{
    Int,
    Fp,
    Branch,
    Mem,
    None,   //!< only consumes an issue slot (NOP/HALT)
    NumGroups
};

/**
 * In-order issue bandwidth: a monotonic port enforcing the total issue
 * width and per-group unit counts. Monotonicity holds because an
 * in-order machine never issues a younger instruction before an older
 * one.
 */
class InOrderIssuePort
{
  public:
    InOrderIssuePort(std::uint32_t width,
                     std::array<std::uint32_t,
                                static_cast<std::size_t>(
                                    FuGroup::NumGroups)> group_units)
        : _width(width), _groupUnits(group_units)
    {
    }

    /** Issue an op of @p group no earlier than @p earliest. */
    Cycle
    reserve(FuGroup group, Cycle earliest)
    {
        advanceTo(earliest);
        const auto g = static_cast<std::size_t>(group);
        while (_usedTotal >= _width ||
               (group != FuGroup::None && _usedGroup[g] >= _groupUnits[g])) {
            advanceTo(_cycle + 1);
        }
        ++_usedTotal;
        if (group != FuGroup::None)
            ++_usedGroup[g];
        return _cycle;
    }

    void
    save(Serializer &s) const
    {
        s.u64(_cycle);
        s.u32(_usedTotal);
        for (const std::uint32_t g : _usedGroup)
            s.u32(g);
    }

    void
    restore(Deserializer &d)
    {
        _cycle = d.u64();
        _usedTotal = d.u32();
        for (std::uint32_t &g : _usedGroup)
            g = d.u32();
    }

  private:
    void
    advanceTo(Cycle c)
    {
        if (c > _cycle) {
            _cycle = c;
            _usedTotal = 0;
            _usedGroup.fill(0);
        }
    }

    std::uint32_t _width;
    std::array<std::uint32_t,
               static_cast<std::size_t>(FuGroup::NumGroups)> _groupUnits;
    Cycle _cycle = 0;
    std::uint32_t _usedTotal = 0;
    std::array<std::uint32_t,
               static_cast<std::size_t>(FuGroup::NumGroups)> _usedGroup{};
};

/**
 * Graduation accounting in the style of the paper's Figures 2-3: every
 * cycle provides `width` graduation slots; each is either used by a
 * graduating instruction, lost to the head instruction waiting on a
 * data-cache miss ("cache stall"), or lost for any other reason.
 */
class GraduationLedger
{
  public:
    explicit GraduationLedger(std::uint32_t width) : _width(width)
    {
        panic_if(width == 0, "graduation width must be nonzero");
    }

    /**
     * Graduate the next instruction (program order), which is ready to
     * leave the machine at @p ready. Lost slots in the gap are
     * attributed to @p cache_reason.
     * @return the graduation cycle.
     */
    Cycle
    graduate(Cycle ready, bool cache_reason)
    {
        if (ready > _cycle) {
            const std::uint64_t lost =
                (_width - _used) + _width * (ready - _cycle - 1);
            if (cache_reason)
                _cacheStallSlots += lost;
            _cycle = ready;
            _used = 1;
        } else if (_used == _width) {
            ++_cycle;
            _used = 1;
        } else {
            ++_used;
        }
        ++_graduated;
        return _cycle;
    }

    /** Total cycles elapsed (the last graduation cycle + 1). */
    Cycle
    totalCycles() const
    {
        return _graduated ? _cycle + 1 : 0;
    }

    /** Cycle of the most recent graduation. */
    Cycle lastCycle() const { return _cycle; }

    std::uint64_t graduated() const { return _graduated; }
    std::uint64_t cacheStallSlots() const { return _cacheStallSlots; }

    /** Lost slots not attributed to cache stalls. */
    std::uint64_t
    otherStallSlots() const
    {
        const std::uint64_t total = totalCycles() * _width;
        return total - _graduated - _cacheStallSlots;
    }

    void
    save(Serializer &s) const
    {
        s.u64(_cycle);
        s.u32(_used);
        s.u64(_graduated);
        s.u64(_cacheStallSlots);
    }

    void
    restore(Deserializer &d)
    {
        _cycle = d.u64();
        _used = d.u32();
        _graduated = d.u64();
        _cacheStallSlots = d.u64();
    }

  private:
    std::uint32_t _width;
    Cycle _cycle = 0;
    std::uint32_t _used = 0;
    std::uint64_t _graduated = 0;
    std::uint64_t _cacheStallSlots = 0;
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_TIMING_UTIL_HH
