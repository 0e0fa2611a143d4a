/**
 * @file
 * Last-K-events diagnostic ring buffer.
 *
 * The pipeline models record a cheap POD event per interesting action
 * (issue, memory reject, trap dispatch, graduation). When a watchdog
 * fires, the ring is formatted into the SimError context chain so a
 * Deadlock report carries the recent pipeline history instead of just
 * "it stopped". Recording is a few stores — no allocation, no
 * formatting — so it can sit on the per-instruction hot path.
 */

#ifndef IMO_COMMON_DIAGRING_HH
#define IMO_COMMON_DIAGRING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"

namespace imo
{

class Serializer;
class Deserializer;

/** One recorded event. @ref tag must point at a string literal. */
struct DiagEvent
{
    Cycle cycle = 0;
    const char *tag = "";
    std::uint64_t pc = 0;
    std::uint64_t arg = 0;
};

/** Fixed-capacity ring of the most recent DiagEvents. */
class DiagRing
{
  public:
    /** Events retained: a fixed power of two, so push() wraps with a
     *  mask. */
    static constexpr std::size_t capacity = 32;
    static_assert((capacity & (capacity - 1)) == 0);

    /** Record one event, evicting the oldest when full. */
    void
    push(Cycle cycle, const char *tag, std::uint64_t pc = 0,
         std::uint64_t arg = 0)
    {
        // The slot is the event count masked to the power-of-two
        // capacity: no cursor to advance or wrap on the per-instruction
        // hot path of both CPU models.
        DiagEvent &e = _events[_recorded & (capacity - 1)];
        e.cycle = cycle;
        e.tag = tag;
        e.pc = pc;
        e.arg = arg;
        ++_recorded;
    }

    /** Total events ever recorded (>= events retained). */
    std::uint64_t recorded() const { return _recorded; }

    /** @return the retained events formatted oldest-first. */
    std::vector<std::string> formatEvents() const;

    /**
     * Checkpoint hooks. Restored tags are interned copies owned by the
     * ring (live tags point at string literals and cannot round-trip
     * as pointers). An image of any other capacity is BadCheckpoint.
     */
    void save(Serializer &s) const;
    void restore(Deserializer &d);

  private:
    std::array<DiagEvent, capacity> _events{};
    std::uint64_t _recorded = 0;
    std::vector<std::string> _internedTags; //!< backing for restored tags
};

/**
 * Throw SimException(@p code, @p message) carrying the ring's recent
 * events as the context chain — the shared shape of every watchdog
 * report (pipeline deadlocks, coherence livelocks, injected faults).
 */
[[noreturn]] void throwWithRing(ErrCode code, const DiagRing &ring,
                                std::string message);

} // namespace imo

#endif // IMO_COMMON_DIAGRING_HH
