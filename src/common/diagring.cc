#include "common/diagring.hh"

#include "common/checkpoint.hh"
#include "common/error.hh"

namespace imo
{

std::vector<std::string>
DiagRing::formatEvents() const
{
    const std::size_t held = _recorded < capacity
        ? static_cast<std::size_t>(_recorded) : capacity;

    std::vector<std::string> out;
    out.reserve(held);
    // Once the ring has wrapped, the oldest retained event sits in the
    // next slot to overwrite.
    std::size_t idx = _recorded < capacity ? 0 : _recorded % capacity;
    for (std::size_t i = 0; i < held; ++i) {
        const DiagEvent &e = _events[idx];
        out.push_back(simFormat(
            "cycle %10llu  %-12s pc=%llu arg=%llu",
            static_cast<unsigned long long>(e.cycle), e.tag,
            static_cast<unsigned long long>(e.pc),
            static_cast<unsigned long long>(e.arg)));
        idx = (idx + 1) % capacity;
    }
    return out;
}

void
DiagRing::save(Serializer &s) const
{
    s.u64(capacity);
    s.u64(_recorded % capacity);  // the next slot to overwrite
    s.u64(_recorded);
    for (const DiagEvent &e : _events) {
        s.u64(e.cycle);
        s.str(e.tag);
        s.u64(e.pc);
        s.u64(e.arg);
    }
}

void
DiagRing::restore(Deserializer &d)
{
    const std::uint64_t cap = d.u64();
    sim_throw_if(cap != capacity, ErrCode::BadCheckpoint,
                 "diagnostic ring capacity %llu, expected %zu",
                 static_cast<unsigned long long>(cap), capacity);
    const std::uint64_t next = d.u64();
    _recorded = d.u64();
    sim_throw_if(next != _recorded % capacity, ErrCode::BadCheckpoint,
                 "diagnostic ring cursor %llu does not follow its %llu "
                 "recorded events", static_cast<unsigned long long>(next),
                 static_cast<unsigned long long>(_recorded));
    // Tags normally point at string literals; restored tags point into
    // an interned pool owned by the ring instead.
    _internedTags.clear();
    _internedTags.reserve(capacity);
    for (DiagEvent &e : _events) {
        e.cycle = d.u64();
        _internedTags.push_back(d.str());
        e.tag = _internedTags.back().c_str();
        e.pc = d.u64();
        e.arg = d.u64();
    }
}

void
throwWithRing(ErrCode code, const DiagRing &ring, std::string message)
{
    SimException ex(code, std::move(message));
    std::vector<std::string> events = ring.formatEvents();
    ex.withContext(simFormat(
        "last %zu events (of %llu recorded), oldest first:",
        events.size(),
        static_cast<unsigned long long>(ring.recorded())));
    for (std::string &line : events)
        ex.withContext(std::move(line));
    throw ex;
}

} // namespace imo
