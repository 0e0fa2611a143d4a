#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "suite.hh"

namespace imo::bench
{

std::uint32_t
SpanRecorder::trackOf(std::thread::id tid)
{
    const auto [it, fresh] =
        _tracks.try_emplace(tid, static_cast<std::uint32_t>(_tracks.size()));
    (void)fresh;
    return it->second;
}

std::size_t
SpanRecorder::open(std::string name, std::string layer, std::int64_t point)
{
    const std::int64_t now = steadyNs();
    const std::thread::id tid = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::size_t> &stack = _open[tid];
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.startNs = now;
    s.endNs = now;
    s.parent = stack.empty() ? -1 : static_cast<std::int64_t>(stack.back());
    s.point = point;
    s.track = trackOf(tid);
    _spans.push_back(std::move(s));
    stack.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
SpanRecorder::close(std::size_t id)
{
    const std::int64_t now = steadyNs();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[id].endNs = now;
    std::vector<std::size_t> &stack = _open[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

std::size_t
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
    return _spans.size() - 1;
}

void
SpanRecorder::append(const SpanRecorder &other)
{
    const std::vector<Span> more = other.spans();
    std::lock_guard<std::mutex> lock(_mutex);
    const auto base = static_cast<std::int64_t>(_spans.size());
    for (Span s : more) {
        if (s.parent >= 0)
            s.parent += base;
        _spans.push_back(std::move(s));
    }
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::map<std::string, double>
SpanRecorder::selfMsByLayer() const
{
    // Self time is a span's interval minus the part its children
    // cover; children may overlap (farm leases run side by side), so
    // their intervals are merged before subtracting.
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::int64_t covered = 0;
        std::int64_t reach = all[i].startNs;
        std::sort(kids[i].begin(), kids[i].end());
        for (auto [b, e] : kids[i]) {
            b = std::max(b, reach);
            e = std::min(e, all[i].endNs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = static_cast<double>(all[i].endNs - all[i].startNs -
                                      covered);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].layer] += self[i] * 1e-6;
    return out;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all)
        t0 = std::min(t0, s.startNs);
    os << "{\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":1,\"tid\":%u,\"args\":{\"point\":%lld,"
                      "\"parent\":%lld}}",
                      (s.startNs - t0) * 1e-3,
                      (s.endNs - s.startNs) * 1e-3, s.track,
                      static_cast<long long>(s.point),
                      static_cast<long long>(s.parent));
        os << (i ? "," : "") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.layer << buf;
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace imo::bench
