/**
 * @file
 * In-memory span recording for imo-bench's traced run.
 *
 * Spans are taken in the benchmark's own code, around each public call
 * into a simulator layer; nothing inside src/ is instrumented. Every
 * span records its name, layer, start, end, parent span and grid point,
 * stays in memory while the run lasts, and is written as Chrome
 * trace-event JSON at exit. A layer's self time is its spans' time
 * minus the time of their child spans.
 */

#ifndef IMO_BENCH_SPANS_HH
#define IMO_BENCH_SPANS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace imo::bench
{

struct Span
{
    std::string name;
    std::string layer;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1; //!< index of the enclosing span, -1: root
    std::int64_t point = -1;  //!< grid point index, -1: none
    std::uint32_t track = 0;  //!< one per recording thread
};

/** Thread-safe span store; nesting is tracked per thread. */
class SpanRecorder
{
  public:
    SpanRecorder() = default;
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span on the calling thread, nested in its open span. */
    std::size_t open(std::string name, std::string layer,
                     std::int64_t point);
    void close(std::size_t id);

    /** Add a finished span measured elsewhere (e.g. a farm lease). */
    std::size_t add(Span span);

    /** Move every span of @p other (closed) into this recorder. */
    void append(const SpanRecorder &other);

    std::vector<Span> spans() const;

    /** Self time per layer, in milliseconds. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Chrome trace-event JSON ({"traceEvents":[...]}). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::uint32_t trackOf(std::thread::id tid);

    mutable std::mutex _mutex; // guards every member below
    std::vector<Span> _spans;
    std::map<std::thread::id, std::uint32_t> _tracks;
    std::map<std::thread::id, std::vector<std::size_t>> _open;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string layer,
               std::int64_t point = -1)
        : _rec(rec), _id(rec.open(std::move(name), std::move(layer), point))
    {
    }
    ~ScopedSpan() { _rec.close(_id); }
    std::size_t id() const { return _id; }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &_rec;
    std::size_t _id;
};

} // namespace imo::bench

#endif // IMO_BENCH_SPANS_HH
