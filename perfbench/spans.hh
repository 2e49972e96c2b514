/**
 * @file
 * In-memory span recorder of the end-to-end benchmark.
 *
 * A span is one timed call into a library layer: name, start, end,
 * the span that caused it and the request (measurement, ingest
 * session or query) it belongs to, plus an optional work count (events
 * appended, events read). Spans stay in memory and are written out
 * once, when the benchmark ends; report.py turns them into per-layer
 * self times.
 *
 * A disabled recorder (the untraced run) never reads the clock, so the
 * end-to-end metrics are measured without tracing cost.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since @p origin. */
inline double
secondsSince(std::chrono::steady_clock::time_point origin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the parent span; -1 for a root. */
    int parent = -1;
    /** Request the span belongs to (shared by all its spans). */
    int request = -1;
    /** Units of work done inside the span (0 = not counted). */
    std::uint64_t count = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::chrono::steady_clock::time_point origin)
        : origin(origin)
    {
    }

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Recording on/off; off makes begin()/end() free. Set it only
     *  while no other thread records. */
    void
    setEnabled(bool on)
    {
        enabled = on;
    }

    /** Open a span. @return its id, or -1 when disabled. */
    int
    begin(const std::string &name, int parent, int request)
    {
        if (!enabled)
            return -1;
        const double now = secondsSince(origin);
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back({name, now, now, parent, request, 0});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Close span @p id (no-op for -1). */
    void
    end(int id, std::uint64_t count = 0)
    {
        if (id < 0)
            return;
        const double now = secondsSince(origin);
        std::lock_guard<std::mutex> lock(mutex);
        spans[static_cast<std::size_t>(id)].end = now;
        spans[static_cast<std::size_t>(id)].count = count;
    }

    /** Snapshot of every span recorded so far. */
    std::vector<Span>
    all() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return spans;
    }

  private:
    const std::chrono::steady_clock::time_point origin;
    bool enabled = false;
    mutable std::mutex mutex;
    std::vector<Span> spans;
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name,
               int parent, int request)
        : recorder(recorder), id(recorder.begin(name, parent, request))
    {
    }

    ~ScopedSpan()
    {
        recorder.end(id, workCount);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int
    spanId() const
    {
        return id;
    }

    /** Work count stored with the span when it closes. */
    void
    setCount(std::uint64_t n)
    {
        workCount = n;
    }

  private:
    SpanRecorder &recorder;
    const int id;
    std::uint64_t workCount = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
