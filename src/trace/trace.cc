#include "trace/event.hh"

#include <algorithm>

#include "hybrid/event_code.hh"
#include "trace/dictionary.hh"

namespace supmon
{
namespace trace
{

std::vector<TraceEvent>
fromRawRecords(
    const std::vector<zm4::RawRecord> &records,
    const std::function<unsigned(const zm4::RawRecord &)> &stream_of)
{
    std::vector<TraceEvent> events;
    events.reserve(records.size());
    for (const auto &rec : records) {
        const auto data = hybrid::unpack48(rec.data48);
        TraceEvent ev;
        ev.timestamp = rec.timestamp;
        ev.token = data.token;
        ev.param = data.param;
        ev.stream = stream_of ? stream_of(rec) : defaultStreamOf(rec);
        ev.flags = rec.flags;
        events.push_back(ev);
    }
    return events;
}

bool
isTimeOrdered(const std::vector<TraceEvent> &events)
{
    return std::is_sorted(events.begin(), events.end(),
                          [](const TraceEvent &a, const TraceEvent &b) {
                              return a.timestamp < b.timestamp;
                          });
}

} // namespace trace
} // namespace supmon
