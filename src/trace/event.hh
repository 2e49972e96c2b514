/**
 * @file
 * Evaluation-side event representation.
 *
 * After the CEC has merged the local traces, evaluation works on
 * TraceEvents: the 48-bit records are split back into token and
 * parameter, and each (recorder, channel) pair becomes an evaluation
 * *stream* (one stream per monitored process/processor, like SIMPLE's
 * trace description language would configure).
 */

#ifndef TRACE_EVENT_HH
#define TRACE_EVENT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"
#include "zm4/event_recorder.hh"

namespace supmon
{
namespace trace
{

struct TraceEvent
{
    sim::Tick timestamp = 0;
    std::uint16_t token = 0;
    std::uint32_t param = 0;
    /** Evaluation stream (monitored object) this event belongs to. */
    unsigned stream = 0;
    std::uint8_t flags = 0;

    /** Field-wise equality (determinism and golden-trace tests). */
    friend bool operator==(const TraceEvent &,
                           const TraceEvent &) = default;
};

/** Default stream numbering: recorder id * channels + channel. */
inline unsigned
defaultStreamOf(const zm4::RawRecord &rec, unsigned channels = 4)
{
    return static_cast<unsigned>(rec.recorderId) * channels +
           rec.channel;
}

/**
 * Convert merged raw records into evaluation events.
 * @param stream_of optional custom (recorder,channel) -> stream map.
 */
std::vector<TraceEvent> fromRawRecords(
    const std::vector<zm4::RawRecord> &records,
    const std::function<unsigned(const zm4::RawRecord &)> &stream_of =
        {});

/** @return true if events are ordered by (timestamp, stream). */
bool isTimeOrdered(const std::vector<TraceEvent> &events);

} // namespace trace
} // namespace supmon

#endif // TRACE_EVENT_HH
