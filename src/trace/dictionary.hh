/**
 * @file
 * The event dictionary: maps event tokens to names, activity states
 * and streams to display names. This plays the role of SIMPLE's trace
 * description: it tells the evaluation tools how to interpret the
 * problem-oriented meaning of each recorded token.
 *
 * Two kinds of events exist:
 *  - Begin events enter a named activity *state* on their stream
 *    (implicitly ending the previous state) - these produce the bars
 *    of a Gantt chart;
 *  - Point events mark an instant without changing state.
 */

#ifndef TRACE_DICTIONARY_HH
#define TRACE_DICTIONARY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace supmon
{
namespace trace
{

enum class EventKind
{
    /** Enters the named state on the stream. */
    Begin,
    /** Instantaneous marker; does not change the state. */
    Point,
};

struct EventDef
{
    std::uint16_t token = 0;
    std::string name;
    EventKind kind = EventKind::Point;
    /** State entered (Begin events only). */
    std::string state;
};

class EventDictionary
{
  public:
    /** Define a Begin event entering @p state. */
    void
    defineBegin(std::uint16_t token, const std::string &name,
                const std::string &state)
    {
        addDef(EventDef{token, name, EventKind::Begin, state});
    }

    /** Define a Point (marker) event. */
    void
    definePoint(std::uint16_t token, const std::string &name)
    {
        addDef(EventDef{token, name, EventKind::Point, ""});
    }

    const EventDef *
    find(std::uint16_t token) const
    {
        auto it = byToken.find(token);
        return it == byToken.end() ? nullptr : &defs[it->second];
    }

    /** All definitions in definition order (drives display order). */
    const std::vector<EventDef> &
    definitions() const
    {
        return defs;
    }

    /** Distinct states in definition order. */
    std::vector<std::string> statesInOrder() const;

    /**
     * Derives a stream's name from its id; returns an empty string
     * for streams it has no name for. A plain function, so a copied
     * dictionary names streams the same way on every thread.
     */
    using StreamNamer = std::string (*)(unsigned stream);

    /** @{ stream naming */
    void
    nameStream(unsigned stream, const std::string &name)
    {
        streamNames[stream] = name;
    }

    void
    setStreamNamer(StreamNamer fn)
    {
        namer = fn;
    }

    /** The nameStream() entry, else the namer's name, else
     *  "STREAM n". */
    std::string streamName(unsigned stream) const;

    const std::map<unsigned, std::string> &
    namedStreams() const
    {
        return streamNames;
    }
    /** @} */

  private:
    void addDef(EventDef def);

    std::vector<EventDef> defs;
    std::map<std::uint16_t, std::size_t> byToken;
    std::map<unsigned, std::string> streamNames;
    StreamNamer namer = nullptr;
};

} // namespace trace
} // namespace supmon

#endif // TRACE_DICTIONARY_HH
