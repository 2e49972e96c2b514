/**
 * @file
 * Tests of the event dictionary and the raw-record conversion.
 */

#include <gtest/gtest.h>

#include "trace/dictionary.hh"
#include "trace/event.hh"

#include "hybrid/event_code.hh"

using namespace supmon;
using trace::EventDictionary;
using trace::EventKind;
using trace::TraceEvent;

TEST(Dictionary, DefineAndFind)
{
    EventDictionary dict;
    dict.defineBegin(0x0101, "Work Begin", "WORK");
    dict.definePoint(0x0102, "Marker");
    const auto *work = dict.find(0x0101);
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->name, "Work Begin");
    EXPECT_EQ(work->kind, EventKind::Begin);
    EXPECT_EQ(work->state, "WORK");
    const auto *marker = dict.find(0x0102);
    ASSERT_NE(marker, nullptr);
    EXPECT_EQ(marker->kind, EventKind::Point);
    EXPECT_EQ(dict.find(0x0999), nullptr);
}

TEST(Dictionary, StatesInDefinitionOrder)
{
    EventDictionary dict;
    dict.defineBegin(1, "c", "C");
    dict.defineBegin(2, "a", "A");
    dict.definePoint(3, "p");
    dict.defineBegin(4, "b", "B");
    dict.defineBegin(5, "a2", "A"); // duplicate state, kept once
    const auto states = dict.statesInOrder();
    EXPECT_EQ(states, (std::vector<std::string>{"C", "A", "B"}));
}

TEST(Dictionary, StreamNames)
{
    EventDictionary dict;
    dict.nameStream(3, "MASTER");
    EXPECT_EQ(dict.streamName(3), "MASTER");
    EXPECT_EQ(dict.streamName(9), "STREAM 9");
    EXPECT_EQ(dict.namedStreams().size(), 1u);
}

TEST(Dictionary, StreamNamerFillsUnnamedStreams)
{
    EventDictionary dict;
    dict.setStreamNamer([](unsigned stream) -> std::string {
        return stream % 2 ? "ODD " + std::to_string(stream) : "";
    });
    dict.nameStream(3, "MASTER");
    // An explicit name wins, then the namer, then "STREAM n".
    EXPECT_EQ(dict.streamName(3), "MASTER");
    EXPECT_EQ(dict.streamName(5), "ODD 5");
    EXPECT_EQ(dict.streamName(4), "STREAM 4");

    // A copy names streams the same way.
    const EventDictionary copy = dict;
    EXPECT_EQ(copy.streamName(7), "ODD 7");
}

TEST(DictionaryDeath, DuplicateTokenIsFatal)
{
    EventDictionary dict;
    dict.defineBegin(7, "x", "X");
    EXPECT_EXIT(dict.definePoint(7, "y"), ::testing::ExitedWithCode(1),
                "twice");
}

// ----------------------------------------------------------------------
// Raw-record conversion.
// ----------------------------------------------------------------------

namespace
{

zm4::RawRecord
raw(sim::Tick ts, std::uint16_t recorder, std::uint8_t channel,
    std::uint16_t token, std::uint32_t param)
{
    zm4::RawRecord r;
    r.timestamp = ts;
    r.recorderId = recorder;
    r.channel = channel;
    r.data48 = hybrid::pack48(token, param);
    return r;
}

} // namespace

TEST(TraceEvents, FromRawSplitsTokenAndParam)
{
    std::vector<zm4::RawRecord> records{
        raw(100, 0, 0, 0x0101, 7),
        raw(200, 0, 1, 0x0202, 9),
    };
    const auto events = trace::fromRawRecords(records);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].token, 0x0101);
    EXPECT_EQ(events[0].param, 7u);
    EXPECT_EQ(events[0].stream, 0u);
    EXPECT_EQ(events[1].stream, 1u); // channel 1
    EXPECT_EQ(events[1].timestamp, 200u);
}

TEST(TraceEvents, DefaultStreamUsesRecorderTimesChannels)
{
    zm4::RawRecord r = raw(0, 2, 3, 1, 0);
    EXPECT_EQ(trace::defaultStreamOf(r), 11u);
}

TEST(TraceEvents, CustomStreamMapper)
{
    std::vector<zm4::RawRecord> records{raw(0, 5, 2, 1, 0)};
    const auto events = trace::fromRawRecords(
        records, [](const zm4::RawRecord &) { return 77u; });
    EXPECT_EQ(events[0].stream, 77u);
}

TEST(TraceEvents, TimeOrderedCheck)
{
    std::vector<TraceEvent> events(3);
    events[0].timestamp = 10;
    events[1].timestamp = 20;
    events[2].timestamp = 20;
    EXPECT_TRUE(trace::isTimeOrdered(events));
    events[2].timestamp = 5;
    EXPECT_FALSE(trace::isTimeOrdered(events));
}
