/**
 * @file
 * Tests of the CSV report emitters: RFC 4180 field quoting, the
 * empty-input and single-event edge cases, and stream/state names that
 * need escaping.
 */

#include <gtest/gtest.h>

#include "trace/report.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

TraceEvent
ev(sim::Tick ts, std::uint16_t token, unsigned stream = 0,
   std::uint32_t param = 0)
{
    TraceEvent e;
    e.timestamp = ts;
    e.token = token;
    e.stream = stream;
    e.param = param;
    return e;
}

} // namespace

TEST(CsvField, PlainFieldsPassThrough)
{
    EXPECT_EQ(trace::csvField("WORK"), "WORK");
    EXPECT_EQ(trace::csvField(""), "");
    EXPECT_EQ(trace::csvField("SERVANT 3"), "SERVANT 3");
}

TEST(CsvField, SpecialCharactersQuoted)
{
    EXPECT_EQ(trace::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(trace::csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(trace::csvField("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(trace::csvField("cr\rhere"), "\"cr\rhere\"");
}

TEST(ReportCsv, EmptyInputsEmitHeaderOnly)
{
    trace::EventDictionary dict;
    dict.defineBegin(1, "Work Begin", "WORK");
    EXPECT_EQ(trace::eventsCsv({}, dict),
              "timestamp_ns,stream,token,name,param,flags\n");
}

TEST(ReportCsv, SingleEventStream)
{
    trace::EventDictionary dict;
    dict.defineBegin(1, "Work Begin", "WORK");
    const std::vector<TraceEvent> events = {ev(100, 1)};
    EXPECT_EQ(trace::eventsCsv(events, dict),
              "timestamp_ns,stream,token,name,param,flags\n"
              "100,STREAM 0,0x0001,Work Begin,0,0\n");
}

TEST(ReportCsv, NamesNeedingQuotingAreEscaped)
{
    trace::EventDictionary dict;
    dict.defineBegin(1, "Start \"critical\", phase A", "RUN,STOP");
    dict.nameStream(0, "NODE 0, PIPE");
    const std::vector<TraceEvent> events = {ev(100, 1, 0, 7)};
    EXPECT_EQ(
        trace::eventsCsv(events, dict),
        "timestamp_ns,stream,token,name,param,flags\n"
        "100,\"NODE 0, PIPE\",0x0001,"
        "\"Start \"\"critical\"\", phase A\",7,0\n");
}

TEST(ReportCsv, UnknownTokensKeepTheRowParseable)
{
    trace::EventDictionary dict;
    const std::vector<TraceEvent> events = {ev(42, 999, 3, 1)};
    EXPECT_EQ(trace::eventsCsv(events, dict),
              "timestamp_ns,stream,token,name,param,flags\n"
              "42,STREAM 3,0x03e7,?,1,0\n");
}
