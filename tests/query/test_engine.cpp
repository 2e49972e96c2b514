/**
 * @file
 * Tests of the streaming query engine on hand-built traces: filter
 * predicates, fixed and sliding windows, every fold sink, and the
 * equivalence of the in-memory and file-streaming execution paths.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "query/engine.hh"
#include "sim/random.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokIdle = 2;
constexpr std::uint16_t tokSend = 3;
constexpr std::uint16_t tokRecv = 4;

trace::EventDictionary
testDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokIdle, "Idle Begin", "IDLE");
    dict.definePoint(tokSend, "Job Send");
    dict.definePoint(tokRecv, "Job Receive");
    dict.nameStream(0, "SERVANT 0");
    dict.nameStream(1, "SERVANT 1");
    dict.nameStream(2, "MASTER");
    return dict;
}

TraceEvent
ev(sim::Tick ts, std::uint16_t token, unsigned stream,
   std::uint32_t param = 0)
{
    TraceEvent e;
    e.timestamp = ts;
    e.token = token;
    e.stream = stream;
    e.param = param;
    return e;
}

query::Query
mustParse(const std::string &text)
{
    const auto res = query::parseQuery(text);
    EXPECT_TRUE(res.ok) << text << ": " << res.error;
    return res.query;
}

/** Sum of the `count` column over all rows. */
std::uint64_t
totalCount(const query::Table &table)
{
    std::uint64_t total = 0;
    const auto col = table.columns.size() - 1;
    for (const auto &row : table.rows)
        total += row[col].integer;
    return total;
}

} // namespace

TEST(QueryEngine, TokenFilterMatchesNameAndIdentifier)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokWork, 0), ev(200, tokSend, 2),
        ev(300, tokIdle, 0), ev(400, tokWork, 1)};

    // Identifier form ("evWorkBegin") and display form ("Work*")
    // resolve to the same token.
    auto table = query::runQuery(
        events, dict, mustParse("filter token=evWork* | count"));
    EXPECT_EQ(totalCount(table), 2u);
    table = query::runQuery(
        events, dict, mustParse("filter token=Work* | count"));
    EXPECT_EQ(totalCount(table), 2u);
    // Numeric token literal.
    table = query::runQuery(
        events, dict, mustParse("filter token=0x0003 | count"));
    EXPECT_EQ(totalCount(table), 1u);
    // No match at all.
    table = query::runQuery(
        events, dict, mustParse("filter token=evNothing | count"));
    EXPECT_EQ(totalCount(table), 0u);
}

TEST(QueryEngine, StreamFilterByNameIdAndRange)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokSend, 0), ev(200, tokSend, 1), ev(300, tokSend, 2),
        ev(400, tokSend, 3)};

    auto table = query::runQuery(
        events, dict, mustParse("filter stream=servant* | count"));
    EXPECT_EQ(totalCount(table), 2u);
    table = query::runQuery(events, dict,
                            mustParse("filter stream=2 | count"));
    EXPECT_EQ(totalCount(table), 1u);
    table = query::runQuery(events, dict,
                            mustParse("filter stream=1-3 | count"));
    EXPECT_EQ(totalCount(table), 3u);
    // Unnamed stream 3 falls back to "STREAM 3".
    table = query::runQuery(
        events, dict, mustParse("filter stream=stream* | count"));
    EXPECT_EQ(totalCount(table), 1u);
}

TEST(QueryEngine, TimeAndParamFilters)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokSend, 0, 5), ev(200, tokSend, 0, 6),
        ev(300, tokSend, 0, 7), ev(400, tokSend, 0, 8)};

    // from is inclusive, to exclusive.
    auto table = query::runQuery(
        events, dict, mustParse("filter from=200 to=400 | count"));
    EXPECT_EQ(totalCount(table), 2u);
    table = query::runQuery(events, dict,
                            mustParse("filter param=6-7 | count"));
    EXPECT_EQ(totalCount(table), 2u);
    table = query::runQuery(events, dict,
                            mustParse("filter param=8 | count"));
    EXPECT_EQ(totalCount(table), 1u);
}

TEST(QueryEngine, RepeatedKeysOrAndStagesAnd)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokWork, 0), ev(200, tokIdle, 0), ev(300, tokSend, 0),
        ev(400, tokWork, 1)};

    // Two token= in one stage OR together.
    auto table = query::runQuery(
        events, dict,
        mustParse("filter token=evWorkBegin token=evIdleBegin | "
                  "count"));
    EXPECT_EQ(totalCount(table), 3u);
    // Two filter stages AND together.
    table = query::runQuery(
        events, dict,
        mustParse("filter token=evWorkBegin token=evIdleBegin | "
                  "filter stream=1 | count"));
    EXPECT_EQ(totalCount(table), 1u);
}

TEST(QueryEngine, FixedWindowCounts)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(10, tokSend, 0), ev(50, tokSend, 0), ev(120, tokSend, 0),
        ev(250, tokSend, 0)};

    // Windows anchor at the first event (t=10): [10,110) has two
    // events, [110,210) one, [210,310) one.
    const auto table = query::runQuery(
        events, dict, mustParse("window 100 | count"));
    ASSERT_EQ(table.columns.size(), 4u);
    EXPECT_EQ(table.columns[0], "window_ms");
    ASSERT_EQ(table.rows.size(), 3u);
    EXPECT_EQ(table.rows[0][3].integer, 2u);
    EXPECT_EQ(table.rows[1][3].integer, 1u);
    EXPECT_EQ(table.rows[2][3].integer, 1u);
    EXPECT_EQ(table.rows[0][0].real, sim::toMilliseconds(10));
    EXPECT_EQ(table.rows[1][0].real, sim::toMilliseconds(110));
}

TEST(QueryEngine, SlidingWindowCountsEventInEveryCoveringWindow)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {ev(10, tokSend, 0),
                                            ev(120, tokSend, 0)};

    // size=100 slide=50 anchored at 10: the event at t=120 lies in
    // windows [60,160) and [110,210) but not in [10,110).
    const auto table = query::runQuery(
        events, dict, mustParse("window 100 slide 50 | count"));
    std::uint64_t atSixty = 0;
    std::uint64_t atTen = 0;
    for (const auto &row : table.rows) {
        if (row[0].real == sim::toMilliseconds(60))
            atSixty = row[3].integer;
        if (row[0].real == sim::toMilliseconds(10))
            atTen = row[3].integer;
    }
    EXPECT_EQ(atSixty, 1u);
    EXPECT_EQ(atTen, 1u);             // only the t=10 event
    EXPECT_EQ(totalCount(table), 3u); // t=10 in one window (none
                                      // start before the anchor),
                                      // t=120 in two
}

TEST(QueryEngine, StatesFoldComputesDurationStatistics)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokWork, 0), ev(600, tokIdle, 0), ev(800, tokWork, 0)};

    const auto table = query::runQuery(events, dict,
                                       mustParse("states"), 1000);
    // Intervals: WORK [100,600), IDLE [600,800), WORK [800,1000).
    ASSERT_EQ(table.rows.size(), 2u);
    const auto &work = table.rows[0];
    EXPECT_EQ(work[0].text, "SERVANT 0");
    EXPECT_EQ(work[1].text, "WORK");
    EXPECT_EQ(work[2].integer, 2u);
    EXPECT_EQ(work[3].real, 700.0 * 1e-6);
    EXPECT_EQ(work[4].real, 350.0 * 1e-6);
    EXPECT_EQ(work[5].real, 200.0 * 1e-6);
    EXPECT_EQ(work[6].real, 500.0 * 1e-6);
    EXPECT_EQ(work[7].real, 700.0 / 900.0);
    const auto &idle = table.rows[1];
    EXPECT_EQ(idle[1].text, "IDLE");
    EXPECT_EQ(idle[2].integer, 1u);
    EXPECT_EQ(idle[7].real, 200.0 / 900.0);
}

TEST(QueryEngine, UtilizationFoldWholeRangeAndWindowed)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokWork, 0), ev(600, tokIdle, 0), ev(800, tokWork, 0)};

    auto table = query::runQuery(events, dict,
                                 mustParse("utilization"), 1000);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][2].real, 700.0 / 900.0);

    table = query::runQuery(events, dict,
                            mustParse("utilization state=IDLE"), 1000);
    EXPECT_EQ(table.rows[0][2].real, 200.0 / 900.0);

    // Three 300-tick windows anchored at from=100: WORK covers
    // [100,400) fully, [400,700) for 200 ticks, [700,1000) for 200.
    table = query::runQuery(
        events, dict,
        mustParse("filter from=100 | window 300 | utilization"), 1000);
    ASSERT_EQ(table.rows.size(), 3u);
    EXPECT_EQ(table.rows[0][3].real, 1.0);
    EXPECT_EQ(table.rows[1][3].real, 200.0 / 300.0);
    EXPECT_EQ(table.rows[2][3].real, 200.0 / 300.0);
}

TEST(QueryEngine, LatencyFoldSummaryAndHistogram)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokSend, 0), ev(250, tokSend, 0), ev(400, tokSend, 0)};

    auto table =
        query::runQuery(events, dict, mustParse("latency"));
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][1].integer, 2u);
    EXPECT_EQ(table.rows[0][2].real, 150.0 * 1e-6);

    // Two bins over [0,200): both 150-tick gaps land in bin 1.
    table = query::runQuery(
        events, dict, mustParse("latency bins=2 max=200"));
    ASSERT_EQ(table.rows.size(), 3u); // bin 0, bin 1, overflow
    EXPECT_EQ(table.rows[0][1].text, "0");
    EXPECT_EQ(table.rows[0][3].integer, 0u);
    EXPECT_EQ(table.rows[1][1].text, "1");
    EXPECT_EQ(table.rows[1][3].integer, 2u);
    EXPECT_EQ(table.rows[2][1].text, "overflow");
    EXPECT_EQ(table.rows[2][3].integer, 0u);
}

TEST(QueryEngine, RttFoldPairsBeginAndEndOnParam)
{
    const auto dict = testDictionary();
    const std::vector<TraceEvent> events = {
        ev(100, tokSend, 2, 1), ev(150, tokSend, 2, 2),
        ev(300, tokRecv, 2, 1), ev(400, tokRecv, 2, 3)};

    const auto table = query::runQuery(
        events, dict,
        mustParse("rtt begin=Job?Send end=evJobReceive"));
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][0].integer, 1u); // one matched pair
    EXPECT_EQ(table.rows[0][1].integer, 1u); // job 2 never answered
    EXPECT_EQ(table.rows[0][2].integer, 1u); // job 3 never sent
    EXPECT_EQ(table.rows[0][3].real, 200.0 * 1e-6);
}

TEST(QueryEngine, FileStreamingMatchesInMemoryExecution)
{
    const char *path = test::tempPath("supmon_query_engine_test.smtr");
    const auto dict = testDictionary();

    sim::Random rng(77);
    std::vector<TraceEvent> events;
    sim::Tick ts = 0;
    for (int i = 0; i < 20000; ++i) {
        ts += rng.uniformInt(1, 500);
        const std::uint16_t token = static_cast<std::uint16_t>(
            rng.uniformInt(tokWork, tokRecv));
        events.push_back(ev(ts, token,
                            static_cast<unsigned>(
                                rng.uniformInt(0, 2)),
                            static_cast<std::uint32_t>(
                                rng.uniformInt(0, 9))));
    }
    ASSERT_TRUE(trace::saveTrace(path, events));

    const char *queries[] = {
        "states",
        "filter stream=servant* | window 1us | count",
        "filter token=evWork* | latency bins=4 max=1us",
        "utilization state=IDLE",
    };
    for (const char *text : queries) {
        const auto q = mustParse(text);
        const auto batch = query::runQuery(events, dict, q);
        query::Table streamed;
        std::string error;
        ASSERT_TRUE(query::runQueryFile(path, dict, q, streamed,
                                        error))
            << text << ": " << error;
        ASSERT_EQ(streamed.columns, batch.columns) << text;
        ASSERT_EQ(streamed.rows.size(), batch.rows.size()) << text;
        for (std::size_t r = 0; r < batch.rows.size(); ++r) {
            for (std::size_t c = 0; c < batch.columns.size(); ++c) {
                EXPECT_EQ(streamed.rows[r][c].kind,
                          batch.rows[r][c].kind);
                EXPECT_EQ(streamed.rows[r][c].text,
                          batch.rows[r][c].text);
                EXPECT_EQ(streamed.rows[r][c].integer,
                          batch.rows[r][c].integer);
                EXPECT_EQ(streamed.rows[r][c].real,
                          batch.rows[r][c].real);
            }
        }
    }
    std::remove(path);
}

TEST(QueryEngine, RunQueryFileReportsUnreadableInput)
{
    query::Table table;
    std::string error;
    EXPECT_FALSE(query::runQueryFile(test::tempPath("supmon_missing.smtr"),
                                     testDictionary(),
                                     mustParse("count"), table,
                                     error));
    EXPECT_FALSE(error.empty());
}

TEST(QueryEngine, TableRenderers)
{
    query::Table table;
    table.columns = {"stream", "count", "share"};
    table.emplaceRow(query::Value::str("SERVANT 0, A"),
                     query::Value::count(3), query::Value::number(0.5));

    const std::string csv = table.toCsv();
    EXPECT_NE(csv.find("stream,count,share"), std::string::npos);
    EXPECT_NE(csv.find("\"SERVANT 0, A\",3,0.5"), std::string::npos);

    const std::string json = table.toJson();
    EXPECT_NE(json.find("\"stream\": \"SERVANT 0, A\""),
              std::string::npos);
    EXPECT_NE(json.find("\"count\": 3"), std::string::npos);

    const std::string text = table.toText();
    EXPECT_NE(text.find("stream"), std::string::npos);
    EXPECT_NE(text.find("SERVANT 0, A"), std::string::npos);
}
