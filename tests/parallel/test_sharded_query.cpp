/**
 * @file
 * Shard-merge determinism: the sharded query executor must produce
 * bit-exact tables for every shard count, on synthetic traces built
 * to stress the shard boundaries (open states spanning shards, rtt
 * pairs split across shards, windows anchored in the first shard).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "query/engine.hh"
#include "query/sharded.hh"
#include "sim/random.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokWait = 2;
constexpr std::uint16_t tokSend = 3;
constexpr std::uint16_t tokRecv = 4;

trace::EventDictionary
testDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokWait, "Wait Begin", "WAIT");
    dict.definePoint(tokSend, "Job Send");
    dict.definePoint(tokRecv, "Job Receive");
    return dict;
}

/**
 * A trace engineered so that states stay open across any shard
 * boundary, rtt begins and ends land in different shards, and
 * several streams interleave.
 */
std::vector<TraceEvent>
boundaryHostileTrace(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<TraceEvent> events;
    sim::Tick ts = 0;
    std::uint32_t job = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ts += rng.uniformInt(1, 5000);
        TraceEvent ev;
        ev.timestamp = ts;
        ev.stream = static_cast<unsigned>(rng.uniformInt(0, 4));
        switch (rng.uniformInt(0, 3)) {
          case 0:
            ev.token = tokWork;
            break;
          case 1:
            ev.token = tokWait;
            break;
          case 2:
            ev.token = tokSend;
            ev.param = job++;
            break;
          default:
            ev.token = tokRecv;
            // Answer a job roughly half the time, sometimes an
            // unknown one (exercises unmatched ends).
            ev.param = job ? static_cast<std::uint32_t>(
                                 rng.uniformInt(0, job * 2))
                           : 0;
            break;
        }
        events.push_back(ev);
    }
    return events;
}

void
expectTablesIdentical(const query::Table &a, const query::Table &b,
                      const std::string &what)
{
    ASSERT_EQ(a.columns, b.columns) << what;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        for (std::size_t c = 0; c < a.columns.size(); ++c) {
            EXPECT_EQ(a.rows[r][c].text, b.rows[r][c].text)
                << what << " row " << r << " col " << c;
            EXPECT_EQ(a.rows[r][c].integer, b.rows[r][c].integer)
                << what << " row " << r << " col " << c;
            EXPECT_EQ(a.rows[r][c].real, b.rows[r][c].real)
                << what << " row " << r << " col " << c;
        }
    }
}

std::vector<query::Query>
allFoldQueries()
{
    std::vector<query::Query> queries;
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Count;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Count;
        query::WindowSpec w;
        w.size = sim::Tick(50000);
        w.step = sim::Tick(20000);
        q.window = w;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::States;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Utilization;
        q.fold.state = "WORK";
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Utilization;
        q.fold.state = "WAIT";
        query::WindowSpec w;
        w.size = sim::Tick(100000);
        w.step = sim::Tick(100000);
        q.window = w;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Latency;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Latency;
        q.fold.bins = 8;
        q.fold.histMax = sim::Tick(4000);
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Rtt;
        q.fold.beginPattern = "Job Send";
        q.fold.endPattern = "Job Receive";
        queries.push_back(q);
    }
    {
        // Filters interact with sharding (each shard filters its own
        // slice): keep one stream and a time range.
        query::Query q;
        query::FilterSpec f;
        f.streamPatterns.push_back("1-3");
        f.hasFrom = true;
        f.from = sim::Tick(100000);
        q.filters.push_back(f);
        q.fold.kind = query::FoldKind::States;
        queries.push_back(q);
    }
    return queries;
}

} // namespace

TEST(ShardedQuery, BitExactForEveryShardCountAndFoldKind)
{
    const auto dict = testDictionary();
    const auto events = boundaryHostileTrace(5000, 1234);
    const auto queries = allFoldQueries();
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const auto serial =
            query::runQuery(events, dict, queries[qi]);
        for (unsigned jobs : {1u, 2u, 3u, 5u, 8u, 64u}) {
            const auto sharded = query::runQuerySharded(
                events, dict, queries[qi], jobs);
            expectTablesIdentical(sharded, serial,
                                  "query " + std::to_string(qi) +
                                      " jobs " +
                                      std::to_string(jobs));
        }
    }
}

TEST(ShardedQuery, BitExactWithExplicitTraceEnd)
{
    const auto dict = testDictionary();
    const auto events = boundaryHostileTrace(2000, 99);
    query::Query q;
    q.fold.kind = query::FoldKind::States;
    const sim::Tick traceEnd = events.back().timestamp + 1000000;
    const auto serial = query::runQuery(events, dict, q, traceEnd);
    for (unsigned jobs : {1u, 4u}) {
        const auto sharded =
            query::runQuerySharded(events, dict, q, jobs, traceEnd);
        expectTablesIdentical(sharded, serial,
                              "trace-end jobs " +
                                  std::to_string(jobs));
    }
}

TEST(ShardedQuery, EmptyAndTinyTraces)
{
    const auto dict = testDictionary();
    query::Query q;
    q.fold.kind = query::FoldKind::States;
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(2), std::size_t(7)}) {
        const auto events = boundaryHostileTrace(n, 7);
        const auto serial = query::runQuery(events, dict, q);
        for (unsigned jobs : {1u, 8u}) {
            const auto sharded =
                query::runQuerySharded(events, dict, q, jobs);
            expectTablesIdentical(sharded, serial,
                                  "n " + std::to_string(n) +
                                      " jobs " +
                                      std::to_string(jobs));
        }
    }
}

TEST(ShardedQuery, FileExecutionMatchesAndReportsErrors)
{
    const char *path = test::tempPath("supmon_sharded_query_test.smtr");
    const auto dict = testDictionary();
    const auto events = boundaryHostileTrace(3000, 5);
    ASSERT_TRUE(trace::saveTrace(path, events));

    query::Query q;
    q.fold.kind = query::FoldKind::Utilization;
    q.fold.state = "WORK";
    const auto serial = query::runQuery(events, dict, q);
    for (unsigned jobs : {1u, 2u, 8u}) {
        query::Table sharded;
        std::string error;
        ASSERT_TRUE(query::runQueryFileSharded(path, dict, q, jobs,
                                               sharded, error))
            << error;
        expectTablesIdentical(sharded, serial,
                              "file jobs " + std::to_string(jobs));
    }
    std::remove(path);

    query::Table table;
    std::string error;
    EXPECT_FALSE(query::runQueryFileSharded(
        test::tempPath("supmon_no_such_sharded.smtr"), dict, q, 4, table,
        error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}
