/**
 * @file
 * Batch/streaming cross-check: for the three golden scenarios, the
 * streaming query engine's state-duration statistics and utilization
 * must match the batch ActivityMap/report path EXACTLY (the same
 * doubles, not approximately), both from memory and when re-read
 * from a saved trace file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "query/engine.hh"
#include "query/sharded.hh"
#include "trace/activity.hh"
#include "trace/io.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

/** Every cell equal: text, integer, and the exact double. */
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

const char *scenarioNames[] = {"fig07-mailbox", "fig09-agents",
                               "fig10-versions"};

/** Stream display name -> id, for resolving query table rows. */
std::map<std::string, unsigned>
streamIndex(const trace::ActivityMap &map,
            const trace::EventDictionary &dict)
{
    std::map<std::string, unsigned> index;
    for (unsigned stream : map.streams())
        index[dict.streamName(stream)] = stream;
    return index;
}

par::RunResult
runNamedScenario(const char *name)
{
    const auto *scenario = validate::findScenario(name);
    EXPECT_NE(scenario, nullptr) << name;
    auto result = validate::runScenario(*scenario);
    EXPECT_TRUE(result.completed) << name;
    return result;
}

} // namespace

TEST(QueryCrossCheck, StatesFoldMatchesBatchDurationStats)
{
    for (const char *name : scenarioNames) {
        const auto res = runNamedScenario(name);
        const auto map = trace::ActivityMap::build(
            res.events, res.dictionary, res.phaseEnd);
        const auto stats = map.durationStats();
        const auto byName = streamIndex(map, res.dictionary);

        query::Query q;
        q.fold.kind = query::FoldKind::States;
        const auto table = query::runQuery(res.events, res.dictionary,
                                           q, res.phaseEnd);

        // One row per (stream, state) the batch path found...
        ASSERT_EQ(table.rows.size(), stats.size()) << name;
        for (const auto &row : table.rows) {
            const auto stream = byName.find(row[0].text);
            ASSERT_NE(stream, byName.end()) << name;
            const auto it =
                stats.find({stream->second, row[1].text});
            ASSERT_NE(it, stats.end())
                << name << ": " << row[0].text << "/" << row[1].text;
            const sim::SummaryStat &s = it->second;
            // ...and every statistic is the same double, because both
            // paths push the same intervals in the same order.
            EXPECT_EQ(row[2].integer, s.count()) << name;
            EXPECT_EQ(row[3].real, s.sum() * 1e-6) << name;
            EXPECT_EQ(row[4].real, s.mean() * 1e-6) << name;
            EXPECT_EQ(row[5].real, s.min() * 1e-6) << name;
            EXPECT_EQ(row[6].real, s.max() * 1e-6) << name;
            EXPECT_EQ(row[7].real,
                      map.utilization(stream->second, row[1].text,
                                      map.traceBegin(),
                                      map.traceEnd()))
                << name;
        }
    }
}

TEST(QueryCrossCheck, UtilizationFoldMatchesBatchUtilization)
{
    for (const char *name : scenarioNames) {
        const auto res = runNamedScenario(name);
        const auto map = trace::ActivityMap::build(
            res.events, res.dictionary, res.phaseEnd);
        const auto byName = streamIndex(map, res.dictionary);

        query::Query q;
        q.fold.kind = query::FoldKind::Utilization;
        q.fold.state = "WORK";
        const auto table = query::runQuery(res.events, res.dictionary,
                                           q, res.phaseEnd);
        ASSERT_FALSE(table.rows.empty()) << name;
        for (const auto &row : table.rows) {
            const auto stream = byName.find(row[0].text);
            ASSERT_NE(stream, byName.end()) << name;
            EXPECT_EQ(row[2].real,
                      map.utilization(stream->second, "WORK",
                                      map.traceBegin(),
                                      map.traceEnd()))
                << name << ": " << row[0].text;
        }
        // Every servant stream appears in the query output.
        for (unsigned servant : res.servantStreams) {
            const std::string servantName =
                res.dictionary.streamName(servant);
            EXPECT_TRUE(std::any_of(
                table.rows.begin(), table.rows.end(),
                [&](const std::vector<query::Value> &row) {
                    return row[0].text == servantName;
                }))
                << name << ": " << servantName;
        }
    }
}

TEST(QueryCrossCheck, PhaseWindowUtilizationMatchesBatch)
{
    // The fig08-style measurement: utilization of the WORK state over
    // the ray-tracing phase only. The query filters the phase window
    // in-stream; the batch reference applies the same cut up front.
    for (const char *name : scenarioNames) {
        const auto res = runNamedScenario(name);

        query::Query q;
        query::FilterSpec phase;
        phase.hasFrom = true;
        phase.from = res.phaseBegin;
        phase.hasTo = true;
        phase.to = res.phaseEnd;
        q.filters.push_back(phase);
        q.fold.kind = query::FoldKind::Utilization;
        q.fold.state = "WORK";
        const auto table = query::runQuery(res.events, res.dictionary,
                                           q, res.phaseEnd);

        std::vector<trace::TraceEvent> phaseEvents;
        for (const auto &ev : res.events) {
            if (ev.timestamp >= res.phaseBegin &&
                ev.timestamp < res.phaseEnd)
                phaseEvents.push_back(ev);
        }
        const auto map = trace::ActivityMap::build(
            phaseEvents, res.dictionary, res.phaseEnd);
        const auto byName = streamIndex(map, res.dictionary);

        ASSERT_FALSE(table.rows.empty()) << name;
        for (const auto &row : table.rows) {
            const auto stream = byName.find(row[0].text);
            ASSERT_NE(stream, byName.end()) << name;
            EXPECT_EQ(row[2].real,
                      map.utilization(stream->second, "WORK",
                                      res.phaseBegin, res.phaseEnd))
                << name << ": " << row[0].text;
        }
    }
}

TEST(QueryCrossCheck, FileStreamingMatchesInMemoryOnGoldenTrace)
{
    // Round-trip one golden trace through the on-disk format and run
    // the same query once streamed from the file and once in memory:
    // every cell must be identical.
    const char *path = test::tempPath("supmon_query_crosscheck.smtr");
    const auto res = runNamedScenario("fig07-mailbox");
    ASSERT_TRUE(trace::saveTrace(path, res.events));

    query::Query q;
    q.fold.kind = query::FoldKind::States;
    const auto batch =
        query::runQuery(res.events, res.dictionary, q, res.phaseEnd);
    query::Table streamed;
    std::string error;
    ASSERT_TRUE(query::runQueryFile(path, res.dictionary, q, streamed,
                                    error, res.phaseEnd))
        << error;

    expectTablesIdentical(streamed, batch, "file-vs-memory");
    std::remove(path);
}

TEST(QueryCrossCheck, ShardCountIndependence)
{
    // The sharded executor must produce bit-exact results for EVERY
    // shard count — including one shard, which proves the shard
    // machinery itself (partial folds + merge) reproduces the
    // streaming fold, not just that the splits line up.
    const auto res = runNamedScenario("fig09-agents");

    std::vector<query::Query> queries;
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
        q.fold.kind = query::FoldKind::Count;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Count;
        query::WindowSpec w;
        w.size = sim::milliseconds(10);
        w.step = sim::milliseconds(10);
        q.window = w;
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Latency;
        query::FilterSpec f;
        f.tokenPatterns.push_back("evWorkBegin");
        q.filters.push_back(f);
        queries.push_back(q);
    }
    {
        query::Query q;
        q.fold.kind = query::FoldKind::Rtt;
        q.fold.beginPattern = "evJobSend";
        q.fold.endPattern = "evReceiveResultsBegin";
        queries.push_back(q);
    }

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const query::Table serial = query::runQuery(
            res.events, res.dictionary, queries[qi], res.phaseEnd);
        for (unsigned jobs : {1u, 2u, 3u, 8u}) {
            const query::Table sharded = query::runQuerySharded(
                res.events, res.dictionary, queries[qi], jobs,
                res.phaseEnd);
            expectTablesIdentical(
                sharded, serial,
                "query " + std::to_string(qi) + " jobs " +
                    std::to_string(jobs));
        }
    }
}

TEST(QueryCrossCheck, ShardedFileMatchesStreamingFile)
{
    const char *path = test::tempPath("supmon_query_crosscheck_sharded.smtr");
    const auto res = runNamedScenario("fig10-versions");
    ASSERT_TRUE(trace::saveTrace(path, res.events));

    query::Query q;
    q.fold.kind = query::FoldKind::States;
    query::Table streamed;
    std::string error;
    ASSERT_TRUE(query::runQueryFile(path, res.dictionary, q, streamed,
                                    error, res.phaseEnd))
        << error;
    for (unsigned jobs : {1u, 2u, 4u}) {
        query::Table sharded;
        ASSERT_TRUE(query::runQueryFileSharded(path, res.dictionary,
                                               q, jobs, sharded,
                                               error, res.phaseEnd))
            << error;
        expectTablesIdentical(sharded, streamed,
                              "file jobs " + std::to_string(jobs));
    }
    std::remove(path);
}
