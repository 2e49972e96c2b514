/**
 * @file
 * One stream-naming rule for runs, saved files and live streams.
 *
 * A query over a saved trace, evaluated with the plain
 * par::rayTracerDictionary(), must print the tables the same query
 * prints over the run's own events and dictionary: the stream names
 * follow from the stream ids alone, whatever the machine size. The
 * one exception is node 0's last stream in a faulty run: the run
 * names it FAULTS, but the file header does not record that faults
 * were injected, so the file names it AGENT 5 (events.hh).
 */

#include <gtest/gtest.h>

#include <string>

#include "partracer/events.hh"
#include "query/engine.hh"
#include "query/sharded.hh"
#include "trace/io.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

class SavedTraceNames : public ::testing::TestWithParam<const char *>
{
};

std::string
paramName(const ::testing::TestParamInfo<const char *> &info)
{
    std::string name = info.param;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

void
expectTablesIdentical(const query::Table &file,
                      const query::Table &run, const std::string &what)
{
    ASSERT_EQ(file.columns, run.columns) << what;
    ASSERT_EQ(file.rows.size(), run.rows.size()) << what;
    for (std::size_t r = 0; r < run.rows.size(); ++r) {
        for (std::size_t c = 0; c < run.columns.size(); ++c) {
            EXPECT_EQ(file.rows[r][c].text, run.rows[r][c].text)
                << what << " row " << r << " col " << c;
            EXPECT_EQ(file.rows[r][c].integer, run.rows[r][c].integer)
                << what << " row " << r << " col " << c;
            EXPECT_EQ(file.rows[r][c].real, run.rows[r][c].real)
                << what << " row " << r << " col " << c;
        }
    }
}

} // namespace

TEST_P(SavedTraceNames, FileQueriesMatchTheRun)
{
    const std::string name = GetParam();
    const auto *scenario = validate::findScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    const par::RunResult res = validate::runScenario(*scenario);
    ASSERT_TRUE(res.completed) << name;
    const std::string path = test::tempPath(name + ".smtr");
    ASSERT_TRUE(trace::saveTrace(path, res.events, res.config.seed));

    const std::string faults = res.dictionary.streamName(
        par::streamOf(0, par::TokenClass::Fault));
    const bool faulty = faults == "FAULTS";
    EXPECT_EQ(faulty, !res.config.faultPlanText.empty()) << name;

    for (const char *text :
         {"count", "filter stream=servant* | utilization"}) {
        const query::ParseResult parsed = query::parseQuery(text);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        query::Table fromFile;
        std::string error;
        ASSERT_TRUE(query::runQueryFileSharded(
            path, par::rayTracerDictionary(), parsed.query, 1,
            fromFile, error))
            << error;

        query::Table fromRun =
            query::runQuery(res.events, res.dictionary, parsed.query);
        std::size_t renamed = 0;
        for (auto &row : fromRun.rows) {
            EXPECT_EQ(row[0].text.rfind("STREAM ", 0),
                      std::string::npos)
                << name << " " << text << ": " << row[0].text;
            if (faulty && row[0].text == "FAULTS") {
                row[0].text = "AGENT 5";
                ++renamed;
            }
        }
        if (faulty && std::string(text) == "count") {
            EXPECT_GT(renamed, 0u) << name;
        }
        expectTablesIdentical(fromFile, fromRun, name + " " + text);
    }
}

INSTANTIATE_TEST_SUITE_P(GoldenAndScaled, SavedTraceNames,
                         ::testing::Values("fig07-mailbox",
                                           "fig09-agents",
                                           "fig10-versions",
                                           "scaled-10x",
                                           "faulty-moderate"),
                         paramName);
