/**
 * @file
 * The runner's measured servant utilization against the independent
 * batch oracle, and `tracequery --phase` against the runner.
 *
 * The runner measures through the query engine's utilization fold
 * with the measurement phase as its evaluation range;
 * trace::ActivityMap computes the same statistic its own way, interval
 * by interval. Both must give the same double, not a nearby one. The
 * `--phase` evaluation (query::runPhaseQuery) is the runner's, so its
 * per-servant rows average to exactly the runner's number even with a
 * stream filter in front of the fold.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "query/engine.hh"
#include "trace/activity.hh"
#include "validate/scenarios.hh"

using namespace supmon;

namespace
{

par::RunResult
runNamed(const std::string &name)
{
    const auto *scenario = validate::findScenario(name);
    EXPECT_NE(scenario, nullptr) << name;
    auto result = validate::runScenario(*scenario);
    EXPECT_TRUE(result.completed) << name;
    return result;
}

class MeasuredUtilization
    : public ::testing::TestWithParam<const char *>
{
};

class PhaseQuery : public ::testing::TestWithParam<const char *>
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

} // namespace

TEST_P(MeasuredUtilization, EqualsActivityMapOracle)
{
    const auto res = runNamed(GetParam());
    ASSERT_FALSE(res.servantStreams.empty());
    ASSERT_GT(res.phaseEnd, res.phaseBegin);
    const double oracle =
        trace::ActivityMap::build(res.events, res.dictionary,
                                  res.phaseEnd)
            .meanUtilization(res.servantStreams, "WORK",
                             res.phaseBegin, res.phaseEnd);
    EXPECT_GT(oracle, 0.0);
    EXPECT_EQ(res.servantUtilizationMeasured, oracle);
}

INSTANTIATE_TEST_SUITE_P(GoldenAndScaled, MeasuredUtilization,
                         ::testing::Values("fig07-mailbox",
                                           "fig09-agents",
                                           "fig10-versions",
                                           "faulty-moderate",
                                           "scaled-10x",
                                           "scaled-100x"),
                         paramName);

TEST_P(PhaseQuery, ServantMeanEqualsRunner)
{
    const auto res = runNamed(GetParam());
    const auto parsed =
        query::parseQuery("filter stream=servant* | utilization");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const query::Table table =
        query::runPhaseQuery(res.events, res.dictionary, parsed.query,
                             res.phaseBegin, res.phaseEnd);

    std::map<std::string, double> byStream;
    for (const auto &row : table.rows)
        byStream[row[0].text] = row[2].real;
    // A servant without a row never worked in the phase: 0.
    double sum = 0.0;
    for (unsigned stream : res.servantStreams) {
        const auto it = byStream.find(res.dictionary.streamName(stream));
        if (it != byStream.end())
            sum += it->second;
    }
    ASSERT_FALSE(res.servantStreams.empty());
    EXPECT_EQ(sum / static_cast<double>(res.servantStreams.size()),
              res.servantUtilizationMeasured);
}

INSTANTIATE_TEST_SUITE_P(Golden, PhaseQuery,
                         ::testing::Values("fig07-mailbox",
                                           "fig09-agents",
                                           "fig10-versions",
                                           "faulty-moderate"),
                         paramName);
