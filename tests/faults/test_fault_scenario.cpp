/**
 * @file
 * End-to-end check of the fault-tolerant protocol under the canonical
 * faulty-moderate scenario: a servant is killed mid-run and 1% of bus
 * messages are lost, yet the full image is rendered (degraded, not
 * wrong), the fault-aware validator finds nothing, and a same-seed
 * rerun reproduces the trace byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/io.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

const validate::Scenario &
faultyScenario()
{
    const auto *s = validate::findScenario("faulty-moderate");
    EXPECT_NE(s, nullptr);
    return *s;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace

TEST(FaultScenario, CompletesTheFullImageUnderFaults)
{
    const auto result = validate::runScenario(faultyScenario());
    ASSERT_TRUE(result.completed);
    // Degraded, not wrong: every pixel written exactly once.
    EXPECT_EQ(result.missingPixels, 0u);
    EXPECT_EQ(result.duplicatedPixels, 0u);
    // The planned faults actually happened.
    EXPECT_EQ(result.faults.kills, 1u);
    EXPECT_GT(result.faults.messagesDropped, 0u);
    // The master noticed and recovered.
    EXPECT_EQ(result.recovery.servantsDeclaredDead, 1u);
    EXPECT_GT(result.recovery.retries, 0u);
    EXPECT_GT(result.recovery.heartbeatsReceived, 0u);
}

TEST(FaultScenario, FaultAwareValidatorPasses)
{
    const auto result = validate::runScenario(faultyScenario());
    ASSERT_TRUE(result.completed);
    const auto violations = validate::validateRun(result);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(FaultScenario, TraceShowsTheFaultAndRecoveryTimeline)
{
    const auto result = validate::runScenario(faultyScenario());
    ASSERT_TRUE(result.completed);
    std::uint64_t inject_kills = 0, dead = 0, retries = 0;
    for (const auto &ev : result.events) {
        if (ev.token == par::evInjectKill)
            ++inject_kills;
        else if (ev.token == par::evFaultServantDead)
            ++dead;
        else if (ev.token == par::evFaultRetry)
            ++retries;
    }
    EXPECT_EQ(inject_kills, 1u);
    EXPECT_EQ(dead, 1u);
    EXPECT_EQ(retries, result.recovery.retries);
}

TEST(FaultScenario, SameSeedAndPlanRerunIsByteIdentical)
{
    const char *a = test::tempPath("supmon_fault_rerun_a.smtr");
    const char *b = test::tempPath("supmon_fault_rerun_b.smtr");
    const auto run1 = validate::runScenario(faultyScenario());
    const auto run2 = validate::runScenario(faultyScenario());
    ASSERT_TRUE(run1.completed);
    ASSERT_TRUE(run2.completed);
    ASSERT_TRUE(trace::saveTrace(a, run1.events, run1.config.seed));
    ASSERT_TRUE(trace::saveTrace(b, run2.events, run2.config.seed));
    const std::string bytes_a = fileBytes(a);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, fileBytes(b));
    std::remove(a);
    std::remove(b);
}
