/**
 * @file
 * Golden-trace regression: every canonical scenario re-runs
 * deterministically, passes the full invariant rule set with zero
 * violations, and matches the digest checked in under tests/golden/.
 *
 * If a test here fails after an intentional behaviour change, refresh
 * the snapshots with `tracecheck --scenario all --update-golden` and
 * commit the diff. SUPMON_GOLDEN_DIR is injected by CMake and points
 * at the source tree's tests/golden directory.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "validate/golden.hh"
#include "validate/rules.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const auto &s : validate::goldenScenarios())
        names.push_back(s.name);
    return names;
}

} // namespace

class GoldenTrace : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTrace, MatchesSnapshotWithZeroViolations)
{
    const auto *scenario = validate::findScenario(GetParam());
    ASSERT_NE(scenario, nullptr);

    const auto result = validate::runScenario(*scenario);
    ASSERT_TRUE(result.completed)
        << scenario->name << ": run did not complete";

    const auto violations = validate::validateRun(result);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);

    const std::string golden_path = std::string(SUPMON_GOLDEN_DIR) +
                                    "/" + scenario->goldenFileName();
    const auto golden = validate::loadGolden(golden_path);
    ASSERT_TRUE(golden.has_value())
        << "missing golden file " << golden_path
        << " (regenerate with tracecheck --scenario all "
           "--update-golden)";

    const auto digest = validate::digestOf(result.events);
    EXPECT_EQ(digest.eventCount, golden->eventCount);
    EXPECT_EQ(validate::hashHex(digest.hash),
              validate::hashHex(golden->hash))
        << scenario->name
        << ": trace diverged from the checked-in snapshot";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenTrace,
                         ::testing::ValuesIn(scenarioNames()),
                         [](const auto &info) {
                             std::string id = info.param;
                             for (auto &c : id)
                                 if (c == '-')
                                     c = '_';
                             return id;
                         });

TEST(GoldenDigest, HashCoversEveryField)
{
    // The digest must react to any single-field change, otherwise the
    // snapshot cannot catch that class of regression.
    trace::TraceEvent base;
    base.timestamp = 12345;
    base.token = 0x0102;
    base.param = 7;
    base.stream = 3;
    base.flags = 0;

    const auto h0 = validate::traceHash({base});
    auto e = base;
    e.timestamp += 1;
    EXPECT_NE(validate::traceHash({e}), h0);
    e = base;
    e.token += 1;
    EXPECT_NE(validate::traceHash({e}), h0);
    e = base;
    e.param += 1;
    EXPECT_NE(validate::traceHash({e}), h0);
    e = base;
    e.stream += 1;
    EXPECT_NE(validate::traceHash({e}), h0);
    e = base;
    e.flags = zm4::flagOverflowGap;
    EXPECT_NE(validate::traceHash({e}), h0);

    // Order matters, too: a permutation is a different trace.
    trace::TraceEvent other = base;
    other.timestamp += 50;
    EXPECT_NE(validate::traceHash({base, other}),
              validate::traceHash({other, base}));
}

TEST(GoldenFile, RoundTripsThroughDisk)
{
    const validate::TraceDigest digest{0x0123456789abcdefULL, 4711};
    const std::string path = test::tempPath("roundtrip.golden");
    ASSERT_TRUE(validate::saveGolden(path, digest));
    const auto loaded = validate::loadGolden(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(*loaded == digest);
    EXPECT_FALSE(
        validate::loadGolden(path + ".does-not-exist").has_value());
}
