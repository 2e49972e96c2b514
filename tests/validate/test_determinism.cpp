/**
 * @file
 * Determinism: the golden-trace machinery is only sound if a scenario
 * re-run produces a bit-identical trace. Run the figure-10 scenario
 * twice and require event-wise equality, equal digests, and
 * byte-identical saved trace files.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "trace/io.hh"
#include "validate/golden.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(Determinism, Fig10RerunIsBitIdentical)
{
    const auto *scenario = validate::findScenario("fig10-versions");
    ASSERT_NE(scenario, nullptr);

    const auto first = validate::runScenario(*scenario);
    const auto second = validate::runScenario(*scenario);
    ASSERT_TRUE(first.completed);
    ASSERT_TRUE(second.completed);

    ASSERT_FALSE(first.events.empty());
    EXPECT_EQ(first.events, second.events);
    EXPECT_TRUE(validate::digestOf(first.events) ==
                validate::digestOf(second.events));

    // The on-disk representation must be byte-identical as well,
    // otherwise saved traces could not serve as regression baselines.
    const std::string path_a = test::tempPath("det-a.smtr");
    const std::string path_b = test::tempPath("det-b.smtr");
    ASSERT_TRUE(trace::saveTrace(path_a, first.events));
    ASSERT_TRUE(trace::saveTrace(path_b, second.events));
    const std::string bytes_a = slurp(path_a);
    const std::string bytes_b = slurp(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Determinism, DistinctScenariosProduceDistinctDigests)
{
    const auto *fig07 = validate::findScenario("fig07-mailbox");
    const auto *fig09 = validate::findScenario("fig09-agents");
    ASSERT_NE(fig07, nullptr);
    ASSERT_NE(fig09, nullptr);
    const auto a = validate::runScenario(*fig07);
    const auto b = validate::runScenario(*fig09);
    ASSERT_TRUE(a.completed && b.completed);
    EXPECT_FALSE(validate::digestOf(a.events) ==
                 validate::digestOf(b.events));
}
