/**
 * @file
 * The Block policy's byte-identity contract, pinned to the golden
 * scenarios: every canonical run streamed through a live session
 * (ring -> bounded buffer -> SmtrSink) produces an .smtr file that is
 * byte-for-byte identical to saveTrace() of the same events, and
 * whose decoded digest matches the checked-in golden snapshot.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "live/collector.hh"
#include "live/sinks.hh"
#include "trace/io.hh"
#include "validate/golden.hh"
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

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

class LosslessLive : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LosslessLive, StreamedArchiveIsByteIdenticalToBatch)
{
    const auto *scenario = validate::findScenario(GetParam());
    ASSERT_NE(scenario, nullptr);
    const auto result = validate::runScenario(*scenario);
    ASSERT_TRUE(result.completed);

    const std::string liveFile =
        test::tempPath("live-" + scenario->name + ".smtr");
    const std::string batchFile =
        test::tempPath("batch-" + scenario->name + ".smtr");
    const std::uint64_t seed = result.config.seed;

    // Batch half: the classical save-after-the-run path.
    ASSERT_TRUE(trace::saveTrace(batchFile, result.events, seed));

    // Live half: the same events pushed through the full ingestion
    // pipeline — ring, bounded buffer, collector thread, archive
    // sink. Small ring and buffer on purpose: the producer must
    // stall (never shed) for the contract to mean anything.
    {
        auto sink = std::make_shared<live::SmtrSink>(liveFile, seed);
        ASSERT_TRUE(sink->ok()) << sink->error();
        live::Collector collector;
        live::SessionConfig sc;
        sc.tenant = scenario->name;
        sc.seed = seed;
        sc.policy = live::Backpressure::Block;
        sc.ringCapacity = 64;
        sc.maxBuffered = 256;
        auto session = collector.open(sc, sink);
        for (const trace::TraceEvent &ev : result.events)
            session->publish(ev);
        session->close();
        collector.wait();
        ASSERT_TRUE(sink->ok()) << sink->error();

        const live::IngestMetrics m = collector.metrics();
        EXPECT_EQ(m.produced, result.events.size());
        EXPECT_EQ(m.delivered, result.events.size());
        EXPECT_EQ(m.dropped, 0u);
    }

    // Byte-identical, header (seed, count) included.
    const std::string liveBytes = fileBytes(liveFile);
    const std::string batchBytes = fileBytes(batchFile);
    ASSERT_FALSE(liveBytes.empty());
    EXPECT_EQ(liveBytes.size(), batchBytes.size());
    EXPECT_TRUE(liveBytes == batchBytes)
        << scenario->name
        << ": live archive diverged from saveTrace()";

    // And the decoded stream still matches the golden snapshot.
    const auto loaded = trace::loadTrace(liveFile);
    ASSERT_TRUE(loaded.has_value());
    const std::string goldenPath = std::string(SUPMON_GOLDEN_DIR) +
                                   "/" + scenario->goldenFileName();
    const auto golden = validate::loadGolden(goldenPath);
    ASSERT_TRUE(golden.has_value()) << "missing " << goldenPath;
    const auto digest = validate::digestOf(*loaded);
    EXPECT_EQ(digest.eventCount, golden->eventCount);
    EXPECT_EQ(validate::hashHex(digest.hash),
              validate::hashHex(golden->hash))
        << scenario->name << ": live stream diverged from golden";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, LosslessLive,
                         ::testing::ValuesIn(scenarioNames()),
                         [](const auto &info) {
                             std::string id = info.param;
                             for (auto &c : id)
                                 if (c == '-')
                                     c = '_';
                             return id;
                         });
