/**
 * @file
 * Racing readers: many TraceReaders over the same file, concurrently
 * (whole-file and range views). Each reader owns its FILE handle and
 * buffer, so nothing is shared — this suite exists to let TSan prove
 * that, and to check every reader decodes its exact slice under
 * contention.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "parallel/pool.hh"
#include "sim/random.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

std::vector<TraceEvent>
randomTrace(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<TraceEvent> events;
    sim::Tick ts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ts += rng.uniformInt(1, 1000);
        TraceEvent ev;
        ev.timestamp = ts;
        ev.token = static_cast<std::uint16_t>(i & 0xffff);
        ev.param = static_cast<std::uint32_t>(i);
        ev.stream = static_cast<unsigned>(i % 17);
        events.push_back(ev);
    }
    return events;
}

const char *tmpPath = test::tempPath("supmon_racing_readers_test.smtr");

} // namespace

TEST(RacingReaders, ConcurrentWholeFileReadersSeeIdenticalTraces)
{
    const auto original = randomTrace(20000, 21);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));

    std::atomic<int> failures{0};
    parallel::forEachIndex(8, 8, [&](std::size_t) {
        trace::TraceReader reader(tmpPath);
        if (!reader.ok()) {
            ++failures;
            return;
        }
        std::vector<TraceEvent> batch(1024);
        std::uint64_t i = 0;
        std::size_t got;
        while ((got = reader.nextBatch(batch.data(),
                                       batch.size())) != 0) {
            for (std::size_t k = 0; k < got; ++k, ++i) {
                if (batch[k].param !=
                        static_cast<std::uint32_t>(i) ||
                    batch[k].timestamp != original[i].timestamp) {
                    ++failures;
                    return;
                }
            }
        }
        if (i != original.size() || !reader.error().empty())
            ++failures;
    });
    EXPECT_EQ(failures.load(), 0);
    std::remove(tmpPath);
}

TEST(RacingReaders, ConcurrentRangeViewsTileTheFileExactly)
{
    const auto original = randomTrace(10007, 22); // prime: ragged split
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));

    const unsigned shards = 16;
    const std::uint64_t n = original.size();
    std::vector<std::uint64_t> seen(shards, 0);
    std::atomic<int> failures{0};
    parallel::forEachIndex(shards, shards, [&](std::size_t s) {
        const std::uint64_t base = n / shards;
        const std::uint64_t extra = n % shards;
        const std::uint64_t lo =
            base * s + std::min<std::uint64_t>(s, extra);
        const std::uint64_t len = base + (s < extra ? 1 : 0);
        trace::TraceReader reader(tmpPath, lo, len);
        if (!reader.ok()) {
            ++failures;
            return;
        }
        TraceEvent ev;
        std::uint64_t i = lo;
        while (reader.next(ev)) {
            if (ev.param != static_cast<std::uint32_t>(i)) {
                ++failures;
                return;
            }
            ++i;
            ++seen[s];
        }
        if (!reader.error().empty() || !reader.atEnd())
            ++failures;
    });
    EXPECT_EQ(failures.load(), 0);
    std::uint64_t total = 0;
    for (std::uint64_t c : seen)
        total += c;
    EXPECT_EQ(total, n);
    std::remove(tmpPath);
}
