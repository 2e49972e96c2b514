/**
 * @file
 * Tests of the binary trace file format: round trips, corruption
 * handling, and interoperability with the evaluation tools.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/random.hh"
#include "trace/activity.hh"
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
        ts += rng.uniformInt(1, 100000);
        TraceEvent ev;
        ev.timestamp = ts;
        ev.token = static_cast<std::uint16_t>(rng.next());
        ev.param = static_cast<std::uint32_t>(rng.next());
        ev.stream = static_cast<unsigned>(rng.uniformInt(0, 63));
        ev.flags = static_cast<std::uint8_t>(rng.uniformInt(0, 1));
        events.push_back(ev);
    }
    return events;
}

const char *tmpPath = test::tempPath("supmon_trace_io_test.smtr");

} // namespace

TEST(TraceIo, RoundTripsEmptyTrace)
{
    ASSERT_TRUE(trace::saveTrace(tmpPath, {}));
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->empty());
    std::remove(tmpPath);
}

TEST(TraceIo, RoundTripsEveryField)
{
    const auto original = randomTrace(5000, 42);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ((*loaded)[i].timestamp, original[i].timestamp);
        EXPECT_EQ((*loaded)[i].token, original[i].token);
        EXPECT_EQ((*loaded)[i].param, original[i].param);
        EXPECT_EQ((*loaded)[i].stream, original[i].stream);
        EXPECT_EQ((*loaded)[i].flags, original[i].flags);
    }
    std::remove(tmpPath);
}

TEST(TraceIo, SeedRoundTripsInHeader)
{
    const auto original = randomTrace(10, 3);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original, 0xdeadbeefcafeull));
    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.seed(), 0xdeadbeefcafeull);
    EXPECT_EQ(reader.declaredCount(), original.size());
    std::remove(tmpPath);
}

TEST(TraceIo, SeedDefaultsToZero)
{
    ASSERT_TRUE(trace::saveTrace(tmpPath, randomTrace(3, 1)));
    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.seed(), 0u);
    std::remove(tmpPath);
}

TEST(TraceIo, ReadsVersion1Files)
{
    // Hand-craft a version-1 file (no seed field in the header) and
    // check the reader still decodes it, reporting seed 0.
    const auto original = randomTrace(4, 9);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original, 77));
    std::ifstream in(tmpPath, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    // v2 header: magic(4) version(4) seed(8) count(8). Rewrite the
    // version to 1 and splice the seed field out.
    const std::uint32_t v1 = 1;
    data.replace(4, sizeof(v1),
                 reinterpret_cast<const char *>(&v1), sizeof(v1));
    data.erase(8, 8);
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.seed(), 0u);
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), original.size());
    EXPECT_EQ((*loaded)[2].timestamp, original[2].timestamp);
    std::remove(tmpPath);
}

TEST(TraceIo, UnknownVersionRejected)
{
    ASSERT_TRUE(trace::saveTrace(tmpPath, randomTrace(2, 5)));
    std::fstream f(tmpPath,
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t bad = 99;
    f.seekp(4);
    f.write(reinterpret_cast<const char *>(&bad), sizeof(bad));
    f.close();
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath);
}

TEST(TraceIo, MissingFileYieldsNullopt)
{
    EXPECT_FALSE(trace::loadTrace(test::tempPath("supmon_no_such_trace.smtr"))
                     .has_value());
}

TEST(TraceIo, WrongMagicRejected)
{
    std::ofstream out(tmpPath, std::ios::binary);
    out << "NOPE0000000000000000";
    out.close();
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath);
}

TEST(TraceIo, TruncatedFileRejected)
{
    const auto original = randomTrace(100, 7);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    // Chop the file in half.
    std::ifstream in(tmpPath, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() / 2));
    out.close();
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath);
}

TEST(TraceIo, TrailingPartialRecordRejected)
{
    // A file longer than the declared count implies, by a fraction of
    // a record, means the writer died mid-record (or the file is
    // corrupt) — even though all declared records still fit.
    const auto original = randomTrace(20, 11);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    std::ofstream out(tmpPath, std::ios::binary | std::ios::app);
    out.write("\0\0\0\0\0\0\0", 7);
    out.close();
    trace::TraceReader reader(tmpPath);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("partial record"),
              std::string::npos)
        << reader.error();
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath);
}

TEST(TraceIo, WholeAppendedRecordsStillReadable)
{
    // Whole records beyond the declared count stay permitted (and
    // ignored): only a ragged, partial tail is an error.
    const auto original = randomTrace(20, 12);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const std::vector<char> whole(24, '\0');
    std::ofstream out(tmpPath, std::ios::binary | std::ios::app);
    out.write(whole.data(),
              static_cast<std::streamsize>(whole.size()));
    out.close();
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), original.size());
    std::remove(tmpPath);
}

TEST(TraceIo, RangeViewDeliversExactSlice)
{
    const auto original = randomTrace(100, 13);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    trace::TraceReader reader(tmpPath, 40, 25);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.rangeLength(), 25u);
    TraceEvent ev;
    for (std::size_t i = 0; i < 25; ++i) {
        ASSERT_TRUE(reader.next(ev));
        EXPECT_EQ(ev.timestamp, original[40 + i].timestamp);
        EXPECT_EQ(ev.token, original[40 + i].token);
    }
    EXPECT_FALSE(reader.next(ev));
    EXPECT_TRUE(reader.error().empty());
    EXPECT_TRUE(reader.atEnd());
    // Out-of-bounds views clamp instead of failing.
    trace::TraceReader past(tmpPath, 90, 50);
    ASSERT_TRUE(past.ok());
    EXPECT_EQ(past.rangeLength(), 10u);
    trace::TraceReader beyond(tmpPath, 200, 5);
    ASSERT_TRUE(beyond.ok());
    EXPECT_EQ(beyond.rangeLength(), 0u);
    std::remove(tmpPath);
}

TEST(TraceIo, UnwritablePathFails)
{
    EXPECT_FALSE(trace::saveTrace("/nonexistent-dir/trace.smtr", {}));
}

TEST(TraceIo, LoadedTraceFeedsEvaluation)
{
    // A trace survives the disk round trip and still evaluates.
    trace::EventDictionary dict;
    dict.defineBegin(1, "Work Begin", "WORK");
    dict.defineBegin(2, "Wait Begin", "WAIT");
    std::vector<TraceEvent> events;
    TraceEvent a;
    a.timestamp = 100;
    a.token = 1;
    TraceEvent b;
    b.timestamp = 600;
    b.token = 2;
    events = {a, b};
    ASSERT_TRUE(trace::saveTrace(tmpPath, events));
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    const auto map = trace::ActivityMap::build(*loaded, dict, 1000);
    EXPECT_DOUBLE_EQ(map.utilization(0, "WORK", 100, 1000),
                     500.0 / 900.0);
    std::remove(tmpPath);
}
