/**
 * @file
 * Tests of the incremental TraceReader: record-by-record decoding,
 * header validation, truncation handling, and a deterministic fuzz
 * pass over truncated and bit-flipped trace files (none of which may
 * crash or trip the sanitizers).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

/** Per-test file name so parallel ctest runs cannot collide. */
std::string
uniquePath()
{
    return test::tempPath(std::string("supmon_query_reader_") +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name() +
                          ".smtr");
}

std::vector<TraceEvent>
sampleTrace(std::size_t n, std::uint64_t seed)
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

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Drain a reader; the reader must terminate and stay consistent. */
std::size_t
drain(trace::TraceReader &reader)
{
    TraceEvent ev;
    std::size_t n = 0;
    while (reader.next(ev))
        ++n;
    return n;
}

} // namespace

TEST(TraceReader, ReadsRecordsIncrementally)
{
    const std::string tmpPath = uniquePath();
    const auto original = sampleTrace(1000, 11);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));

    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.declaredCount(), original.size());
    EXPECT_EQ(reader.recordsRead(), 0u);

    std::vector<TraceEvent> streamed;
    TraceEvent ev;
    while (reader.next(ev))
        streamed.push_back(ev);
    EXPECT_TRUE(reader.error().empty());
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(reader.recordsRead(), original.size());

    ASSERT_EQ(streamed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(streamed[i].timestamp, original[i].timestamp);
        EXPECT_EQ(streamed[i].token, original[i].token);
        EXPECT_EQ(streamed[i].param, original[i].param);
        EXPECT_EQ(streamed[i].stream, original[i].stream);
        EXPECT_EQ(streamed[i].flags, original[i].flags);
    }
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, EmptyTraceIsCleanEnd)
{
    const std::string tmpPath = uniquePath();
    ASSERT_TRUE(trace::saveTrace(tmpPath, {}));
    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.declaredCount(), 0u);
    EXPECT_TRUE(reader.atEnd());
    TraceEvent ev;
    EXPECT_FALSE(reader.next(ev));
    EXPECT_TRUE(reader.error().empty());
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, MissingFileReportsError)
{
    trace::TraceReader reader(test::tempPath("supmon_no_such_trace.smtr"));
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("cannot open"), std::string::npos);
    TraceEvent ev;
    EXPECT_FALSE(reader.next(ev));
}

TEST(TraceReader, BadMagicAndVersionRejected)
{
    const std::string tmpPath = uniquePath();
    writeBytes(tmpPath, "NOPE\x01\x00\x00\x00"
                        "\x00\x00\x00\x00\x00\x00\x00\x00");
    trace::TraceReader bad(tmpPath);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error().find("bad magic"), std::string::npos);

    writeBytes(tmpPath, std::string("SMTR\x63\x00\x00\x00", 8) +
                            std::string(8, '\0'));
    trace::TraceReader version(tmpPath);
    EXPECT_FALSE(version.ok());
    EXPECT_NE(version.error().find("version"), std::string::npos);
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, TruncatedFileReportedNotShortRead)
{
    const std::string tmpPath = uniquePath();
    const auto original = sampleTrace(100, 7);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const std::string bytes = fileBytes(tmpPath);

    // Cut in the middle of record 40: the header now promises more
    // records than the file holds, which must surface as an error,
    // not as a silently shorter trace.
    writeBytes(tmpPath, bytes.substr(0, 16 + 40 * 24 + 7));
    trace::TraceReader reader(tmpPath);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("truncated or corrupt"),
              std::string::npos);
    EXPECT_NE(reader.error().find(tmpPath), std::string::npos);
    TraceEvent ev;
    EXPECT_FALSE(reader.next(ev));
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, HeaderOnlyAndPartialHeaderRejected)
{
    const std::string tmpPath = uniquePath();
    const auto original = sampleTrace(10, 3);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const std::string bytes = fileBytes(tmpPath);
    for (std::size_t cut : {std::size_t(0), std::size_t(3),
                            std::size_t(6), std::size_t(12),
                            std::size_t(16)}) {
        writeBytes(tmpPath, bytes.substr(0, cut));
        trace::TraceReader reader(tmpPath);
        EXPECT_FALSE(reader.ok()) << "cut at " << cut;
        EXPECT_EQ(drain(reader), 0u);
    }
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, CorruptCountCannotOverRead)
{
    const std::string tmpPath = uniquePath();
    const auto original = sampleTrace(50, 9);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    std::string bytes = fileBytes(tmpPath);
    // Blow up the declared count to ~4 billion; the validated reader
    // must reject it instead of over-reading (or letting loadTrace
    // reserve gigabytes). The count sits at offset 16 in the v2
    // header (after magic, version and the 64-bit seed).
    bytes[16] = '\xff';
    bytes[17] = '\xff';
    bytes[18] = '\xff';
    bytes[19] = '\xff';
    writeBytes(tmpPath, bytes);
    trace::TraceReader reader(tmpPath);
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(trace::loadTrace(tmpPath).has_value());
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, FuzzTruncatedAndBitFlippedFiles)
{
    const std::string tmpPath = uniquePath();
    // 24 truncations + 24 bit flips over a valid trace file: every
    // variant must be read to completion (or rejection) without a
    // crash or sanitizer report, and must never produce more events
    // than the file can hold.
    const auto original = sampleTrace(200, 21);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const std::string bytes = fileBytes(tmpPath);
    const std::size_t maxRecords = (bytes.size() - 16) / 24;
    sim::Random rng(0xf22);

    for (int i = 0; i < 24; ++i) {
        const auto cut = static_cast<std::size_t>(
            rng.uniformInt(0, bytes.size() - 1));
        writeBytes(tmpPath, bytes.substr(0, cut));
        trace::TraceReader reader(tmpPath);
        const std::size_t n = drain(reader);
        EXPECT_LE(n, maxRecords);
        // A truncated payload must never pass as a complete trace.
        if (cut < bytes.size()) {
            EXPECT_FALSE(reader.ok());
        }
        const auto loaded = trace::loadTrace(tmpPath);
        if (loaded.has_value()) {
            EXPECT_LE(loaded->size(), maxRecords);
        }
    }

    for (int i = 0; i < 24; ++i) {
        std::string mutated = bytes;
        const auto pos = static_cast<std::size_t>(
            rng.uniformInt(0, bytes.size() - 1));
        const int bit = static_cast<int>(rng.uniformInt(0, 7));
        mutated[pos] = static_cast<char>(
            static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
        writeBytes(tmpPath, mutated);
        trace::TraceReader reader(tmpPath);
        const std::size_t n = drain(reader);
        EXPECT_LE(n, maxRecords);
        if (reader.ok()) {
            EXPECT_EQ(n, reader.declaredCount());
        }
        const auto loaded = trace::loadTrace(tmpPath);
        if (loaded.has_value()) {
            EXPECT_LE(loaded->size(), maxRecords);
        }
    }
    std::remove(tmpPath.c_str());
}

TEST(TraceReader, AgreesWithLoadTrace)
{
    const std::string tmpPath = uniquePath();
    const auto original = sampleTrace(333, 5);
    ASSERT_TRUE(trace::saveTrace(tmpPath, original));
    const auto loaded = trace::loadTrace(tmpPath);
    ASSERT_TRUE(loaded.has_value());
    trace::TraceReader reader(tmpPath);
    ASSERT_TRUE(reader.ok()) << reader.error();
    TraceEvent ev;
    std::size_t i = 0;
    while (reader.next(ev)) {
        ASSERT_LT(i, loaded->size());
        EXPECT_EQ(ev.timestamp, (*loaded)[i].timestamp);
        EXPECT_EQ(ev.token, (*loaded)[i].token);
        ++i;
    }
    EXPECT_EQ(i, loaded->size());
    std::remove(tmpPath.c_str());
}
