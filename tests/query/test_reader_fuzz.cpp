/**
 * @file
 * Fuzzing the trace-file ingestion surface: seeded corruptions of a
 * valid .smtr file — truncations, bit flips, header mutations, raw
 * garbage, partial-record tails — fed to every reader entry point
 * (loadTrace, streaming TraceReader, the sharded query executor).
 * The contract under attack is "clean error or clean result, never a
 * crash": a corrupt file must surface as a non-empty error message
 * (or parse as a shorter-but-valid trace when the damage lands in
 * record payload bytes), and must never fault, over-read, or leak —
 * the suite runs under the ASan/UBSan CI job to make those
 * properties machine-checked rather than aspirational.
 *
 * Everything is seeded, so any failure replays deterministically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "query/engine.hh"
#include "query/sharded.hh"
#include "sim/random.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokWait = 2;

trace::EventDictionary
testDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokWait, "Wait Begin", "WAIT");
    return dict;
}

std::vector<TraceEvent>
validEvents(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<TraceEvent> events;
    sim::Tick ts = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ts += rng.uniformInt(1, 1000);
        TraceEvent ev;
        ev.timestamp = ts;
        ev.stream = static_cast<unsigned>(rng.uniformInt(0, 7));
        ev.token = static_cast<std::uint16_t>(
            rng.uniformInt(tokWork, tokWait));
        ev.param = static_cast<std::uint32_t>(rng.uniformInt(0, 99));
        events.push_back(ev);
    }
    return events;
}

bool
readFile(const std::string &path, std::vector<unsigned char> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    out.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    const bool ok =
        out.empty() ||
        std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    return ok;
}

bool
writeFile(const std::string &path,
          const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) ==
            bytes.size();
    return std::fclose(f) == 0 && ok;
}

/**
 * Exercise every ingestion entry point on @p path and enforce the
 * error contract. Crashes and memory errors are caught by the
 * process (and by the sanitizer CI job); this checks the observable
 * half: a failure always carries a message, a success always
 * delivers a self-consistent trace.
 */
void
exerciseReaders(const std::string &path, const std::string &what)
{
    SCOPED_TRACE(what);

    // loadTrace: nullopt or a vector; no middle ground.
    const auto loaded = trace::loadTrace(path);

    // Streaming reader: drain it; on failure error() is non-empty.
    trace::TraceReader reader(path);
    if (reader.ok()) {
        TraceEvent ev;
        std::uint64_t streamed = 0;
        while (reader.next(ev))
            ++streamed;
        if (reader.error().empty()) {
            // Clean end: the stream must deliver exactly the
            // declared count, and agree with loadTrace.
            EXPECT_EQ(streamed, reader.declaredCount());
            ASSERT_TRUE(loaded.has_value());
            EXPECT_EQ(loaded->size(), streamed);
        } else {
            // Mid-stream failure: loadTrace must refuse it too.
            EXPECT_FALSE(loaded.has_value());
        }
    } else {
        EXPECT_FALSE(reader.error().empty());
        EXPECT_FALSE(loaded.has_value());
    }

    // Range view with an absurd range must stay within contract.
    trace::TraceReader range(path, 1u << 20, 1u << 20);
    if (range.ok()) {
        TraceEvent ev;
        while (range.next(ev)) {
        }
    } else {
        EXPECT_FALSE(range.error().empty());
    }

    // Sharded query over the same file: false => non-empty error.
    const auto dict = testDictionary();
    query::Query q;
    q.fold.kind = query::FoldKind::States;
    query::Table table;
    std::string error;
    if (!query::runQueryFileSharded(path, dict, q, 4, table,
                                    error)) {
        EXPECT_FALSE(error.empty());
    }
}

} // namespace

TEST(ReaderFuzz, DeterministicHeaderCorruptions)
{
    const std::string path = test::tempPath("supmon_reader_fuzz_hdr.smtr");
    const auto events = validEvents(50, 1);
    ASSERT_TRUE(trace::saveTrace(path, events, 77));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));
    ASSERT_GE(good.size(), 24u);

    const struct
    {
        const char *what;
        std::size_t offset;
        unsigned char value;
        const char *expectError; // substring of reader.error()
    } cases[] = {
        {"magic byte 0", 0, 'X', "bad magic"},
        {"magic byte 3", 3, 0x00, "bad magic"},
        {"future version", 4, 0x7f, "version"},
        {"version zero", 4, 0x00, "version"},
        // Count low byte +1: declared records exceed the payload.
        {"count grown", 16,
         static_cast<unsigned char>(good[16] + 1), "truncated"},
    };
    for (const auto &c : cases) {
        auto bytes = good;
        bytes[c.offset] = c.value;
        ASSERT_TRUE(writeFile(path, bytes));
        trace::TraceReader reader(path);
        EXPECT_FALSE(reader.ok()) << c.what;
        EXPECT_NE(reader.error().find(c.expectError),
                  std::string::npos)
            << c.what << ": " << reader.error();
        exerciseReaders(path, c.what);
    }
    std::remove(path.c_str());
}

TEST(ReaderFuzz, SeededTruncationsEveryBoundary)
{
    const std::string path = test::tempPath("supmon_reader_fuzz_trunc.smtr");
    const auto events = validEvents(40, 2);
    ASSERT_TRUE(trace::saveTrace(path, events));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));

    // Every truncation length across the header and the first few
    // records, then seeded random lengths across the rest.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len < 24 + 3 * 24; ++len)
        lengths.push_back(len);
    sim::Random rng(sim::deriveSeed(20260809, 2));
    for (int i = 0; i < 60; ++i)
        lengths.push_back(static_cast<std::size_t>(
            rng.uniformInt(0, good.size() - 1)));

    for (const std::size_t len : lengths) {
        auto bytes = good;
        bytes.resize(len);
        ASSERT_TRUE(writeFile(path, bytes));
        trace::TraceReader reader(path);
        // A truncated file can never stream cleanly to the declared
        // count: either the header validation rejects it up front or
        // the stream ends in an error.
        if (reader.ok()) {
            TraceEvent ev;
            while (reader.next(ev)) {
            }
            EXPECT_FALSE(reader.error().empty())
                << "length " << len << " streamed cleanly";
        }
        exerciseReaders(path,
                        "truncated to " + std::to_string(len));
    }
    std::remove(path.c_str());
}

TEST(ReaderFuzz, SeededBitFlipsAndGarbage)
{
    const std::string path = test::tempPath("supmon_reader_fuzz_bits.smtr");
    const auto events = validEvents(64, 3);
    ASSERT_TRUE(trace::saveTrace(path, events));
    std::vector<unsigned char> good;
    ASSERT_TRUE(readFile(path, good));

    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        sim::Random rng(sim::deriveSeed(20260810, seed));
        auto bytes = good;
        const unsigned kind =
            static_cast<unsigned>(rng.uniformInt(0, 3));
        std::string what;
        switch (kind) {
          case 0: { // random bit flips anywhere
            const unsigned flips =
                static_cast<unsigned>(rng.uniformInt(1, 8));
            for (unsigned i = 0; i < flips; ++i) {
                const std::size_t at = static_cast<std::size_t>(
                    rng.uniformInt(0, bytes.size() - 1));
                bytes[at] ^= static_cast<unsigned char>(
                    1u << rng.uniformInt(0, 7));
            }
            what = "bit flips";
            break;
          }
          case 1: { // full random garbage, random length
            bytes.resize(
                static_cast<std::size_t>(rng.uniformInt(0, 400)));
            for (auto &b : bytes)
                b = static_cast<unsigned char>(
                    rng.uniformInt(0, 255));
            what = "garbage";
            break;
          }
          case 2: { // partial record appended to a valid file
            const unsigned extra =
                static_cast<unsigned>(rng.uniformInt(1, 23));
            for (unsigned i = 0; i < extra; ++i)
                bytes.push_back(static_cast<unsigned char>(
                    rng.uniformInt(0, 255)));
            what = "partial tail";
            break;
          }
          default: { // header count scrambled entirely
            for (std::size_t at = 16; at < 24; ++at)
                bytes[at] = static_cast<unsigned char>(
                    rng.uniformInt(0, 255));
            what = "scrambled count";
            break;
          }
        }
        ASSERT_TRUE(writeFile(path, bytes));
        exerciseReaders(path, what + " seed " +
                                  std::to_string(seed));
        if (kind == 2) {
            // The ragged tail must be rejected up front, not
            // silently ignored: the payload is no longer a whole
            // number of declared records.
            trace::TraceReader reader(path);
            EXPECT_FALSE(reader.ok()) << "partial tail accepted";
        }
    }
    std::remove(path.c_str());
}

TEST(ReaderFuzz, MissingAndEmptyFiles)
{
    exerciseReaders(test::tempPath("supmon_reader_fuzz_missing.smtr"),
                    "missing file");
    const std::string path = test::tempPath("supmon_reader_fuzz_empty.smtr");
    ASSERT_TRUE(writeFile(path, {}));
    trace::TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    exerciseReaders(path, "empty file");
    std::remove(path.c_str());
}
