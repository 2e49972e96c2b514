/**
 * @file
 * Crash-safe archive tests: journaled TraceWriter commits, torn-tail
 * salvage via recoverTruncated(), resuming an existing archive with
 * the ResumeExisting constructor, and the sticky ENOSPC injection
 * hook (WriterOptions::failAfterRecords).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

trace::TraceEvent
eventNumber(std::uint64_t n)
{
    trace::TraceEvent ev;
    ev.timestamp = n * 10;
    ev.token = static_cast<std::uint16_t>(0x0100 + (n & 0x3f));
    ev.param = static_cast<std::uint32_t>(n);
    ev.stream = static_cast<unsigned>(n % 4);
    return ev;
}

std::vector<trace::TraceEvent>
eventRange(std::uint64_t from, std::uint64_t to)
{
    std::vector<trace::TraceEvent> out;
    for (std::uint64_t i = from; i < to; ++i)
        out.push_back(eventNumber(i));
    return out;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = test::tempPath(name);
    ::unlink(path.c_str());
    return path;
}

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

/** Append @p extra garbage bytes — a torn tail record. */
void
appendGarbage(const std::string &path, std::size_t extra)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    for (std::size_t i = 0; i < extra; ++i)
        std::fputc(0x5a, f);
    std::fclose(f);
}

} // namespace

TEST(JournaledWriter, CommitMakesAppendedRecordsVisibleToReaders)
{
    const std::string path = tempPath("journal-commit.smtr");
    trace::WriterOptions opts;
    opts.journaled = true;
    opts.commitInterval = 8;
    trace::TraceWriter writer(path, 77, opts);
    ASSERT_TRUE(writer.ok()) << writer.error();

    const auto events = eventRange(0, 20);
    ASSERT_TRUE(writer.append(events.data(), events.size()));
    EXPECT_EQ(writer.written(), 20u);
    // 20 records and an 8-record interval: at least 16 committed by
    // the automatic journal, without any finish().
    EXPECT_GE(writer.committed(), 16u);

    // A concurrent reader sees exactly the committed floor.
    {
        trace::TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.declaredCount(), writer.committed());
        EXPECT_EQ(reader.seed(), 77u);
    }

    ASSERT_TRUE(writer.commit());
    EXPECT_EQ(writer.committed(), 20u);
    ASSERT_TRUE(writer.finish());

    const auto loaded = trace::loadTrace(path);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ((*loaded)[i], events[i]);
}

TEST(Recovery, AdoptsWholeUncommittedRecordsAndTrimsTornTail)
{
    const std::string path = tempPath("journal-recover.smtr");
    trace::WriterOptions opts;
    opts.journaled = true;
    opts.commitInterval = 8;
    {
        trace::TraceWriter writer(path, 5, opts);
        ASSERT_TRUE(writer.ok());
        const auto events = eventRange(0, 19);
        ASSERT_TRUE(writer.append(events.data(), events.size()));
        ASSERT_TRUE(writer.commit());
        // "Crash": release the FILE* without finish() by writing a
        // torn half-record past the end.
        ASSERT_TRUE(writer.finish());
    }
    appendGarbage(path, 13); // less than one 24-byte record

    const auto report = trace::recoverTruncated(path);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(report.records, 19u);
    EXPECT_EQ(report.truncatedBytes, 13u);

    // Idempotent: a clean file stays untouched.
    const std::uint64_t size = fileSize(path);
    const auto again = trace::recoverTruncated(path);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.repaired);
    EXPECT_EQ(again.records, 19u);
    EXPECT_EQ(fileSize(path), size);

    const auto loaded = trace::loadTrace(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), 19u);
}

TEST(Recovery, PatchesAStaleHeaderCountUpToWholeRecords)
{
    // A journaled writer that died between commits: the tail records
    // are whole on disk but the header undercounts them. Salvage
    // adopts the whole records instead of discarding them.
    const std::string path = tempPath("journal-stale.smtr");
    {
        trace::TraceWriter writer(path, 3);
        ASSERT_TRUE(writer.ok());
        const auto events = eventRange(0, 12);
        ASSERT_TRUE(writer.append(events.data(), events.size()));
        ASSERT_TRUE(writer.finish());
    }
    {
        // Rewind the header count to 5 — the state a crash leaves
        // when 7 more records hit the disk after the last commit.
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const std::uint64_t stale = 5;
        ASSERT_EQ(std::fseek(f, 24 - 8, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&stale, sizeof(stale), 1, f), 1u);
        std::fclose(f);
    }

    const auto report = trace::recoverTruncated(path);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(report.declaredBefore, 5u);
    EXPECT_EQ(report.records, 12u);
    EXPECT_EQ(report.truncatedBytes, 0u);

    const auto loaded = trace::loadTrace(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), 12u);
}

TEST(Recovery, ResumeExistingAppendsAfterTheSalvagedTail)
{
    const std::string path = tempPath("journal-resume.smtr");
    const auto first = eventRange(0, 10);
    const auto second = eventRange(10, 25);
    {
        trace::WriterOptions opts;
        opts.journaled = true;
        trace::TraceWriter writer(path, 41, opts);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(first.data(), first.size()));
        ASSERT_TRUE(writer.finish());
    }
    appendGarbage(path, 7);
    {
        trace::TraceWriter writer(trace::ResumeExisting{}, path, {});
        ASSERT_TRUE(writer.ok()) << writer.error();
        EXPECT_EQ(writer.written(), 10u);
        EXPECT_EQ(writer.seed(), 41u); // original header seed kept
        ASSERT_TRUE(writer.append(second.data(), second.size()));
        ASSERT_TRUE(writer.finish());
    }

    // The resumed file is byte-identical to one written in a single
    // uninterrupted run.
    const std::string oneShot = tempPath("journal-oneshot.smtr");
    {
        trace::TraceWriter writer(oneShot, 41);
        ASSERT_TRUE(writer.ok());
        const auto all = eventRange(0, 25);
        ASSERT_TRUE(writer.append(all.data(), all.size()));
        ASSERT_TRUE(writer.finish());
    }
    std::vector<unsigned char> a, b;
    for (const auto *p : {&path, &oneShot}) {
        std::FILE *f = std::fopen(p->c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::vector<unsigned char> bytes;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<unsigned char>(c));
        std::fclose(f);
        (p == &path ? a : b) = bytes;
    }
    EXPECT_EQ(a, b);
}

TEST(Recovery, ResumingAMissingFileFails)
{
    const std::string path = tempPath("journal-missing.smtr");
    trace::TraceWriter writer(trace::ResumeExisting{}, path, {});
    EXPECT_FALSE(writer.ok());
}

TEST(JournaledWriter, EnospcHookFailsStickilyAtTheConfiguredRecord)
{
    const std::string path = tempPath("journal-enospc.smtr");
    trace::WriterOptions opts;
    opts.journaled = true;
    opts.commitInterval = 4;
    opts.failAfterRecords = 10;
    trace::TraceWriter writer(path, 9, opts);
    ASSERT_TRUE(writer.ok());

    const auto events = eventRange(0, 30);
    // The first 10 records fit; the 11th hits the "full disk".
    EXPECT_TRUE(writer.append(events.data(), 10));
    EXPECT_EQ(writer.written(), 10u);
    EXPECT_FALSE(writer.append(events.data() + 10, 1));
    EXPECT_FALSE(writer.ok());
    // Sticky: later appends and commits keep failing, and the
    // committed floor never climbs past what really hit the disk.
    EXPECT_FALSE(writer.append(events.data() + 11, 5));
    EXPECT_FALSE(writer.commit());
    EXPECT_LE(writer.committed(), 10u);

    // What was committed before the wall is still a readable trace.
    const auto report = trace::recoverTruncated(path);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_LE(report.records, 10u);
}
