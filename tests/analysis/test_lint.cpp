/**
 * @file
 * Instrumentation-linter tests: fixture snippets with one known
 * defect each must produce exactly the expected finding, and a
 * defect-free fixture none (analysis/lint.hh). Also covers the
 * finding model itself (format, baseline, exit status).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/finding.hh"
#include "analysis/lint.hh"
#include "analysis/sourcescan.hh"
#include "temp_dir.hh"

using namespace supmon;
using analysis::Finding;
using analysis::Severity;
using analysis::SourceIndex;

namespace
{

/** A complete, consistent instrumentation fixture: one Begin state
 *  token and one Point token, both declared, emitted, in the
 *  dictionary, and inspected by a validator rule. */
SourceIndex
cleanFixture()
{
    SourceIndex index;
    analysis::scanSource("src/x/events.hh",
                         "enum Token : std::uint16_t {\n"
                         "    evWorkBegin = 0x0101,\n"
                         "    evWorkEnd = 0x0102,\n"
                         "};\n",
                         index);
    analysis::scanSource(
        "src/x/events.cc",
        "dict.defineBegin(evWorkBegin, \"Work\", \"WORK\");\n"
        "dict.definePoint(evWorkEnd, \"Work End\");\n",
        index);
    analysis::scanSource("src/x/workers.cc",
                         "co_await mon(evWorkBegin, job);\n"
                         "co_await mon(evWorkEnd, job);\n",
                         index);
    analysis::scanSource("src/validate/rules.cc",
                         "case evWorkEnd: ++ends; break;\n", index);
    return index;
}

std::vector<Finding>
withCheck(const std::vector<Finding> &findings,
          const std::string &check)
{
    std::vector<Finding> out;
    for (const auto &f : findings) {
        if (f.check == check)
            out.push_back(f);
    }
    return out;
}

} // namespace

TEST(Lint, CleanFixtureHasNoFindings)
{
    const auto findings =
        analysis::lintInstrumentation(cleanFixture());
    EXPECT_TRUE(findings.empty())
        << analysis::formatText(findings);
}

TEST(Lint, UndeclaredEmittedTokenIsAnError)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/extra.cc",
                         "co_await mon(evGhost, 0);\n", index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "undeclared-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evGhost");
    EXPECT_EQ(hits[0].severity, Severity::Error);
    EXPECT_EQ(hits[0].location, "src/x/extra.cc:1");
}

TEST(Lint, DeclaredButNeverEmittedTokenIsFlagged)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.hh",
                         "enum More : std::uint16_t {\n"
                         "    evStale = 0x0103,\n"
                         "};\n",
                         index);
    analysis::scanSource("src/x/more.cc",
                         "dict.definePoint(evStale, \"Stale\");\n",
                         index);
    analysis::scanSource("src/validate/rules.cc",
                         "case evStale: break;\n", index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "unused-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evStale");
}

TEST(Lint, TokenMissingFromEveryDictionaryIsFlagged)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.hh",
                         "enum More : std::uint16_t {\n"
                         "    evHidden = 0x0103,\n"
                         "};\n",
                         index);
    analysis::scanSource("src/x/more.cc",
                         "co_await mon(evHidden, 0);\n", index);
    analysis::scanSource("src/validate/rules.cc",
                         "case evHidden: break;\n", index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "undocumented-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evHidden");
}

TEST(Lint, DictionaryEntryForUnknownTokenIsAnError)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.cc",
                         "dict.definePoint(evInvented, \"?\");\n",
                         index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "dictionary-unknown");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evInvented");
    EXPECT_EQ(hits[0].severity, Severity::Error);
}

TEST(Lint, DuplicateDictionaryDefinitionIsAnError)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.cc",
                         "dict.definePoint(evWorkEnd, \"Again\");\n",
                         index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "dictionary-duplicate");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evWorkEnd");
}

TEST(Lint, TwoTokensSharingAValueIsAnError)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.hh",
                         "enum More : std::uint16_t {\n"
                         "    evClash = 0x0101,\n"
                         "};\n",
                         index);
    analysis::scanSource("src/x/more.cc",
                         "dict.definePoint(evClash, \"Clash\");\n"
                         "co_await mon(evClash, 0);\n",
                         index);
    analysis::scanSource("src/validate/rules.cc",
                         "case evClash: break;\n", index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "token-collision");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evClash");
    EXPECT_NE(hits[0].message.find("evWorkBegin"),
              std::string::npos);
}

TEST(Lint, EndTokenWithoutBeginIsUnbalanced)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.hh",
                         "enum More : std::uint16_t {\n"
                         "    evLoneEnd = 0x0103,\n"
                         "};\n",
                         index);
    analysis::scanSource("src/x/more.cc",
                         "dict.definePoint(evLoneEnd, \"Lone\");\n"
                         "co_await mon(evLoneEnd, 0);\n",
                         index);
    analysis::scanSource("src/validate/rules.cc",
                         "case evLoneEnd: break;\n", index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "unbalanced-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evLoneEnd");
}

TEST(Lint, PairedEndDefinedAsBeginIsUnbalanced)
{
    // The fixture's End redefined as a state-entering Begin event.
    SourceIndex bad;
    analysis::scanSource("src/x/events.hh",
                         "enum Token : std::uint16_t {\n"
                         "    evWorkBegin = 0x0101,\n"
                         "    evWorkEnd = 0x0102,\n"
                         "};\n",
                         bad);
    analysis::scanSource(
        "src/x/events.cc",
        "dict.defineBegin(evWorkBegin, \"Work\", \"WORK\");\n"
        "dict.defineBegin(evWorkEnd, \"Work End\", \"END\");\n",
        bad);
    analysis::scanSource("src/x/workers.cc",
                         "co_await mon(evWorkBegin, job);\n"
                         "co_await mon(evWorkEnd, job);\n",
                         bad);
    analysis::scanSource("src/validate/rules.cc",
                         "case evWorkEnd: break;\n", bad);
    const auto hits = withCheck(analysis::lintInstrumentation(bad),
                                "unbalanced-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evWorkEnd");
}

TEST(Lint, PointTokenNoRuleInspectsIsACoverageGap)
{
    SourceIndex index = cleanFixture();
    analysis::scanSource("src/x/more.hh",
                         "enum More : std::uint16_t {\n"
                         "    evUnwatched = 0x0103,\n"
                         "};\n",
                         index);
    analysis::scanSource(
        "src/x/more.cc",
        "dict.definePoint(evUnwatched, \"Unwatched\");\n"
        "co_await mon(evUnwatched, 0);\n",
        index);
    const auto hits = withCheck(
        analysis::lintInstrumentation(index), "unchecked-token");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].object, "evUnwatched");
}

TEST(Lint, BeginTokensAreExemptFromCoverage)
{
    // cleanFixture()'s evWorkBegin has no validator mention, yet the
    // clean fixture produces no findings: Begin tokens are inspected
    // generically by the dictionary-driven rules.
    const auto hits =
        withCheck(analysis::lintInstrumentation(cleanFixture()),
                  "unchecked-token");
    EXPECT_TRUE(hits.empty());
}

// ---------------------------------------------------------------------
// finding model: format, baseline, exit status
// ---------------------------------------------------------------------

TEST(Findings, SortMostSevereFirst)
{
    std::vector<Finding> f = {
        {"b-check", Severity::Note, "n", "", "note"},
        {"a-check", Severity::Warning, "w", "", "warn"},
        {"c-check", Severity::Error, "e", "", "err"},
    };
    analysis::sortFindings(f);
    EXPECT_EQ(f[0].severity, Severity::Error);
    EXPECT_EQ(f[1].severity, Severity::Warning);
    EXPECT_EQ(f[2].severity, Severity::Note);
}

TEST(Findings, ExitStatusIgnoresNotes)
{
    std::vector<Finding> notes = {
        {"x", Severity::Note, "n", "", "m"}};
    EXPECT_EQ(analysis::exitStatus({}), 0);
    EXPECT_EQ(analysis::exitStatus(notes), 0);
    notes.push_back({"x", Severity::Warning, "w", "", "m"});
    EXPECT_EQ(analysis::exitStatus(notes), 1);
}

TEST(Findings, BaselineSuppressesByStableKey)
{
    std::vector<Finding> f = {
        {"queue-capacity", Severity::Warning, "pixel-queue",
         "src/a.cc:1", "too small"},
        {"unused-token", Severity::Warning, "evStale", "src/b.hh:2",
         "stale"},
    };
    const std::string path = test::tempPath("tracelint_baseline_test.txt");
    {
        std::ofstream out(path);
        out << "# the paper's historical v3 queue constant\n";
        out << "queue-capacity:pixel-queue\n";
    }
    std::set<std::string> keys;
    std::string error;
    ASSERT_TRUE(analysis::loadBaseline(path, keys, error)) << error;
    EXPECT_EQ(analysis::applyBaseline(f, keys), 1u);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0].object, "evStale");
    std::remove(path.c_str());
}

TEST(Findings, MissingBaselineFileIsAnError)
{
    std::set<std::string> keys;
    std::string error;
    EXPECT_FALSE(analysis::loadBaseline("/nonexistent/baseline.txt",
                                        keys, error));
    EXPECT_FALSE(error.empty());
}

TEST(Findings, JsonContainsEveryField)
{
    const std::vector<Finding> f = {{"queue-capacity",
                                     Severity::Warning, "pixel-queue",
                                     "src/a.cc:1",
                                     "say \"hi\"\\"}};
    const std::string json = analysis::formatJson(f);
    EXPECT_NE(json.find("\"check\": \"queue-capacity\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"warning\""),
              std::string::npos);
    EXPECT_NE(json.find("\"object\": \"pixel-queue\""),
              std::string::npos);
    // Quotes and backslashes in the message must be escaped.
    EXPECT_NE(json.find("say \\\"hi\\\"\\\\"), std::string::npos);
}
