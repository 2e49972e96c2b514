#include "query.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace supmon
{
namespace query
{

namespace
{

std::vector<std::string>
splitStages(const std::string &text)
{
    std::vector<std::string> stages;
    std::string current;
    for (char c : text) {
        if (c == '|') {
            stages.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    stages.push_back(current);
    return stages;
}

std::vector<std::string>
splitWords(const std::string &text)
{
    std::vector<std::string> words;
    std::istringstream is(text);
    std::string word;
    while (is >> word)
        words.push_back(word);
    return words;
}

/** Split "key=value"; false if there is no '='. */
bool
splitKeyValue(const std::string &word, std::string &key,
              std::string &value)
{
    const auto eq = word.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = word.substr(0, eq);
    value = word.substr(eq + 1);
    return true;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &value)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    return end && *end == '\0';
}

ParseResult
fail(const std::string &message)
{
    ParseResult res;
    res.error = message;
    return res;
}

bool
parseFilter(const std::vector<std::string> &words, FilterSpec &spec,
            std::string &error)
{
    if (words.size() < 2) {
        error = "filter needs at least one key=value predicate";
        return false;
    }
    for (std::size_t i = 1; i < words.size(); ++i) {
        std::string key, value;
        if (!splitKeyValue(words[i], key, value)) {
            error = "filter: expected key=value, got '" + words[i] +
                    "'";
            return false;
        }
        if (key == "stream") {
            spec.streamPatterns.push_back(value);
        } else if (key == "token") {
            spec.tokenPatterns.push_back(value);
        } else if (key == "from" || key == "to") {
            const bool from = key == "from";
            if (!parseTime(value, from ? spec.from : spec.to)) {
                error = "filter: bad time '" + value + "'";
                return false;
            }
            (from ? spec.hasFrom : spec.hasTo) = true;
        } else if (key == "param") {
            std::uint64_t lo = 0;
            std::uint64_t hi = 0;
            if (!parseRange(value, lo, hi) ||
                hi > 0xffffffffull) {
                error = "filter: bad param '" + value + "'";
                return false;
            }
            spec.hasParam = true;
            spec.paramLo = static_cast<std::uint32_t>(lo);
            spec.paramHi = static_cast<std::uint32_t>(hi);
        } else {
            error = "filter: unknown key '" + key + "'";
            return false;
        }
    }
    return true;
}

bool
parseWindow(const std::vector<std::string> &words, WindowSpec &spec,
            std::string &error)
{
    if (words.size() != 2 &&
        !(words.size() == 4 && words[2] == "slide")) {
        error = "window: expected 'window SIZE [slide STEP]'";
        return false;
    }
    if (!parseTime(words[1], spec.size) || spec.size == 0) {
        error = "window: bad size '" + words[1] + "'";
        return false;
    }
    spec.step = spec.size;
    if (words.size() == 4 &&
        (!parseTime(words[3], spec.step) || spec.step == 0)) {
        error = "window: bad slide step '" + words[3] + "'";
        return false;
    }
    return true;
}

bool
parseFold(const std::vector<std::string> &words, FoldSpec &spec,
          std::string &error)
{
    const std::string &kind = words[0];
    if (kind == "count" || kind == "states") {
        spec.kind = kind == "count" ? FoldKind::Count : FoldKind::States;
        if (words.size() > 1) {
            error = kind + " takes no options";
            return false;
        }
        return true;
    }
    for (std::size_t i = 1; i < words.size(); ++i) {
        std::string key, value;
        if (!splitKeyValue(words[i], key, value)) {
            error = kind + ": expected key=value, got '" + words[i] +
                    "'";
            return false;
        }
        if (kind == "utilization" && key == "state") {
            spec.state = value;
        } else if (kind == "latency" && key == "bins") {
            std::uint64_t bins = 0;
            if (!parseUnsigned(value, bins) || bins == 0 ||
                bins > 4096) {
                error = "latency: bad bins '" + value + "'";
                return false;
            }
            spec.bins = static_cast<std::size_t>(bins);
        } else if (kind == "latency" && key == "max") {
            if (!parseTime(value, spec.histMax) ||
                spec.histMax == 0) {
                error = "latency: bad max '" + value + "'";
                return false;
            }
        } else if (kind == "rtt" && key == "begin") {
            spec.beginPattern = value;
        } else if (kind == "rtt" && key == "end") {
            spec.endPattern = value;
        } else {
            error = kind + ": unknown key '" + key + "'";
            return false;
        }
    }
    if (kind == "utilization") {
        spec.kind = FoldKind::Utilization;
    } else if (kind == "latency") {
        spec.kind = FoldKind::Latency;
    } else if (kind == "rtt") {
        spec.kind = FoldKind::Rtt;
        if (spec.beginPattern.empty() || spec.endPattern.empty()) {
            error = "rtt needs begin=PAT and end=PAT";
            return false;
        }
    } else {
        return false; // not a fold stage
    }
    return true;
}

} // namespace

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative glob with single-star backtracking.
    std::size_t p = 0;
    std::size_t t = 0;
    std::size_t star = std::string::npos;
    std::size_t mark = 0;
    auto lower = [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    };
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == '.' ||
             lower(pattern[p]) == lower(text[t]))) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool
parseTime(const std::string &text, sim::Tick &ticks)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0.0 || !std::isfinite(value))
        return false;
    const std::string suffix(end);
    double scale = 1.0;
    if (suffix == "ns" || suffix.empty())
        scale = 1.0;
    else if (suffix == "us")
        scale = 1e3;
    else if (suffix == "ms")
        scale = 1e6;
    else if (suffix == "s")
        scale = 1e9;
    else
        return false;
    ticks = static_cast<sim::Tick>(value * scale + 0.5);
    return true;
}

bool
parseRange(const std::string &text, std::uint64_t &lo,
           std::uint64_t &hi)
{
    const auto dash = text.find('-');
    if (dash == std::string::npos) {
        if (!parseUnsigned(text, lo))
            return false;
        hi = lo;
        return true;
    }
    return parseUnsigned(text.substr(0, dash), lo) &&
           parseUnsigned(text.substr(dash + 1), hi) && lo <= hi;
}

ParseResult
parseQuery(const std::string &text)
{
    ParseResult res;
    bool haveFold = false;
    for (const std::string &stage : splitStages(text)) {
        const auto words = splitWords(stage);
        if (words.empty())
            return fail("empty stage (stray '|'?)");
        if (haveFold)
            return fail("the fold must be the last stage");
        std::string error;
        if (words[0] == "filter") {
            FilterSpec spec;
            if (!parseFilter(words, spec, error))
                return fail(error);
            res.query.filters.push_back(std::move(spec));
        } else if (words[0] == "window") {
            if (res.query.window)
                return fail("only one window stage is allowed");
            WindowSpec spec;
            if (!parseWindow(words, spec, error))
                return fail(error);
            res.query.window = spec;
        } else if (words[0] == "count" || words[0] == "states" ||
                   words[0] == "utilization" ||
                   words[0] == "latency" || words[0] == "rtt") {
            if (!parseFold(words, res.query.fold, error))
                return fail(error);
            haveFold = true;
        } else {
            return fail("unknown stage '" + words[0] + "'");
        }
    }
    if (!haveFold)
        res.query.fold.kind = FoldKind::Count;
    res.ok = true;
    return res;
}

} // namespace query
} // namespace supmon
