/**
 * @file
 * The trace query language: a small textual syntax, in the spirit of
 * the TDL/POET companions of the SIMPLE evaluation package, that
 * describes a streaming pipeline over an event trace:
 *
 *     filter stream=servant.* token=evWork* | window 10ms | utilization
 *
 * Stages are separated by '|':
 *
 *  - `filter key=value...` — keep only matching events. Keys:
 *      stream=PAT   stream id, id range `a-b`, or name pattern
 *      token=PAT    event name pattern, decimal or 0x-hex token
 *      from=TIME    keep events at or after TIME
 *      to=TIME      keep events strictly before TIME
 *      param=N|a-b  event parameter value or inclusive range
 *    Repeated keys OR within the key; repeated filter stages AND.
 *  - `window SIZE [slide STEP]` — fixed tick windows of SIZE, or
 *    sliding windows advancing by STEP. Windows start at the filter's
 *    `from` time (or the first event seen).
 *  - exactly one fold sink, last:
 *      count                          events per (window,stream,event)
 *      states                         per (stream,state) duration
 *                                     statistics and time share
 *      utilization [state=NAME]       fraction of the range (or of
 *                                     each window) spent in NAME
 *                                     per stream (default WORK)
 *      latency [bins=N] [max=TIME]    inter-event gaps per stream:
 *                                     summary, or histogram with bins
 *      rtt begin=PAT end=PAT          begin->end round-trip times
 *                                     keyed on the event parameter
 *                                     (e.g. the job id)
 *
 * TIME is a number with an optional ns/us/ms/s suffix (default ns).
 * Name patterns match case-insensitively with `*` (any run) and
 * `?`/`.` (any one character); token patterns match both the display
 * name ("Work Begin") and the identifier form ("evWorkBegin").
 *
 * The state-based folds (`states`, `utilization`) run the activity
 * state machine over the events that survive the filters: a stream=
 * filter leaves per-stream state intact (streams are independent),
 * but a token= filter changes which state transitions the fold sees.
 */

#ifndef QUERY_QUERY_HH
#define QUERY_QUERY_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace supmon
{
namespace query
{

/** One `filter` stage; empty pattern lists match everything. */
struct FilterSpec
{
    std::vector<std::string> streamPatterns;
    std::vector<std::string> tokenPatterns;
    bool hasFrom = false;
    bool hasTo = false;
    sim::Tick from = 0;
    sim::Tick to = 0;
    bool hasParam = false;
    std::uint32_t paramLo = 0;
    std::uint32_t paramHi = 0;
};

/** A `window` stage; step == size means fixed windows. */
struct WindowSpec
{
    sim::Tick size = 0;
    sim::Tick step = 0;
};

enum class FoldKind
{
    Count,
    States,
    Utilization,
    Latency,
    Rtt,
};

struct FoldSpec
{
    FoldKind kind = FoldKind::Count;
    /** Utilization: the activity state measured. */
    std::string state = "WORK";
    /** Rtt: begin/end event patterns. */
    std::string beginPattern;
    std::string endPattern;
    /** Latency: histogram bins (0 = summary statistics only). */
    std::size_t bins = 0;
    /** Latency: histogram range [0, histMax). */
    sim::Tick histMax = sim::milliseconds(100);
};

struct Query
{
    std::vector<FilterSpec> filters;
    std::optional<WindowSpec> window;
    FoldSpec fold;
};

struct ParseResult
{
    bool ok = false;
    std::string error;
    Query query;
};

/** Parse the textual query syntax described above. */
ParseResult parseQuery(const std::string &text);

/**
 * Case-insensitive name pattern match: `*` matches any run of
 * characters, `?` and `.` match any single character.
 */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * Parse a time literal ("10ms", "2.5s", "100" = ns) into ticks.
 * @return false on malformed input.
 */
bool parseTime(const std::string &text, sim::Tick &ticks);

/** Parse "N" or "a-b" (decimal, a <= b) into an inclusive range. */
bool parseRange(const std::string &text, std::uint64_t &lo,
                std::uint64_t &hi);

} // namespace query
} // namespace supmon

#endif // QUERY_QUERY_HH
