#include "engine.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "query/sharded.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

namespace
{

bool
allDigits(const std::string &s)
{
    return !s.empty() &&
           std::all_of(s.begin(), s.end(), [](char c) {
               return std::isdigit(static_cast<unsigned char>(c));
           });
}

/** "N" or "a-b" stream id range; false if not numeric. */
bool
numericStreamRange(const std::string &pattern, unsigned &lo,
                   unsigned &hi)
{
    const auto dash = pattern.find('-');
    if (dash == std::string::npos) {
        if (!allDigits(pattern))
            return false;
        lo = hi = static_cast<unsigned>(
            std::strtoul(pattern.c_str(), nullptr, 10));
        return true;
    }
    const std::string a = pattern.substr(0, dash);
    const std::string b = pattern.substr(dash + 1);
    if (!allDigits(a) || !allDigits(b))
        return false;
    lo = static_cast<unsigned>(std::strtoul(a.c_str(), nullptr, 10));
    hi = static_cast<unsigned>(std::strtoul(b.c_str(), nullptr, 10));
    return lo <= hi;
}

/** Flat stream-match cache covers ids below this; rest use a map
 *  (a hostile trace can carry any 32-bit stream id). */
constexpr unsigned streamCacheLimit = 1u << 16;

} // namespace

bool
FilterChain::CompiledFilter::streamAccepted(
    unsigned stream, const trace::EventDictionary &dict)
{
    // Resolve the patterns against this stream once; later events on
    // the stream are one flat-table load.
    bool match = false;
    for (const auto &pattern : streamPatterns) {
        unsigned lo = 0;
        unsigned hi = 0;
        if (numericStreamRange(pattern, lo, hi)
                ? (stream >= lo && stream <= hi)
                : globMatch(pattern, dict.streamName(stream))) {
            match = true;
            break;
        }
    }
    if (stream < streamCacheLimit) {
        if (stream >= streamCache.size())
            streamCache.resize(
                std::min<std::size_t>(
                    std::max<std::size_t>(stream + 1,
                                          streamCache.size() * 2),
                    streamCacheLimit),
                -1);
        streamCache[stream] = match ? 1 : 0;
    } else {
        streamMatchBig.emplace(stream, match);
    }
    return match;
}

bool
FilterChain::CompiledFilter::accepts(
    const trace::TraceEvent &ev, const trace::EventDictionary &dict)
{
    if (hasFrom && ev.timestamp < from)
        return false;
    if (hasTo && ev.timestamp >= to)
        return false;
    if (hasParam && (ev.param < paramLo || ev.param > paramHi))
        return false;
    if (hasTokenFilter && !tokens.contains(ev.token))
        return false;
    if (!streamPatterns.empty()) {
        if (ev.stream < streamCache.size()) {
            const std::int8_t cached = streamCache[ev.stream];
            if (cached >= 0)
                return cached != 0;
        } else if (ev.stream >= streamCacheLimit) {
            auto it = streamMatchBig.find(ev.stream);
            if (it != streamMatchBig.end())
                return it->second;
        }
        return streamAccepted(ev.stream, dict);
    }
    return true;
}

FilterChain::FilterChain(const Query &query,
                         const trace::EventDictionary &dict)
    : dictionary(dict)
{
    for (const FilterSpec &spec : query.filters) {
        CompiledFilter filter;
        filter.hasTokenFilter = !spec.tokenPatterns.empty();
        for (const auto &pattern : spec.tokenPatterns)
            filter.tokens.add(pattern, dict);
        filter.streamPatterns = spec.streamPatterns;
        filter.hasFrom = spec.hasFrom;
        filter.hasTo = spec.hasTo;
        filter.from = spec.from;
        filter.to = spec.to;
        filter.hasParam = spec.hasParam;
        filter.paramLo = spec.paramLo;
        filter.paramHi = spec.paramHi;
        filters.push_back(std::move(filter));
    }
}

bool
FilterChain::accepts(const trace::TraceEvent &ev)
{
    for (auto &filter : filters) {
        if (!filter.accepts(ev, dictionary))
            return false;
    }
    return true;
}

std::size_t
FilterChain::filterBatch(trace::TraceEvent *events, std::size_t n)
{
    if (filters.empty())
        return n;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (accepts(events[i])) {
            if (kept != i)
                events[kept] = events[i];
            ++kept;
        }
    }
    return kept;
}

std::size_t
FilterChain::filterDecodeBatch(const unsigned char *raw,
                               std::size_t n, trace::TraceEvent *out)
{
    std::size_t kept = 0;
    trace::TraceEvent ev;
    // The dominant query shape — one filter stage testing tokens
    // and/or streams, no time/param range — gets a specialized loop
    // with the stage state hoisted: per record that is the three
    // decode loads, one bitmap test, and one flat cache load,
    // instead of re-walking the stage list and its feature flags.
    if (filters.size() == 1 && !filters[0].hasFrom &&
        !filters[0].hasTo && !filters[0].hasParam) {
        CompiledFilter &f = filters[0];
        const TokenSet *tokens =
            f.hasTokenFilter ? &f.tokens : nullptr;
        const bool hasStreams = !f.streamPatterns.empty();
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            if (tokens && !tokens->contains(ev.token))
                continue;
            if (hasStreams) {
                // Flat cache hit is the steady state; the first
                // sighting of a stream takes the full resolver
                // (which also fills the cache, so the size/data
                // loads below see the grown vector next time).
                bool match;
                if (ev.stream < f.streamCache.size() &&
                    f.streamCache[ev.stream] >= 0)
                    match = f.streamCache[ev.stream] != 0;
                else if (ev.stream >= streamCacheLimit &&
                         f.streamMatchBig.count(ev.stream))
                    match = f.streamMatchBig.at(ev.stream);
                else
                    match = f.streamAccepted(ev.stream, dictionary);
                if (!match)
                    continue;
            }
            out[kept++] = ev;
        }
        return kept;
    }
    for (std::size_t i = 0; i < n;
         ++i, raw += trace::TraceReader::recordBytes) {
        trace::TraceReader::decodeRecord(raw, ev);
        if (accepts(ev))
            out[kept++] = ev;
    }
    return kept;
}

FoldContext
makeFoldContext(const Query &query,
                const trace::EventDictionary &dict,
                sim::Tick trace_end, const FilterSpec *range)
{
    FoldContext ctx;
    ctx.dict = &dict;
    ctx.window = query.window;
    ctx.traceEnd = trace_end;
    // Compile the activity state machine once; every shard and the
    // merge of a run share it read-only.
    if (query.fold.kind == FoldKind::States ||
        query.fold.kind == FoldKind::Utilization)
        ctx.stateTable = StateTable::compile(dict);
    // The narrowest explicit time range across all filter stages
    // (and the extra range) becomes the fold's evaluation range.
    const auto narrow = [&ctx](const FilterSpec &spec) {
        if (spec.hasFrom &&
            (!ctx.hasFrom || spec.from > ctx.from)) {
            ctx.hasFrom = true;
            ctx.from = spec.from;
        }
        if (spec.hasTo && (!ctx.hasTo || spec.to < ctx.to)) {
            ctx.hasTo = true;
            ctx.to = spec.to;
        }
    };
    for (const FilterSpec &spec : query.filters)
        narrow(spec);
    if (range)
        narrow(*range);
    return ctx;
}

Table
runQuery(const std::vector<trace::TraceEvent> &events,
         const trace::EventDictionary &dict, const Query &query,
         sim::Tick trace_end)
{
    return runQuerySharded(events, dict, query, 1, trace_end);
}

Table
runPhaseQuery(const std::vector<trace::TraceEvent> &events,
              const trace::EventDictionary &dict, const Query &query,
              sim::Tick begin, sim::Tick end)
{
    FilterSpec phase;
    phase.hasFrom = true;
    phase.from = begin;
    phase.hasTo = true;
    phase.to = end;
    Query effective = query;
    if (query.fold.kind != FoldKind::States &&
        query.fold.kind != FoldKind::Utilization)
        effective.filters.push_back(phase);
    return runQuerySharded(events, dict, effective, 1, end, &phase);
}

bool
runQueryFile(const std::string &path,
             const trace::EventDictionary &dict, const Query &query,
             Table &out, std::string &error, sim::Tick trace_end)
{
    return runQueryFileSharded(path, dict, query, 1, out, error,
                               trace_end);
}

} // namespace query
} // namespace supmon
