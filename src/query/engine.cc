#include "engine.hh"

#include "query/sharded.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

bool
FilterChain::CompiledFilter::streamAccepted(
    unsigned stream, const trace::EventDictionary &dict) const
{
    for (const auto &pattern : spec.streamPatterns) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        if (parseRange(pattern, lo, hi)
                ? (stream >= lo && stream <= hi)
                : globMatch(pattern, dict.streamName(stream)))
            return true;
    }
    return false;
}

bool
FilterChain::CompiledFilter::streamMatches(
    unsigned stream, const trace::EventDictionary &dict)
{
    // Resolve the patterns against a stream once; later events on
    // the stream are one table load.
    std::int8_t &cached = streamCache[stream];
    if (cached < 0)
        cached = streamAccepted(stream, dict) ? 1 : 0;
    return cached != 0;
}

bool
FilterChain::CompiledFilter::accepts(
    const trace::TraceEvent &ev, const trace::EventDictionary &dict)
{
    if (spec.hasFrom && ev.timestamp < spec.from)
        return false;
    if (spec.hasTo && ev.timestamp >= spec.to)
        return false;
    if (spec.hasParam &&
        (ev.param < spec.paramLo || ev.param > spec.paramHi))
        return false;
    if (!spec.tokenPatterns.empty() && !tokens.contains(ev.token))
        return false;
    return spec.streamPatterns.empty() || streamMatches(ev.stream, dict);
}

FilterChain::FilterChain(const Query &query,
                         const trace::EventDictionary &dict)
    : dictionary(dict)
{
    for (const FilterSpec &spec : query.filters) {
        CompiledFilter filter;
        filter.spec = spec;
        for (const auto &pattern : spec.tokenPatterns)
            filter.tokens.add(pattern, dict);
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
    if (filters.size() == 1 && !filters[0].spec.hasFrom &&
        !filters[0].spec.hasTo && !filters[0].spec.hasParam) {
        CompiledFilter &f = filters[0];
        const TokenSet *tokens =
            f.spec.tokenPatterns.empty() ? nullptr : &f.tokens;
        const bool hasStreams = !f.spec.streamPatterns.empty();
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            if (tokens && !tokens->contains(ev.token))
                continue;
            if (hasStreams && !f.streamMatches(ev.stream, dictionary))
                continue;
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
