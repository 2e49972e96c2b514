/**
 * @file
 * The query entry points: the compiled filter stages, the fold
 * context a query implies, and the one-shard runs of the sharded
 * executor (query/sharded.hh) over an in-memory trace, a measurement
 * phase of it, or a saved trace file. Memory use is discussed in
 * query/folds.hh.
 */

#ifndef QUERY_ENGINE_HH
#define QUERY_ENGINE_HH

#include "query/folds.hh"
#include "query/query.hh"
#include "query/table.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace query
{

/**
 * The compiled `filter` stages of a query: resolves token patterns
 * against the dictionary once, then decides accept/reject per event.
 * Token sets compile to a TokenSet bitmap (one load + mask per test)
 * and stream-name glob results are cached in a flat per-stream-id
 * table, so a chain is stateful (not const) but a few loads per
 * event. Each shard of the sharded executor compiles its own chain —
 * chains are never shared across threads.
 */
class FilterChain
{
  public:
    FilterChain(const Query &query,
                const trace::EventDictionary &dict);

    /** Does @p ev pass every filter stage? */
    bool accepts(const trace::TraceEvent &ev);

    /** The query has no filter stages (everything passes). */
    bool
    empty() const
    {
        return filters.empty();
    }

    /**
     * Batch filter stage: run the compiled predicate over a whole
     * decoded block, compacting survivors (stably) to the front of
     * @p events.
     * @return the number of surviving records.
     */
    std::size_t filterBatch(trace::TraceEvent *events,
                            std::size_t n);

    /**
     * Fused decode + filter over a raw record block (from
     * trace::TraceReader::nextRawBlock()): each record is decoded
     * into a register-resident event, tested, and only survivors are
     * written to @p out (which must hold @p n events). Rejected
     * records never touch a batch array, which is what pushes the
     * filter+count pipeline past the plain decode-then-filter
     * throughput. Survivor order is the record order, so the fold
     * sees exactly the sequence accepts() would pass.
     * @return the number of surviving records.
     */
    std::size_t filterDecodeBatch(const unsigned char *raw,
                                  std::size_t n,
                                  trace::TraceEvent *out);

  private:
    /** One compiled `filter` stage. */
    struct CompiledFilter
    {
        FilterSpec spec;
        TokenSet tokens;
        /** Lazy glob-vs-stream-name results per stream id
         *  (-1 unknown / 0 reject / 1 accept). */
        StreamTable<std::int8_t> streamCache{-1};

        bool accepts(const trace::TraceEvent &ev,
                     const trace::EventDictionary &dict);
        /** Does @p stream match the stream patterns (cached)? */
        bool streamMatches(unsigned stream,
                           const trace::EventDictionary &dict);
        bool streamAccepted(unsigned stream,
                            const trace::EventDictionary &dict) const;
    };

    const trace::EventDictionary &dictionary;
    std::vector<CompiledFilter> filters;
};

/**
 * The fold context a query implies: dictionary, window spec, the
 * narrowest explicit time range across the filter stages (and
 * @p range, an evaluation range that filters nothing), and the
 * trace-end close time. Every shard and the merge of a run share
 * the context this one function derives.
 */
FoldContext makeFoldContext(const Query &query,
                            const trace::EventDictionary &dict,
                            sim::Tick trace_end,
                            const FilterSpec *range = nullptr);

/** Run a query over an in-memory trace: runQuerySharded() with one
 *  shard. */
Table runQuery(const std::vector<trace::TraceEvent> &events,
               const trace::EventDictionary &dict, const Query &query,
               sim::Tick trace_end = 0);

/**
 * Run a query over the range [@p begin, @p end) of an in-memory trace
 * (a run's measurement phase), evaluated the way
 * trace::ActivityMap::utilization() evaluates a range. The range
 * bounds the folds; it is not a `from=`/`to=` filter. The state-based
 * folds (`states`, `utilization`) still see the events before it, so
 * a state opened just before @p begin — the Work Begin stamped a few
 * microseconds before the phase starts — covers the range from its
 * start; their intervals are clamped to the range, and intervals
 * wholly outside it do not count. The event-based folds (`count`,
 * `latency`, `rtt`) see only the events inside the range. Open states
 * close at @p end. One shard of runQuerySharded(), with the range
 * as its evaluation range.
 */
Table runPhaseQuery(const std::vector<trace::TraceEvent> &events,
                    const trace::EventDictionary &dict,
                    const Query &query, sim::Tick begin,
                    sim::Tick end);

/**
 * Run a query over a saved trace file: runQueryFileSharded() with
 * one shard, a single streaming pass over the records (the trace is
 * never loaded as a whole).
 * @return false with @p error set if the file is unreadable or
 *         truncated.
 */
bool runQueryFile(const std::string &path,
                  const trace::EventDictionary &dict,
                  const Query &query, Table &out, std::string &error,
                  sim::Tick trace_end = 0);

} // namespace query
} // namespace supmon

#endif // QUERY_ENGINE_HH
