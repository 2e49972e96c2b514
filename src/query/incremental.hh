/**
 * @file
 * Push-driven incremental query evaluation for live trace streams.
 *
 * A saved trace is evaluated by the sharded executor in one call. A
 * live stream has no end (or an end minutes away), so
 * `tracequery --follow` needs results *while* the stream runs.
 * IncrementalEngine runs the same pipeline one pushed batch at a
 * time: the batch passes the query's FilterChain, its survivors fill
 * one shard partial, and that shard is absorbed into a ShardMerge and
 * dropped. Memory therefore stays bounded by the merge's aggregation
 * state, and finish() returns the exact table the batch pipeline
 * produces for the same stream — wherever the batch edges fall, as
 * for any shard split. For the window shapes whose results are
 * decided early, the engine additionally hands finalized rows to a
 * callback as the stream advances (ShardMerge::sealWindowsBefore):
 *
 *  - fixed-window `count`: window k's rows are final once an accepted
 *    event at or past the end of window k arrives; the concatenation
 *    of the emitted row groups is bit-identical to (a prefix of) the
 *    final table, in the final table's row order;
 *  - fixed-window `utilization`: window k's nonzero-coverage rows are
 *    emitted when the stream passes the window's end (states the
 *    merge still carries open are credited up to the window edge,
 *    exactly as they will be accounted at close). The final table may
 *    add all-zero rows in dense mode; every emitted row reappears in
 *    it verbatim.
 *
 * Sliding windows and the remaining folds (`states`, `latency`,
 * `rtt`) aggregate global state, so they stream nothing early and
 * deliver everything at finish(). Live emission assumes the pushed
 * stream is time-ordered (merged trace order, which the live session
 * delivers); finish() stays authoritative regardless.
 */

#ifndef QUERY_INCREMENTAL_HH
#define QUERY_INCREMENTAL_HH

#include <vector>

#include "query/engine.hh"

namespace supmon
{
namespace query
{

class IncrementalEngine
{
  public:
    /** Receives each finalized-window partial result: same columns
     *  as the final table, rows of one window. */
    using RowCallback = ShardMerge::WindowSink;

    IncrementalEngine(const Query &query,
                      const trace::EventDictionary &dict,
                      RowCallback on_rows = {},
                      sim::Tick trace_end = 0);

    /** Push one event (stream order): a batch of one. */
    void
    onEvent(const trace::TraceEvent &ev)
    {
        onBatch(&ev, 1);
    }

    /** Push a batch (stream order). */
    void onBatch(const trace::TraceEvent *events, std::size_t n);

    /** End of stream: the authoritative batch-identical table. */
    Table
    finish()
    {
        return merge->finish();
    }

    /** Does this query shape emit finalized rows mid-stream? */
    bool
    streamsLive() const
    {
        return live;
    }

  private:
    FoldSpec spec;
    FoldContext context;
    FilterChain chain;
    std::unique_ptr<ShardMerge> merge;
    RowCallback onRows;
    bool live = false;
    /** The pushed batch's filter survivors. */
    std::vector<trace::TraceEvent> accepted;
};

} // namespace query
} // namespace supmon

#endif // QUERY_INCREMENTAL_HH
