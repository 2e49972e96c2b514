/**
 * @file
 * Push-driven incremental query evaluation for live trace streams.
 *
 * The batch pipeline pulls a whole trace through QueryEngine and
 * renders one table at the end. A live stream has no end (or an end
 * minutes away), so `tracequery --follow` needs results *while* the
 * stream runs. IncrementalEngine wraps a QueryEngine — every pushed
 * event feeds it, and finish() returns the exact table the batch
 * pipeline would produce for the same stream — and, for the window
 * shapes whose results are decided early, additionally emits
 * finalized rows through a callback as the stream advances. Those
 * rows come from the same fold that builds the final table
 * (Fold::sealWindowsBefore), so each event is filtered and folded
 * once:
 *
 *  - fixed-window `count`: window k's rows are final once an accepted
 *    event at or past the end of window k arrives; the concatenation
 *    of the emitted row groups is bit-identical to (a prefix of) the
 *    final table, in the final table's row order;
 *  - fixed-window `utilization`: window k's nonzero-coverage rows are
 *    emitted when the stream passes the window's end (open activity
 *    intervals are credited up to the window edge, exactly as the
 *    fold will account them at close). The final table may add
 *    all-zero rows in dense mode; every emitted row reappears in it
 *    verbatim.
 *
 * Sliding windows and the remaining folds (`states`, `latency`,
 * `rtt`) aggregate global state, so they stream nothing early and
 * deliver everything at finish(). Live emission assumes the pushed
 * stream is time-ordered (merged trace order, which the live session
 * delivers); finish() stays authoritative regardless.
 */

#ifndef QUERY_INCREMENTAL_HH
#define QUERY_INCREMENTAL_HH

#include <cstdint>

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
    using RowCallback = Fold::WindowSink;

    IncrementalEngine(const Query &query,
                      const trace::EventDictionary &dict,
                      RowCallback on_rows = {},
                      sim::Tick trace_end = 0);

    /** Push one event (stream order). */
    void onEvent(const trace::TraceEvent &ev);

    /** Push a batch (stream order). */
    void onBatch(const trace::TraceEvent *events, std::size_t n);

    /** End of stream: the authoritative batch-identical table. */
    Table
    finish()
    {
        return engine.finish();
    }

    /** Does this query shape emit finalized rows mid-stream? */
    bool
    streamsLive() const
    {
        return live;
    }

    std::uint64_t
    eventsSeen() const
    {
        return engine.eventsSeen();
    }

    std::uint64_t
    eventsAccepted() const
    {
        return engine.eventsAccepted();
    }

  private:
    QueryEngine engine;
    RowCallback onRows;
    bool live = false;
};

} // namespace query
} // namespace supmon

#endif // QUERY_INCREMENTAL_HH
