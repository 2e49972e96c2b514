/**
 * @file
 * Fold sinks of the streaming query pipeline: each consumes filtered
 * events one at a time with bounded memory and produces a result
 * Table at the end of the stream.
 *
 * The state-based folds (`states`, `utilization`) and their shard
 * partials run one open-state machine, the streamed equivalent of
 * trace::ActivityMap::build(), so on identical input they reproduce
 * the batch evaluation's numbers exactly — the cross-check tests
 * assert bit-equality against trace::ActivityMap results for the
 * golden scenarios.
 */

#ifndef QUERY_FOLDS_HH
#define QUERY_FOLDS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/query.hh"
#include "query/table.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace query
{

/**
 * The activity state machine of a dictionary, compiled once per
 * query and shared read-only by every shard: the distinct states in
 * definition order, a dense token -> state-id table (one load per
 * event instead of a dictionary map lookup), and the reverse
 * interning map. State *ids* index `states`; `noState` marks tokens
 * that are not Begin events and state names the dictionary does not
 * know.
 */
struct StateTable
{
    static constexpr std::uint16_t noState = 0xffff;

    /** statesInOrder() of the dictionary the table was built from. */
    std::vector<std::string> states;
    /** Dense token -> state id (65536 entries; noState = ignore). */
    std::vector<std::uint16_t> tokenState;

    /** Intern a state name; noState when unknown. */
    std::uint16_t idOf(const std::string &state) const;

    static std::shared_ptr<const StateTable> compile(
        const trace::EventDictionary &dict);

  private:
    std::map<std::string, std::uint16_t> ids;
};

/** Everything a fold needs besides the events. */
struct FoldContext
{
    const trace::EventDictionary *dict = nullptr;
    std::optional<WindowSpec> window;
    /** Explicit evaluation range (from the filter stages). */
    bool hasFrom = false;
    bool hasTo = false;
    sim::Tick from = 0;
    sim::Tick to = 0;
    /**
     * Close still-open states at this time, like the trace_end
     * argument of ActivityMap::build(); 0 = last event's timestamp.
     */
    sim::Tick traceEnd = 0;
    /**
     * Compiled state machine, shared by the serial fold and every
     * shard of a query (makeFoldContext fills it in for the
     * state-based fold kinds; the folds compile their own when
     * handed a bare context).
     */
    std::shared_ptr<const StateTable> stateTable;
};

class Fold
{
  public:
    /** Receives the rows of one finalized window. */
    using WindowSink = std::function<void(const Table &)>;

    virtual ~Fold() = default;

    /** Consume one (already filtered) event. */
    virtual void onEvent(const trace::TraceEvent &ev) = 0;

    /** End of stream: close open state and build the result. */
    virtual Table finish() = 0;

    /**
     * Live preview of a time-ordered stream whose accepted events
     * have reached @p now: hand @p sink the rows of every window that
     * ended at or before @p now and was not handed out before, one
     * table per window in window order, each row exactly as finish()
     * will render it. Only the windowed `count` and `utilization`
     * folds know rows this early; the others hand out nothing.
     */
    virtual void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink)
    {
        (void)now;
        (void)sink;
    }
};

/** Instantiate the fold sink a query asks for. */
std::unique_ptr<Fold> makeFold(const FoldSpec &spec,
                               const FoldContext &ctx);

/**
 * Per-shard partial aggregation state for sharded query execution.
 *
 * A shard fold consumes one contiguous, already-filtered slice of
 * the trace and accumulates whatever partial state its fold kind can
 * aggregate without seeing the rest of the trace:
 *
 *  - integer aggregates that merge by addition (unwindowed counts);
 *  - closed state intervals plus the boundary state (the still-open
 *    state per stream, the first Begin per stream) that lets the
 *    merge stitch intervals across shard edges;
 *  - per-stream inter-event gaps plus first/last timestamps
 *    (latency);
 *  - compact replay buffers where the needed state is irreducibly
 *    global (windowed counts need the global window origin; rtt
 *    matching needs the global begin/end pairing order).
 *
 * mergeShardFolds() combines the partials *in shard order* and
 * produces a table that is bit-exact — the same doubles, not
 * approximately equal — with a serial Fold fed the concatenated
 * accepted stream, because every floating-point accumulation is
 * replayed in the serial order while integer aggregates merge by
 * (order-free) addition. tests/query/test_crosscheck.cpp and
 * tests/parallel/test_sharded_query.cpp lock this contract for every
 * fold kind and shard count.
 */
class ShardFold
{
  public:
    virtual ~ShardFold() = default;

    /** Consume one (already filtered) event of this shard's slice. */
    virtual void onEvent(const trace::TraceEvent &ev) = 0;

    /**
     * Consume a whole (already filtered) block in one virtual call —
     * the hot path of the sharded executor. Overridden by the fold
     * kinds with a tight inner loop; the default forwards to
     * onEvent().
     */
    virtual void
    onBatch(const trace::TraceEvent *events, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            onEvent(events[i]);
    }

    /**
     * Consume a whole *raw* record block (the unfiltered fast path:
     * trace::TraceReader::nextRawBlock() bytes, record stride
     * trace::TraceReader::recordBytes). Overriding folds fuse the
     * decode into their consume loop, so each record is decoded into
     * a register-resident event and never staged through a batch
     * array. The default decodes per record and forwards to
     * onEvent().
     */
    virtual void onRawBatch(const unsigned char *raw, std::size_t n);

    /**
     * Arena hint: the shard will see at most @p records records.
     * Folds preallocate their partial storage (interval arenas,
     * count tables) so the hot loop never reallocates.
     */
    virtual void
    reserveHint(std::uint64_t records)
    {
        (void)records;
    }
};

/** Instantiate one shard's partial sink for @p spec. */
std::unique_ptr<ShardFold> makeShardFold(const FoldSpec &spec,
                                         const FoldContext &ctx);

/**
 * Merge shard partials (created by makeShardFold for the same spec
 * and context, shards in trace order) into the final result table.
 * Null entries (shards that saw no work) are skipped.
 */
Table mergeShardFolds(const FoldSpec &spec, const FoldContext &ctx,
                      std::vector<std::unique_ptr<ShardFold>> &shards);

/**
 * Resolve a token pattern (event name glob, decimal, or 0x-hex
 * literal) against a dictionary.
 */
std::vector<std::uint16_t> resolveTokenPattern(
    const std::string &pattern, const trace::EventDictionary &dict);

} // namespace query
} // namespace supmon

#endif // QUERY_FOLDS_HH
