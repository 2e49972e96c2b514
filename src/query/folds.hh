/**
 * @file
 * The folds of the query pipeline, in the two halves every executor
 * runs: a per-shard partial (ShardFold) consumes one contiguous,
 * already-filtered slice of a trace, and one in-order merge
 * (ShardMerge) absorbs the partials and produces the result Table.
 * A one-shard run is the serial evaluation; the live
 * IncrementalEngine absorbs one shard per pushed batch.
 *
 * Memory: the merge holds only the aggregation state, and that
 * state is flat: integer sums (counts, covered ticks) in one
 * open-addressing table per window that saw a key, per-stream
 * statistics in vectors indexed by a dense stream slot, plus pending
 * rtt begins and the carried open state per stream. Its memory is
 * proportional to the keys it holds, not to the largest stream id
 * or the windows a silence spans. A shard additionally holds its
 * slice's closed state intervals (`states`, `utilization`) or its
 * buffered accepted events (windowed `count`, `latency` gaps, `rtt`)
 * until it is absorbed, so a file query's peak memory grows with
 * the largest shard, not only with the aggregation state.
 *
 * The state-based folds run one open-state machine, the streamed
 * equivalent of trace::ActivityMap::build(), so on identical input
 * they reproduce the batch evaluation's numbers exactly — the
 * cross-check tests assert bit-equality against trace::ActivityMap
 * results for the golden scenarios and for random traces.
 */

#ifndef QUERY_FOLDS_HH
#define QUERY_FOLDS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
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
     * Compiled state machine, shared by every shard and the merge of
     * a query (makeFoldContext fills it in for the state-based fold
     * kinds; the folds compile their own when handed a bare
     * context).
     */
    std::shared_ptr<const StateTable> stateTable;
};

/**
 * A set of event tokens as a 64 Ki-bit bitmap: one load and mask per
 * membership test. Filter stages and the `rtt` folds compile their
 * token patterns into it.
 */
class TokenSet
{
  public:
    TokenSet() : bits(65536 / 64, 0) {}

    /** Add every token @p pattern resolves to (resolveTokenPattern). */
    void add(const std::string &pattern,
             const trace::EventDictionary &dict);

    bool
    contains(std::uint16_t token) const
    {
        return bits[token >> 6] >> (token & 63) & 1;
    }

  private:
    std::vector<std::uint64_t> bits;
};

/**
 * A value per stream id, the one per-stream table of the query
 * engine: flat below 2^16 ids, hashed above (a hostile trace can
 * carry any 32-bit id), so the common lookup is a bounds check and
 * one load. An id reads as `unset` until written.
 */
template <typename T>
class StreamTable
{
  public:
    explicit StreamTable(T unset_value = T()) : unset(unset_value) {}

    /** @p id's value, created as `unset` on first use. */
    T &
    operator[](unsigned id)
    {
        return id < flat.size() ? flat[id] : grow(id);
    }

    /** Visit (id, value) of every id below the flat table's size,
     *  ascending, then of every hashed id. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (unsigned id = 0; id < flat.size(); ++id)
            f(id, flat[id]);
        for (const auto &kv : big)
            f(kv.first, kv.second);
    }

  private:
    static constexpr unsigned flatLimit = 1u << 16;

    /** Off the fast path (out of line, so operator[] inlines into
     *  per-event loops). */
    [[gnu::noinline]] T &
    grow(unsigned id)
    {
        if (id >= flatLimit)
            return big.try_emplace(id, unset).first->second;
        flat.resize(std::min<std::size_t>(
                        std::max<std::size_t>(id + 1, flat.size() * 2),
                        flatLimit),
                    unset);
        return flat[id];
    }

    T unset;
    std::vector<T> flat;
    std::unordered_map<unsigned, T> big;
};

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
 * ShardMerge absorbs the partials *in shard order* and produces a
 * table that does not depend on where the shard edges fall — the
 * same doubles, not approximately equal, for any shard count —
 * because every floating-point accumulation is replayed in trace
 * order while integer aggregates merge by (order-free) addition,
 * in per-window sum tables beside per-stream accumulators in dense
 * stream slots (memory proportional to the keys held).
 * tests/query/test_crosscheck.cpp, tests/parallel/test_sharded_query.cpp
 * and tests/parallel/test_property_sharded.cpp lock this contract
 * for every fold kind and shard count.
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
 * The in-order merge of one query's shard partials, and the only
 * producer of its result table (one implementation per fold kind).
 * absorb() takes the partials of makeShardFold() (same spec and
 * context) in trace order; the merge carries the boundary state
 * between them — the open state per stream, the last event per
 * stream for `latency`, the pending begins of `rtt`, the window
 * origin — so a shard may be dropped as soon as it is absorbed.
 */
class ShardMerge
{
  public:
    /** Receives the rows of one finalized window. */
    using WindowSink = std::function<void(const Table &)>;

    virtual ~ShardMerge() = default;

    /** Absorb the next shard in trace order; the shard is not needed
     *  afterwards. */
    virtual void absorb(ShardFold &shard) = 0;

    /**
     * Live preview of a time-ordered stream whose absorbed events
     * have reached @p now: hand @p sink the rows of every window that
     * ended at or before @p now and was not handed out before, one
     * table per window in window order, each row exactly as finish()
     * will render it. Only fixed-window `count` and `utilization`
     * know rows this early; the other shapes hand out nothing.
     */
    virtual void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink)
    {
        (void)now;
        (void)sink;
    }

    /** End of stream: close carried open states and build the table;
     *  call once. */
    virtual Table finish() = 0;
};

/** Instantiate the merge of @p spec's shard partials. */
std::unique_ptr<ShardMerge> makeShardMerge(const FoldSpec &spec,
                                           const FoldContext &ctx);

/**
 * Resolve a token pattern (event name glob, decimal, or 0x-hex
 * literal) against a dictionary.
 */
std::vector<std::uint16_t> resolveTokenPattern(
    const std::string &pattern, const trace::EventDictionary &dict);

} // namespace query
} // namespace supmon

#endif // QUERY_FOLDS_HH
