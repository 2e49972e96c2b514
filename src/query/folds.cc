#include "folds.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

/** A fold kind's merge state; see ShardMerge. */
class ShardMerge::Accumulator
{
  public:
    using WindowSink = ShardMerge::WindowSink;

    virtual ~Accumulator() = default;
    virtual void absorb(ShardFold &shard) = 0;

    virtual void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink)
    {
        (void)now;
        (void)sink;
    }

    virtual Table finish() = 0;
};

namespace
{

std::string
tokenName(const trace::EventDictionary &dict, std::uint16_t token)
{
    const trace::EventDef *def = dict.find(token);
    return def ? def->name : sim::strprintf("0x%04x", token);
}

/** Open-state slots are flat-indexed below this stream id; rarer
 *  (hostile) ids above it fall back to an ordered map. */
constexpr unsigned flatStreamLimit = 1u << 16;

/** Ensure the compiled table exists (normally shared via the
 *  context; compiled locally for a bare context). */
std::shared_ptr<const StateTable>
stateTableFor(const FoldContext &ctx)
{
    if (ctx.stateTable)
        return ctx.stateTable;
    return StateTable::compile(*ctx.dict);
}

/**
 * The open-state machine of ActivityMap::build(), streamed, and the
 * only one in the query engine: every StateShard runs it. It emits each
 * closed StateInterval-equivalent through a callback instead of
 * collecting a vector. Feeding it the same events in the same order
 * produces the same intervals, per stream in the same order, so
 * per-(stream,state) statistics match the batch path bit for bit.
 * States are handled as interned ids of a compiled StateTable (one
 * dense-table load per event instead of a dictionary map lookup) and
 * open states live in a flat per-stream array, with an ordered-map
 * fallback for hostile stream ids.
 */
class StateTracker
{
  public:
    /** One stream's open state. */
    struct Slot
    {
        sim::Tick since = 0;
        /** The stream's first Begin (a sharded merge closes the
         *  previous shard's open state there). */
        sim::Tick firstBegin = 0;
        std::uint16_t sid = 0;
        /** Set by the stream's first Begin; never reset. */
        bool isOpen = false;
    };

    explicit StateTracker(std::shared_ptr<const StateTable> state_table)
        : table(std::move(state_table))
    {
    }

    /** Record consumed events from @p first to @p last (trace order,
     *  so a whole block may report once). */
    void
    span(sim::Tick first, sim::Tick last)
    {
        if (!sawEvent) {
            sawEvent = true;
            firstTs = first;
        }
        lastTs = last;
    }

    template <typename Emit>
    void
    onEvent(const trace::TraceEvent &ev, Emit &&emit)
    {
        span(ev.timestamp, ev.timestamp);
        track(ev, table->tokenState.data(), emit);
    }

    /** The per-event machine alone, with the token table hoisted out
     *  (batch loops load it once, not per event; they report the
     *  event span through span()). */
    template <typename Emit>
    void
    track(const trace::TraceEvent &ev, const std::uint16_t *token_state,
          Emit &&emit)
    {
        const std::uint16_t sid = token_state[ev.token];
        if (sid == StateTable::noState)
            return;
        Slot &cur = slot(ev.stream);
        if (!cur.isOpen)
            cur.firstBegin = ev.timestamp;
        else if (ev.timestamp > cur.since)
            emit(ev.stream, cur.sid, cur.since, ev.timestamp);
        cur.sid = sid;
        cur.since = ev.timestamp;
        cur.isOpen = true;
    }

    /** Visit (stream, slot) of every stream that has seen a Begin,
     *  streams ascending. */
    template <typename F>
    void
    forEachOpen(F &&f) const
    {
        for (unsigned s = 0; s < flat.size(); ++s) {
            if (flat[s].isOpen)
                f(s, flat[s]);
        }
        for (const auto &kv : overflow)
            f(kv.first, kv.second);
    }

    bool
    any() const
    {
        return sawEvent;
    }

    sim::Tick
    traceBegin() const
    {
        return firstTs;
    }

    sim::Tick
    lastEvent() const
    {
        return lastTs;
    }

  private:
    Slot &
    slot(unsigned stream)
    {
        if (stream >= flatStreamLimit)
            return overflow[stream];
        if (stream >= flat.size())
            flat.resize(std::min<std::size_t>(
                std::max<std::size_t>(stream + 1, flat.size() * 2),
                flatStreamLimit));
        return flat[stream];
    }

    std::shared_ptr<const StateTable> table;
    std::vector<Slot> flat;
    std::map<unsigned, Slot> overflow;
    sim::Tick firstTs = 0;
    sim::Tick lastTs = 0;
    bool sawEvent = false;
};

/** Tick window bucketing shared by the windowed folds. */
struct Windower
{
    WindowSpec spec;
    sim::Tick origin = 0;
    bool originSet = false;

    void
    anchor(sim::Tick t)
    {
        if (!originSet) {
            origin = t;
            originSet = true;
        }
    }

    /** Largest window index whose start lies before @p end_time. */
    std::int64_t
    lastIndexBefore(sim::Tick end_time) const
    {
        if (!originSet || end_time <= origin)
            return -1;
        return static_cast<std::int64_t>((end_time - 1 - origin) /
                                         spec.step);
    }

    /**
     * Window index range [lo, hi] covering instant @p t.
     * @return false for instants before the origin (possible only
     *         with a non-time-ordered trace).
     */
    bool
    indicesOf(sim::Tick t, std::int64_t &lo, std::int64_t &hi) const
    {
        if (t < origin)
            return false;
        hi = static_cast<std::int64_t>((t - origin) / spec.step);
        lo = t >= origin + spec.size
                 ? static_cast<std::int64_t>(
                       (t - origin - spec.size) / spec.step + 1)
                 : 0;
        return true;
    }

    sim::Tick
    startOf(std::int64_t k) const
    {
        return origin + static_cast<sim::Tick>(k) * spec.step;
    }

    /** Number of windows (from index 0) that end at or before
     *  @p now. */
    std::int64_t
    endedBy(sim::Tick now) const
    {
        if (!originSet || now < origin + spec.size)
            return 0;
        return static_cast<std::int64_t>(
                   (now - origin - spec.size) / spec.step) +
               1;
    }
};

// ======================================================= shard partials
//
// One class per fold kind. Each accumulates only what can be
// aggregated without global knowledge; ShardMerge absorbs the
// partials in shard order (see folds.hh).

/** Minimal accepted-event tuple for origin-dependent replay. */
struct MiniEvent
{
    sim::Tick ts;
    unsigned stream;
    std::uint16_t token;
};

/** Cap arena / replay-buffer preallocation (records). */
constexpr std::uint64_t reserveCapRecords = 1u << 20;

/**
 * Open-addressing (stream, token) -> count table: the unwindowed
 * count hot path. Keys pack as (stream << 16) | token (< 2^48, so
 * the all-ones empty sentinel is never a real key); power-of-two
 * capacity, linear probing, growth at 3/4 load. No allocation per
 * event — the table doubles rarely and the probe loop is a couple of
 * loads.
 */
class CountTable
{
  public:
    CountTable()
    {
        keys.assign(capacity, emptyKey);
        vals.assign(capacity, 0);
    }

    void
    increment(std::uint64_t key)
    {
        std::size_t i = probeOf(key);
        if (keys[i] == emptyKey) {
            if ((used + 1) * 4 > capacity * 3) {
                grow();
                i = probeOf(key);
            }
            keys[i] = key;
            ++used;
        }
        ++vals[i];
    }

    /** Visit every (key, count) pair, in table order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < capacity; ++i) {
            if (keys[i] != emptyKey)
                f(keys[i], vals[i]);
        }
    }

  private:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t(0);

    std::size_t
    probeOf(std::uint64_t key) const
    {
        // Fibonacci-style multiplicative hash onto the table size.
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> 32) &
            (capacity - 1);
        while (keys[i] != emptyKey && keys[i] != key)
            i = (i + 1) & (capacity - 1);
        return i;
    }

    void
    grow()
    {
        const std::vector<std::uint64_t> oldKeys = std::move(keys);
        const std::vector<std::uint64_t> oldVals = std::move(vals);
        capacity *= 2;
        keys.assign(capacity, emptyKey);
        vals.assign(capacity, 0);
        for (std::size_t i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] == emptyKey)
                continue;
            const std::size_t j = probeOf(oldKeys[i]);
            keys[j] = oldKeys[i];
            vals[j] = oldVals[i];
        }
    }

    /** Small to start with: the live engine makes one table per
     *  pushed batch. */
    std::size_t capacity = 64;
    std::size_t used = 0;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> vals;
};

class CountShard : public ShardFold
{
  public:
    explicit CountShard(const FoldContext &ctx)
        : windowed(ctx.window.has_value())
    {
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        // Windowed counting buckets against the *global* first
        // accepted event, unknowable inside one shard — buffer the
        // three needed fields and bucket at merge time. Unwindowed
        // counts are plain integers and merge by addition.
        if (windowed)
            buffer.push_back({ev.timestamp, ev.stream, ev.token});
        else
            counts.increment(packKey(ev.stream, ev.token));
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        if (windowed) {
            for (std::size_t i = 0; i < n; ++i)
                buffer.push_back({events[i].timestamp,
                                  events[i].stream,
                                  events[i].token});
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            counts.increment(
                packKey(events[i].stream, events[i].token));
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        // Fused decode + count: the record never leaves registers.
        trace::TraceEvent ev;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            if (windowed)
                buffer.push_back({ev.timestamp, ev.stream, ev.token});
            else
                counts.increment(packKey(ev.stream, ev.token));
        }
    }

    void
    reserveHint(std::uint64_t records) override
    {
        if (windowed)
            buffer.reserve(static_cast<std::size_t>(
                std::min(records, reserveCapRecords)));
    }

    static std::uint64_t
    packKey(unsigned stream, std::uint16_t token)
    {
        return (static_cast<std::uint64_t>(stream) << 16) | token;
    }

    bool windowed;
    CountTable counts;
    std::vector<MiniEvent> buffer;
};

/**
 * Shared by `states` and `utilization`: runs the StateTracker over the
 * shard's slice and keeps the boundary state explicit — closed
 * intervals in emission order, plus the tracker's slots, which hold
 * the first Begin per stream (closing the *previous* shard's open
 * state at merge time) and the still-open state per stream at the
 * shard's end.
 */
class StateShard : public ShardFold
{
  public:
    explicit StateShard(std::shared_ptr<const StateTable> state_table)
        : table(std::move(state_table)), tracker(table)
    {
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        tracker.onEvent(ev, ArenaSink{this});
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        if (n == 0)
            return;
        // Event bounds move to block granularity; events arrive in
        // trace order, so the block's last event is the running last.
        tracker.span(events[0].timestamp, events[n - 1].timestamp);
        const std::uint16_t *token_state = table->tokenState.data();
        for (std::size_t i = 0; i < n; ++i)
            tracker.track(events[i], token_state, ArenaSink{this});
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        if (n == 0)
            return;
        // Fused decode + state machine: each record decodes into one
        // register-resident event and is consumed immediately,
        // skipping the staging batch array entirely.
        const std::uint16_t *token_state = table->tokenState.data();
        trace::TraceEvent ev;
        trace::TraceReader::decodeRecord(raw, ev);
        const sim::Tick first = ev.timestamp;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            tracker.track(ev, token_state, ArenaSink{this});
        }
        tracker.span(first, ev.timestamp);
    }

    void
    reserveHint(std::uint64_t records) override
    {
        intervals.reserve(static_cast<std::size_t>(
            std::min(records, reserveCapRecords)));
    }

    /** Sentinel duration: the interval's end/stream live in the next
     *  `wide` record (huge durations and >16-bit stream ids). */
    static constexpr std::uint32_t wideDur = 0xffffffffu;

    /**
     * Closed interval of the shard's slice: 16 POD bytes in an
     * arena, not a string-keyed map entry. The merge replays the
     * arena (one streaming pass) into the final accumulator, so its
     * byte size is merge-stage memory traffic — hence the packed
     * duration with a rare wide-record escape instead of two full
     * ticks.
     */
    struct Interval
    {
        sim::Tick begin;
        /** end - begin, or wideDur (see `wide`). */
        std::uint32_t dur;
        std::uint16_t stream;
        std::uint16_t sid;
    };

    /** Escape record for intervals wideDur cannot represent; one per
     *  sentinel arena entry, in arena order. */
    struct WideInterval
    {
        sim::Tick end;
        std::uint32_t stream;
    };

    std::shared_ptr<const StateTable> table;
    StateTracker tracker;
    std::vector<Interval> intervals;
    std::vector<WideInterval> wide;

  private:
    /** The tracker's emit target: the shard's interval arena. */
    struct ArenaSink
    {
        StateShard *shard;

        void
        operator()(unsigned stream, std::uint16_t sid, sim::Tick b,
                   sim::Tick e) const
        {
            shard->pushInterval(stream, sid, b, e);
        }
    };

    void
    pushInterval(unsigned stream, std::uint16_t sid, sim::Tick b,
                 sim::Tick e)
    {
        const sim::Tick d = e - b;
        if (stream < flatStreamLimit && d < wideDur) {
            intervals.push_back({b, static_cast<std::uint32_t>(d),
                                 static_cast<std::uint16_t>(stream),
                                 sid});
            return;
        }
        intervals.push_back({b, wideDur, 0, sid});
        wide.push_back({e, stream});
    }
};

class LatencyShard : public ShardFold
{
  public:
    void
    onEvent(const trace::TraceEvent &ev) override
    {
        auto it = streams.find(ev.stream);
        if (it == streams.end()) {
            streams.emplace(
                ev.stream,
                PerStream{ev.timestamp, ev.timestamp, {}});
        } else {
            it->second.gaps.push_back(ev.timestamp -
                                      it->second.last);
            it->second.last = ev.timestamp;
        }
    }

    struct PerStream
    {
        sim::Tick first;
        sim::Tick last;
        /** Exact tick gaps, in event order. */
        std::vector<sim::Tick> gaps;
    };

    std::map<unsigned, PerStream> streams;
};

class RttShard final : public ShardFold
{
  public:
    RttShard(const FoldSpec &spec, const FoldContext &ctx)
    {
        relevant.add(spec.beginPattern, *ctx.dict);
        relevant.add(spec.endPattern, *ctx.dict);
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        // Begin/end pairing is keyed on the parameter with
        // first-begin-wins semantics across the whole trace — a
        // local match can differ from the global one (the matching
        // begin may live in an earlier shard). Buffer the relevant
        // events and replay the pairing serially at merge time.
        if (relevant.contains(ev.token))
            buffer.push_back({ev.timestamp, ev.param, ev.token});
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            RttShard::onEvent(events[i]);
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        trace::TraceEvent ev;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            RttShard::onEvent(ev);
        }
    }

    struct MiniRtt
    {
        sim::Tick ts;
        std::uint32_t param;
        std::uint16_t token;
    };

    TokenSet relevant;
    std::vector<MiniRtt> buffer;
};

/**
 * The stitch carry of the state-based merges: the open state each
 * stream carries across shard edges, and the first and last event
 * absorbed so far. absorb() closes a carried state at the shard's
 * first Begin of that stream, replays the shard's closed intervals
 * and carries the shard's still-open states on; close() ends what is
 * still open at the end-of-trace time. Every interval goes through
 * the emit callback in an order whose per-(stream, state) projection
 * is the trace order (which is all that matters: statistics are
 * keyed per (stream, state), and integer overlap sums are
 * order-free).
 */
class StateStitch
{
  public:
    struct Carry
    {
        sim::Tick since;
        std::uint16_t sid;
    };

    template <typename Emit>
    void
    absorb(const StateShard &s, Emit &&emit)
    {
        if (s.tracker.any()) {
            if (!sawEvent) {
                sawEvent = true;
                firstTs = s.tracker.traceBegin();
            }
            lastTs = s.tracker.lastEvent();
        }
        s.tracker.forEachOpen(
            [this, &emit](unsigned stream,
                          const StateTracker::Slot &cur) {
                auto it = carry.find(stream);
                if (it == carry.end())
                    return;
                if (cur.firstBegin > it->second.since)
                    emit(stream, it->second.sid, it->second.since,
                         cur.firstBegin);
                carry.erase(it);
            });
        // Streaming replay of the arena; wide records (rare) are
        // consumed in step with their sentinel entries.
        std::size_t w = 0;
        for (const auto &iv : s.intervals) {
            if (iv.dur != StateShard::wideDur) {
                emit(iv.stream, iv.sid, iv.begin, iv.begin + iv.dur);
            } else {
                const StateShard::WideInterval &wd = s.wide[w++];
                emit(wd.stream, iv.sid, iv.begin, wd.end);
            }
        }
        s.tracker.forEachOpen(
            [this](unsigned stream, const StateTracker::Slot &cur) {
                carry[stream] = Carry{cur.since, cur.sid};
            });
    }

    /** Close still-open states at closeTime(@p trace_end); call once,
     *  after the last absorb(). Streams ascending. */
    template <typename Emit>
    void
    close(sim::Tick trace_end, Emit &&emit) const
    {
        if (!sawEvent)
            return;
        const sim::Tick endTs = closeTime(trace_end);
        for (const auto &kv : carry) {
            if (endTs > kv.second.since)
                emit(kv.first, kv.second.sid, kv.second.since, endTs);
        }
    }

    /** @p trace_end, or the last event if later (0 = last event),
     *  like ActivityMap::build(). */
    sim::Tick
    closeTime(sim::Tick trace_end) const
    {
        return trace_end ? std::max(trace_end, lastTs) : lastTs;
    }

    /** First absorbed event (0 before any). */
    sim::Tick
    traceBegin() const
    {
        return firstTs;
    }

    /** The open state of every stream that has seen a Begin. */
    const std::map<unsigned, Carry> &
    open() const
    {
        return carry;
    }

  private:
    std::map<unsigned, Carry> carry;
    sim::Tick firstTs = 0;
    sim::Tick lastTs = 0;
    bool sawEvent = false;
};

// ========================================================= merge state
//
// One ShardMerge::Accumulator per fold kind: the aggregation state a
// query keeps for its whole run, fed shard by shard in trace order.

// ---------------------------------------------------------------- count

class CountFold : public ShardMerge::Accumulator
{
  public:
    explicit CountFold(const FoldContext &ctx) : context(ctx)
    {
        if (context.window) {
            windower.spec = *context.window;
            if (context.hasFrom)
                windower.anchor(context.from);
        }
    }

    void
    absorb(ShardFold &shard) override
    {
        const auto &s = static_cast<const CountShard &>(shard);
        s.counts.forEach([this](std::uint64_t key, std::uint64_t n) {
            counts[{0, static_cast<unsigned>(key >> 16),
                    static_cast<std::uint16_t>(key & 0xffff)}] += n;
        });
        // Windowed counts bucket against the global origin: the
        // first accepted event, held by the first non-empty shard.
        for (const MiniEvent &m : s.buffer) {
            windower.anchor(m.ts);
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            if (!windower.indicesOf(m.ts, lo, hi))
                continue;
            for (std::int64_t k = lo; k <= hi; ++k)
                ++counts[{k, m.stream, m.token}];
        }
    }

    Table
    finish() override
    {
        Table table = emptyTable();
        for (const auto &kv : counts)
            addRow(table, kv);
        return table;
    }

    void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink) override
    {
        if (!context.window)
            return;
        // The map is window-major, so each window's rows are one run
        // of it, in finish()'s row order.
        const std::int64_t ended = windower.endedBy(now);
        auto it = counts.lower_bound({sealed, 0, 0});
        while (it != counts.end() && std::get<0>(it->first) < ended) {
            const std::int64_t k = std::get<0>(it->first);
            Table table = emptyTable();
            for (; it != counts.end() && std::get<0>(it->first) == k;
                 ++it)
                addRow(table, *it);
            sink(table);
        }
        sealed = std::max(sealed, ended);
    }

  private:
    using Counts =
        std::map<std::tuple<std::int64_t, unsigned, std::uint16_t>,
                 std::uint64_t>;

    Table
    emptyTable() const
    {
        Table table;
        if (context.window)
            table.columns.push_back("window_ms");
        table.columns.insert(table.columns.end(),
                             {"stream", "event", "count"});
        return table;
    }

    void
    addRow(Table &table, const Counts::value_type &kv) const
    {
        const auto &[window, stream, token] = kv.first;
        std::vector<Value> row;
        if (context.window) {
            row.push_back(Value::number(
                sim::toMilliseconds(windower.startOf(window))));
        }
        row.push_back(Value::str(context.dict->streamName(stream)));
        row.push_back(Value::str(tokenName(*context.dict, token)));
        row.push_back(Value::count(kv.second));
        table.addRow(std::move(row));
    }

    FoldContext context;
    Windower windower;
    Counts counts;
    /** Windows below this index were handed to a WindowSink. */
    std::int64_t sealed = 0;
};

// ---------------------------------------------------------------- states

/**
 * Flat per-(stream, state) accumulator for `states`: one
 * multiply-indexed array slot per key instead of an ordered-map
 * lookup, so replaying the stitched interval stream costs a few loads
 * per interval. Each key sees the same SummaryStat::push /
 * clamped-overlap sequence as trace::ActivityMap::durationStats()
 * and finish() renders streams ascending, states in id =
 * statesInOrder() order.
 */
class StateAccumulator : public ShardMerge::Accumulator
{
  public:
    explicit StateAccumulator(const FoldContext &ctx)
        : context(ctx), table(stateTableFor(ctx)),
          nStates(table->states.size())
    {
    }

    void
    absorb(ShardFold &shard) override
    {
        stitch.absorb(static_cast<const StateShard &>(shard),
                      AddSink{this});
    }

    Table
    finish() override
    {
        stitch.close(context.traceEnd, AddSink{this});
        const sim::Tick t0 =
            context.hasFrom ? context.from : stitch.traceBegin();
        const sim::Tick t1 = context.hasTo
                                 ? context.to
                                 : stitch.closeTime(context.traceEnd);
        Table out;
        out.columns = {"stream",  "state",  "count",
                       "total_ms", "mean_ms", "min_ms",
                       "max_ms",  "share"};
        const unsigned flatStreams = static_cast<unsigned>(
            nStates ? flat.size() / nStates : 0);
        for (unsigned s = 0; s < flatStreams; ++s) {
            for (std::size_t sid = 0; sid < nStates; ++sid)
                addRow(out, s, sid, flat[s * nStates + sid], t0, t1);
        }
        for (const auto &kv : overflow) {
            // Composite keys iterate stream-major, state-minor —
            // the same row order as the flat part.
            addRow(out, static_cast<unsigned>(kv.first / nStates),
                   static_cast<std::size_t>(kv.first % nStates),
                   kv.second, t0, t1);
        }
        return out;
    }

  private:
    struct Slot
    {
        sim::SummaryStat stat;
        sim::Tick covered = 0;
    };

    /** The stitch's emit target. */
    struct AddSink
    {
        StateAccumulator *acc;

        void
        operator()(unsigned stream, std::uint16_t sid, sim::Tick b,
                   sim::Tick e) const
        {
            acc->add(stream, sid, b, e);
        }
    };

    void
    add(unsigned stream, std::uint16_t sid, sim::Tick begin,
        sim::Tick end)
    {
        // Overlap with the evaluation range, clamped per interval; an
        // interval outside it (possible only when the range is not
        // also a filter, see runPhaseQuery) is not counted at all.
        const sim::Tick lo = context.hasFrom
                                 ? std::max(begin, context.from)
                                 : begin;
        const sim::Tick hi =
            context.hasTo ? std::min(end, context.to) : end;
        if (hi <= lo)
            return;
        Slot &slot = slotFor(stream, sid);
        slot.stat.push(static_cast<double>(end - begin));
        slot.covered += hi - lo;
    }

    Slot &
    slotFor(unsigned stream, std::uint16_t sid)
    {
        if (stream >= flatStreamLimit)
            return overflow[static_cast<std::uint64_t>(stream) *
                                nStates +
                            sid];
        const std::size_t index = stream * nStates + sid;
        if (index >= flat.size()) {
            flat.resize(std::min<std::size_t>(
                std::max<std::size_t>((stream + 1) * nStates,
                                      flat.size() * 2),
                static_cast<std::size_t>(flatStreamLimit) *
                    nStates));
        }
        return flat[index];
    }

    void
    addRow(Table &out, unsigned stream, std::size_t sid,
           const Slot &slot, sim::Tick t0, sim::Tick t1) const
    {
        if (slot.stat.count() == 0)
            return;
        const double share =
            t1 > t0 ? static_cast<double>(slot.covered) /
                          static_cast<double>(t1 - t0)
                    : 0.0;
        out.addRow({Value::str(context.dict->streamName(stream)),
                    Value::str(table->states[sid]),
                    Value::count(slot.stat.count()),
                    Value::number(slot.stat.sum() * 1e-6),
                    Value::number(slot.stat.mean() * 1e-6),
                    Value::number(slot.stat.min() * 1e-6),
                    Value::number(slot.stat.max() * 1e-6),
                    Value::number(share)});
    }

    FoldContext context;
    std::shared_ptr<const StateTable> table;
    std::size_t nStates;
    StateStitch stitch;
    std::vector<Slot> flat;
    std::map<std::uint64_t, Slot> overflow;
};

// ----------------------------------------------------------- utilization

class UtilizationFold : public ShardMerge::Accumulator
{
  public:
    UtilizationFold(const FoldSpec &spec, const FoldContext &ctx)
        : context(ctx), state(spec.state),
          targetSid(stateTableFor(ctx)->idOf(state))
    {
        if (context.window) {
            windower.spec = *context.window;
            if (context.hasFrom)
                windower.anchor(context.from);
        }
    }

    void
    absorb(ShardFold &shard) override
    {
        const auto &s = static_cast<const StateShard &>(shard);
        // The window origin is the first accepted event (or the
        // explicit `from` the constructor anchored): set it before
        // the shard's intervals are bucketed.
        if (context.window && s.tracker.any())
            windower.anchor(s.tracker.traceBegin());
        stitch.absorb(s, [this](unsigned stream, std::uint16_t sid,
                                sim::Tick b, sim::Tick e) {
            addInterval(stream, sid, b, e);
        });
    }

    Table
    finish() override
    {
        stitch.close(context.traceEnd,
                     [this](unsigned stream, std::uint16_t sid,
                            sim::Tick b, sim::Tick e) {
                         addInterval(stream, sid, b, e);
                     });
        const sim::Tick t0 =
            context.hasFrom ? context.from : stitch.traceBegin();
        const sim::Tick t1 = context.hasTo
                                 ? context.to
                                 : stitch.closeTime(context.traceEnd);
        // Every stream with an interval, ascending, and its name.
        std::vector<std::pair<unsigned, std::string>> streams;
        for (unsigned s = 0; s < seenFlat.size(); ++s) {
            if (seenFlat[s])
                streams.emplace_back(s, context.dict->streamName(s));
        }
        for (unsigned s : seenBig)
            streams.emplace_back(s, context.dict->streamName(s));

        Table table;
        if (!context.window) {
            table.columns = {"stream", "state", "utilization"};
            const Coverage *whole = coverageOf(0);
            for (const auto &[stream, name] : streams) {
                const sim::Tick covered = coveredIn(whole, stream);
                const double u =
                    t1 > t0 ? static_cast<double>(covered) /
                                  static_cast<double>(t1 - t0)
                            : 0.0;
                table.addRow({Value::str(name), Value::str(state),
                              Value::number(u)});
            }
            return table;
        }

        table = emptyWindowTable();
        const std::int64_t last = windower.lastIndexBefore(t1);
        // Dense rows (a value for every window) unless that would
        // explode; tiny windows over a long trace fall back to the
        // windows that actually saw the state.
        const bool dense =
            last >= 0 &&
            (last + 1) * static_cast<std::int64_t>(
                             std::max<std::size_t>(streams.size(), 1)) <=
                200000;
        if (dense) {
            table.rows.reserve(static_cast<std::size_t>(last + 1) *
                               streams.size());
            for (std::int64_t k = 0; k <= last; ++k) {
                const Coverage *window = coverageOf(k);
                for (const auto &[stream, name] : streams)
                    addWindowRow(table, k, name,
                                 coveredIn(window, stream));
            }
        } else {
            for (const auto &[k, window] : overlap) {
                for (const auto &[stream, covered] : window)
                    addWindowRow(table, k,
                                 context.dict->streamName(stream),
                                 covered);
            }
        }
        return table;
    }

    /**
     * Fixed windows only. A window's row carries its closed
     * intervals plus, for a state still open past the window's end,
     * the stretch up to that edge — what this fold will account once
     * the interval closes, at or after @p now. Rows are the nonzero
     * ones; the dense final table adds the all-zero rows.
     */
    void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink) override
    {
        if (!context.window)
            return;
        const std::int64_t ended = windower.endedBy(now);
        bool openTarget = false;
        for (const auto &kv : stitch.open())
            openTarget = openTarget || kv.second.sid == targetSid;
        for (std::int64_t k = sealed; k < ended; ++k) {
            if (!openTarget) {
                // Only closed intervals: jump over empty windows.
                const auto next = overlap.lower_bound(k);
                if (next == overlap.end() || next->first >= ended)
                    break;
                k = next->first;
            }
            const sim::Tick wlo = windower.startOf(k);
            const sim::Tick whi = wlo + windower.spec.size;
            Coverage covered;
            if (const Coverage *window = coverageOf(k))
                covered = *window;
            for (const auto &[stream, cur] : stitch.open()) {
                if (cur.sid == targetSid && cur.since < whi)
                    covered[stream] += whi - std::max(cur.since, wlo);
            }
            if (covered.empty())
                continue;
            Table rows = emptyWindowTable();
            for (const auto &[stream, ticks] : covered)
                addWindowRow(rows, k, context.dict->streamName(stream),
                             ticks);
            sink(rows);
        }
        sealed = std::max(sealed, ended);
    }

  private:
    /** Covered ticks of the target state per stream in one window
     *  (only nonzero entries). */
    using Coverage = std::map<unsigned, sim::Tick>;

    static Table
    emptyWindowTable()
    {
        Table table;
        table.columns = {"window_ms", "stream", "state",
                         "utilization"};
        return table;
    }

    void
    addWindowRow(Table &table, std::int64_t k, const std::string &name,
                 sim::Tick covered) const
    {
        // Built in place: a dense table has a row per window and
        // stream, and an initializer list would copy every cell.
        std::vector<Value> row;
        row.reserve(4);
        row.push_back(
            Value::number(sim::toMilliseconds(windower.startOf(k))));
        row.push_back(Value::str(name));
        row.push_back(Value::str(state));
        row.push_back(Value::number(static_cast<double>(covered) /
                                    static_cast<double>(
                                        windower.spec.size)));
        table.addRow(std::move(row));
    }

    const Coverage *
    coverageOf(std::int64_t k) const
    {
        const auto it = overlap.find(k);
        return it == overlap.end() ? nullptr : &it->second;
    }

    static sim::Tick
    coveredIn(const Coverage *window, unsigned stream)
    {
        if (!window)
            return 0;
        const auto it = window->find(stream);
        return it == window->end() ? 0 : it->second;
    }

    /** Window @p k's coverage, created on first use. Intervals
     *  arrive in nearly ascending window order, so the last window
     *  touched is kept at hand. */
    Coverage &
    windowCoverage(std::int64_t k)
    {
        if (recent == overlap.end() || recent->first != k)
            recent = overlap.try_emplace(k).first;
        return recent->second;
    }

    void
    addInterval(unsigned stream, std::uint16_t sid, sim::Tick begin,
                sim::Tick end)
    {
        if (stream >= flatStreamLimit) {
            seenBig.insert(stream);
        } else {
            if (stream >= seenFlat.size())
                seenFlat.resize(stream + 1);
            seenFlat[stream] = 1;
        }
        // An unknown target state compiles to noState, which no
        // tracked interval carries — zero utilization rows.
        if (sid != targetSid)
            return;
        // Clamp to the evaluation range.
        const sim::Tick lo =
            context.hasFrom ? std::max(begin, context.from) : begin;
        const sim::Tick hi =
            context.hasTo ? std::min(end, context.to) : end;
        if (!context.window) {
            if (hi > lo)
                windowCoverage(0)[stream] += hi - lo;
            return;
        }
        const sim::Tick b = std::max(lo, windower.origin);
        if (hi <= b)
            return;
        std::int64_t first = 0;
        std::int64_t unused = 0;
        if (!windower.indicesOf(b, first, unused))
            return;
        const std::int64_t lastTouched = windower.lastIndexBefore(hi);
        for (std::int64_t k = first; k <= lastTouched; ++k) {
            const sim::Tick wlo = windower.startOf(k);
            const sim::Tick whi = wlo + windower.spec.size;
            const sim::Tick a = std::max(lo, wlo);
            const sim::Tick z = std::min(hi, whi);
            if (z > a)
                windowCoverage(k)[stream] += z - a;
        }
    }

    FoldContext context;
    std::string state;
    std::uint16_t targetSid;
    StateStitch stitch;
    Windower windower;
    /** Streams that produced an interval: flat flags below
     *  flatStreamLimit, a set above it. */
    std::vector<char> seenFlat;
    std::set<unsigned> seenBig;
    /** Window index -> coverage (unwindowed: window 0 only). */
    std::map<std::int64_t, Coverage> overlap;
    std::map<std::int64_t, Coverage>::iterator recent = overlap.end();
    /** Windows below this index were handed to a WindowSink. */
    std::int64_t sealed = 0;
};

// --------------------------------------------------------------- latency

class LatencyFold : public ShardMerge::Accumulator
{
  public:
    LatencyFold(const FoldSpec &spec, const FoldContext &ctx)
        : context(ctx), bins(spec.bins), histMax(spec.histMax)
    {
    }

    void
    absorb(ShardFold &shard) override
    {
        // Each stream's gaps in trace order: the edge gap from the
        // last event an earlier shard saw, then the shard's own.
        // Gaps are exact tick differences, so the doubles pushed do
        // not depend on where the shard edges fall.
        for (const auto &kv : static_cast<const LatencyShard &>(shard)
                                  .streams) {
            auto it = carryLast.find(kv.first);
            if (it != carryLast.end())
                pushGap(kv.first, kv.second.first - it->second);
            for (sim::Tick gap : kv.second.gaps)
                pushGap(kv.first, gap);
            carryLast[kv.first] = kv.second.last;
        }
    }

    Table
    finish() override
    {
        Table table;
        if (!bins) {
            table.columns = {"stream", "pairs",  "mean_ms",
                             "min_ms", "max_ms", "stddev_ms"};
            for (const auto &kv : stats) {
                const sim::SummaryStat &s = kv.second;
                table.addRow(
                    {Value::str(context.dict->streamName(kv.first)),
                     Value::count(s.count()),
                     Value::number(s.mean() * 1e-6),
                     Value::number(s.min() * 1e-6),
                     Value::number(s.max() * 1e-6),
                     Value::number(s.stddev() * 1e-6)});
            }
            return table;
        }
        table.columns = {"stream", "bin", "lo_ms", "count"};
        for (const auto &kv : hists) {
            const std::string name =
                context.dict->streamName(kv.first);
            const sim::Histogram &h = kv.second;
            for (std::size_t b = 0; b < h.bins(); ++b) {
                table.addRow({Value::str(name),
                              Value::str(std::to_string(b)),
                              Value::number(h.binLower(b) * 1e-6),
                              Value::count(h.binCount(b))});
            }
            table.addRow(
                {Value::str(name), Value::str("overflow"),
                 Value::number(sim::toMilliseconds(histMax)),
                 Value::count(h.overflow())});
        }
        return table;
    }

  private:
    void
    pushGap(unsigned stream, sim::Tick gapTicks)
    {
        const double gap = static_cast<double>(gapTicks);
        stats[stream].push(gap);
        if (bins) {
            auto h = hists.find(stream);
            if (h == hists.end()) {
                h = hists
                        .emplace(stream,
                                 sim::Histogram(
                                     0.0,
                                     static_cast<double>(histMax),
                                     bins))
                        .first;
            }
            h->second.push(gap);
        }
    }

    FoldContext context;
    std::size_t bins = 0;
    sim::Tick histMax = 0;
    /** The last event per stream of the shards absorbed so far. */
    std::map<unsigned, sim::Tick> carryLast;
    std::map<unsigned, sim::SummaryStat> stats;
    std::map<unsigned, sim::Histogram> hists;
};

// ------------------------------------------------------------------- rtt

class RttFold : public ShardMerge::Accumulator
{
  public:
    RttFold(const FoldSpec &spec, const FoldContext &ctx)
    {
        beginTokens.add(spec.beginPattern, *ctx.dict);
        endTokens.add(spec.endPattern, *ctx.dict);
    }

    void
    absorb(ShardFold &shard) override
    {
        for (const auto &m :
             static_cast<const RttShard &>(shard).buffer) {
            if (beginTokens.contains(m.token)) {
                // Key on the parameter (the job id in the ray
                // tracer's protocol); the first begin wins.
                if (!pending.emplace(m.param, m.ts).second)
                    ++duplicateBegins;
            } else if (endTokens.contains(m.token)) {
                auto it = pending.find(m.param);
                if (it == pending.end()) {
                    ++unmatchedEnds;
                    continue;
                }
                stats.push(static_cast<double>(m.ts - it->second));
                pending.erase(it);
            }
        }
    }

    Table
    finish() override
    {
        Table table;
        table.columns = {"pairs",   "unmatched_begin",
                         "unmatched_end", "mean_ms", "min_ms",
                         "max_ms",  "stddev_ms"};
        table.addRow(
            {Value::count(stats.count()),
             Value::count(pending.size() + duplicateBegins),
             Value::count(unmatchedEnds),
             Value::number(stats.mean() * 1e-6),
             Value::number(stats.min() * 1e-6),
             Value::number(stats.max() * 1e-6),
             Value::number(stats.stddev() * 1e-6)});
        return table;
    }

  private:
    TokenSet beginTokens;
    TokenSet endTokens;
    /** Begin time per open parameter (only its size is reported,
     *  so the order is free). */
    std::unordered_map<std::uint32_t, sim::Tick> pending;
    sim::SummaryStat stats;
    std::uint64_t duplicateBegins = 0;
    std::uint64_t unmatchedEnds = 0;
};

} // namespace

std::uint16_t
StateTable::idOf(const std::string &state) const
{
    auto it = ids.find(state);
    return it == ids.end() ? noState : it->second;
}

std::shared_ptr<const StateTable>
StateTable::compile(const trace::EventDictionary &dict)
{
    auto table = std::make_shared<StateTable>();
    table->states = dict.statesInOrder();
    for (std::size_t i = 0; i < table->states.size(); ++i) {
        table->ids.emplace(table->states[i],
                           static_cast<std::uint16_t>(i));
    }
    table->tokenState.assign(65536, noState);
    // Every Begin definition's state is in statesInOrder() by
    // construction, so no Begin token maps to noState.
    for (const auto &def : dict.definitions()) {
        if (def.kind == trace::EventKind::Begin)
            table->tokenState[def.token] = table->idOf(def.state);
    }
    return table;
}

std::vector<std::uint16_t>
resolveTokenPattern(const std::string &pattern,
                    const trace::EventDictionary &dict)
{
    std::vector<std::uint16_t> tokens;
    if (pattern.empty())
        return tokens;
    const bool hex = pattern.size() > 2 && pattern[0] == '0' &&
                     (pattern[1] == 'x' || pattern[1] == 'X');
    const bool digits =
        !hex && std::all_of(pattern.begin(), pattern.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        });
    if (hex || digits) {
        char *end = nullptr;
        const unsigned long value =
            std::strtoul(pattern.c_str(), &end, hex ? 16 : 10);
        if (end && *end == '\0' && value <= 0xffff)
            tokens.push_back(static_cast<std::uint16_t>(value));
        return tokens;
    }
    for (const auto &def : dict.definitions()) {
        // Match the display name ("Work Begin") and the enum-style
        // identifier ("evWorkBegin") the instrumentation uses.
        std::string ident = "ev";
        for (char c : def.name) {
            if (c != ' ')
                ident += c;
        }
        if (globMatch(pattern, def.name) || globMatch(pattern, ident))
            tokens.push_back(def.token);
    }
    return tokens;
}

void
TokenSet::add(const std::string &pattern,
              const trace::EventDictionary &dict)
{
    for (std::uint16_t t : resolveTokenPattern(pattern, dict))
        bits[t >> 6] |= std::uint64_t(1) << (t & 63);
}

void
ShardFold::onRawBatch(const unsigned char *raw, std::size_t n)
{
    // Generic raw path: decode per record, forward per event. The
    // hot fold kinds override this with a fused loop.
    trace::TraceEvent ev;
    for (std::size_t i = 0; i < n;
         ++i, raw += trace::TraceReader::recordBytes) {
        trace::TraceReader::decodeRecord(raw, ev);
        onEvent(ev);
    }
}

std::unique_ptr<ShardFold>
makeShardFold(const FoldSpec &spec, const FoldContext &ctx)
{
    switch (spec.kind) {
      case FoldKind::States:
      case FoldKind::Utilization:
        return std::make_unique<StateShard>(stateTableFor(ctx));
      case FoldKind::Latency:
        return std::make_unique<LatencyShard>();
      case FoldKind::Rtt:
        return std::make_unique<RttShard>(spec, ctx);
      case FoldKind::Count:
        break;
    }
    return std::make_unique<CountShard>(ctx);
}

ShardMerge::ShardMerge(const FoldSpec &spec, const FoldContext &ctx)
{
    switch (spec.kind) {
      case FoldKind::States:
        acc = std::make_unique<StateAccumulator>(ctx);
        return;
      case FoldKind::Utilization:
        acc = std::make_unique<UtilizationFold>(spec, ctx);
        return;
      case FoldKind::Latency:
        acc = std::make_unique<LatencyFold>(spec, ctx);
        return;
      case FoldKind::Rtt:
        acc = std::make_unique<RttFold>(spec, ctx);
        return;
      case FoldKind::Count:
        break;
    }
    acc = std::make_unique<CountFold>(ctx);
}

ShardMerge::~ShardMerge() = default;

void
ShardMerge::absorb(ShardFold &shard)
{
    acc->absorb(shard);
}

void
ShardMerge::sealWindowsBefore(sim::Tick now, const WindowSink &sink)
{
    acc->sealWindowsBefore(now, sink);
}

Table
ShardMerge::finish()
{
    return acc->finish();
}

} // namespace query
} // namespace supmon
