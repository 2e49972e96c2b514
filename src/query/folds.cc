#include "folds.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <numeric>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

namespace
{

/** Stream ids below this fit the packed interval arena's 16-bit
 *  field (StateShard). */
constexpr unsigned packedStreamLimit = 1u << 16;

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
 * open states live in a StreamTable.
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
        Slot &cur = slots[ev.stream];
        if (!cur.isOpen)
            cur.firstBegin = ev.timestamp;
        else if (ev.timestamp > cur.since)
            emit(ev.stream, cur.sid, cur.since, ev.timestamp);
        cur.sid = sid;
        cur.since = ev.timestamp;
        cur.isOpen = true;
    }

    /** Visit (stream, slot) of every stream that has seen a Begin. */
    template <typename F>
    void
    forEachOpen(F &&f) const
    {
        slots.forEach([&f](unsigned stream, const Slot &cur) {
            if (cur.isOpen)
                f(stream, cur);
        });
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
    StreamTable<Slot> slots;
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

/**
 * Open-addressing integer-sum table, the home of every order-free
 * integer aggregate: (stream, token) counts keyed (stream << 16) |
 * token, covered ticks keyed by stream. Keys are below 2^48, so the
 * all-ones empty sentinel is never a real key; power-of-two capacity,
 * linear probing, growth at 3/4 load. A table starts at 8 slots, so
 * memory follows the keys held (one table per window, per live batch).
 */
class CountTable
{
  public:
    void
    add(std::uint64_t key, std::uint64_t n)
    {
        const std::size_t i = probeOf(key);
        if (keys[i] == key)
            vals[i] += n;
        else
            insert(key, n);
    }

    /** The sum of @p key; 0 when absent. */
    std::uint64_t
    find(std::uint64_t key) const
    {
        const std::size_t i = probeOf(key);
        return keys[i] == key ? vals[i] : 0;
    }

    std::size_t
    size() const
    {
        return used;
    }

    /** Every (key, sum) pair, keys ascending. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    sorted() const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        out.reserve(used);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] != emptyKey)
                out.emplace_back(keys[i], vals[i]);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Add every sum of @p other. */
    void
    addAll(const CountTable &other)
    {
        // Size for the union first: fed another table's slot order,
        // a smaller table would pile its keys into one long cluster.
        std::size_t capacity = keys.size();
        while ((used + other.used) * 4 > capacity * 3)
            capacity *= 2;
        if (capacity != keys.size())
            rehash(capacity);
        for (std::size_t i = 0; i < other.keys.size(); ++i) {
            if (other.keys[i] != emptyKey)
                add(other.keys[i], other.vals[i]);
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
                        mask;
        while (keys[i] != emptyKey && keys[i] != key)
            i = (i + 1) & mask;
        return i;
    }

    /** add() of a new key (out of line, so that add() inlines into
     *  per-event loops). */
    [[gnu::noinline]] void
    insert(std::uint64_t key, std::uint64_t n)
    {
        if ((used + 1) * 4 > (mask + 1) * 3)
            rehash((mask + 1) * 2);
        const std::size_t i = probeOf(key);
        keys[i] = key;
        vals[i] = n;
        ++used;
    }

    void
    rehash(std::size_t capacity)
    {
        const std::vector<std::uint64_t> oldKeys = std::move(keys);
        const std::vector<std::uint64_t> oldVals = std::move(vals);
        keys.assign(capacity, emptyKey);
        vals.assign(capacity, 0);
        mask = capacity - 1;
        for (std::size_t i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] == emptyKey)
                continue;
            const std::size_t j = probeOf(oldKeys[i]);
            keys[j] = oldKeys[i];
            vals[j] = oldVals[i];
        }
    }

    /** Capacity - 1. */
    std::size_t mask = 7;
    std::size_t used = 0;
    std::vector<std::uint64_t> keys =
        std::vector<std::uint64_t>(8, emptyKey);
    std::vector<std::uint64_t> vals = std::vector<std::uint64_t>(8, 0);
};

/**
 * Window index -> CountTable, each created on first touch, so memory
 * follows the keys held, not the windows a silence spans. The window
 * last looked up is kept at hand (time-ordered input touches windows
 * in nearly ascending order).
 */
class WindowSums
{
  public:
    std::map<std::int64_t, CountTable> tables;

    CountTable &
    at(std::int64_t k)
    {
        if (recent == tables.end() || recent->first != k)
            recent = tables.try_emplace(k).first;
        return recent->second;
    }

    /** Call @p f(k, table) for the windows lo..hi, ascending. */
    template <typename F>
    void
    forRange(std::int64_t lo, std::int64_t hi, F &&f)
    {
        if (lo > hi)
            return;
        auto it = (at(lo), recent);
        for (std::int64_t k = lo;; ++k) {
            f(k, it->second);
            if (k == hi)
                return;
            const auto next = std::next(it);
            it = next != tables.end() && next->first == k + 1
                     ? next
                     : tables.emplace_hint(next, k + 1, CountTable());
        }
    }

    /** Window @p k's table, or nullptr if nothing touched it. */
    const CountTable *
    find(std::int64_t k) const
    {
        const auto it = tables.find(k);
        return it == tables.end() ? nullptr : &it->second;
    }

  private:
    std::map<std::int64_t, CountTable>::iterator recent = tables.end();
};

/**
 * The dense stream-slot index: each stream id gets the next slot on
 * first sight, so per-stream accumulators are vectors sized by the
 * streams seen, not by the largest id. Token ids index names the
 * same way.
 */
class SlotIndex
{
  public:
    /** The slot of @p id, assigned on first sight. */
    std::uint32_t
    slotOf(unsigned id)
    {
        std::uint32_t &slot = index[id];
        return slot != none ? slot : assign(slot, id);
    }

    std::size_t
    size() const
    {
        return ids.size();
    }

    unsigned
    idOf(std::uint32_t slot) const
    {
        return ids[slot];
    }

    /** Every slot, ids ascending. */
    std::vector<std::uint32_t>
    ascending() const
    {
        std::vector<std::uint32_t> order(ids.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return ids[a] < ids[b];
                  });
        return order;
    }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t(0);

    /** First sight of @p id (out of line, so that slotOf() inlines
     *  into per-event and per-interval loops). */
    [[gnu::noinline]] std::uint32_t
    assign(std::uint32_t &slot, unsigned id)
    {
        slot = static_cast<std::uint32_t>(ids.size());
        ids.push_back(id);
        return slot;
    }

    StreamTable<std::uint32_t> index{none};
    std::vector<unsigned> ids;
};

/** The stream and token names a fold renders, each resolved once;
 *  a returned name is copied into a cell before the next lookup. */
class Names
{
  public:
    explicit Names(const trace::EventDictionary &d) : dict(d) {}

    const std::string &
    stream(unsigned id)
    {
        const std::uint32_t slot = streamSlots.slotOf(id);
        if (slot == streamNames.size())
            streamNames.push_back(dict.streamName(id));
        return streamNames[slot];
    }

    const std::string &
    token(std::uint16_t id)
    {
        const std::uint32_t slot = tokenSlots.slotOf(id);
        if (slot == tokenNames.size()) {
            const trace::EventDef *def = dict.find(id);
            tokenNames.push_back(def ? def->name
                                     : sim::strprintf("0x%04x", id));
        }
        return tokenNames[slot];
    }

  private:
    const trace::EventDictionary &dict;
    SlotIndex streamSlots;
    SlotIndex tokenSlots;
    std::vector<std::string> streamNames;
    std::vector<std::string> tokenNames;
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

class CountShard final : public ShardFold
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
            counts.add(packKey(ev.stream, ev.token), 1);
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        if (windowed) {
            for (std::size_t i = 0; i < n; ++i)
                buffer.push_back({events[i].timestamp, events[i].stream,
                                  events[i].token});
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            counts.add(packKey(events[i].stream, events[i].token), 1);
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        // Fused decode + count: the record never leaves registers.
        trace::TraceEvent ev;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            CountShard::onEvent(ev);
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
        : table(std::move(state_table))
    {
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        StateShard::onBatch(&ev, 1);
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
        if (stream < packedStreamLimit && d < wideDur) {
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
        const std::uint32_t slot = slots.slotOf(ev.stream);
        if (slot == streams.size()) {
            streams.push_back({ev.timestamp, ev.timestamp, {}});
            return;
        }
        PerStream &s = streams[slot];
        s.gaps.push_back(ev.timestamp - s.last);
        s.last = ev.timestamp;
    }

    struct PerStream
    {
        sim::Tick first;
        sim::Tick last;
        /** Exact tick gaps, in event order. */
        std::vector<sim::Tick> gaps;
    };

    /** Stream id -> index into `streams` (first-seen order). */
    SlotIndex slots;
    std::vector<PerStream> streams;
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

    /** The evaluation range [t0, t1): @p ctx's explicit bounds, else
     *  the first absorbed event and closeTime(). */
    std::pair<sim::Tick, sim::Tick>
    range(const FoldContext &ctx) const
    {
        return {ctx.hasFrom ? ctx.from : firstTs,
                ctx.hasTo ? ctx.to : closeTime(ctx.traceEnd)};
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

class CountFold : public ShardMerge
{
  public:
    explicit CountFold(const FoldContext &ctx)
        : context(ctx), names(*ctx.dict)
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
        if (!s.windowed) {
            counts.at(0).addAll(s.counts);
            return;
        }
        // Windowed counts bucket against the global origin: the
        // first accepted event, held by the first non-empty shard.
        for (const MiniEvent &m : s.buffer) {
            windower.anchor(m.ts);
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            if (!windower.indicesOf(m.ts, lo, hi))
                continue;
            const std::uint64_t key =
                CountShard::packKey(m.stream, m.token);
            counts.forRange(lo, hi, [key](std::int64_t, CountTable &t) {
                t.add(key, 1);
            });
        }
    }

    Table
    finish() override
    {
        Table table = emptyTable();
        std::size_t rows = 0;
        for (const auto &kv : counts.tables)
            rows += kv.second.size();
        table.rows.reserve(rows);
        for (const auto &[k, window] : counts.tables)
            addRows(table, k, window);
        return table;
    }

    void
    sealWindowsBefore(sim::Tick now, const WindowSink &sink) override
    {
        if (!context.window)
            return;
        // Windows ascending, each window's rows in finish()'s order.
        const std::int64_t ended = windower.endedBy(now);
        for (auto it = counts.tables.lower_bound(sealed);
             it != counts.tables.end() && it->first < ended; ++it) {
            Table table = emptyTable();
            table.rows.reserve(it->second.size());
            addRows(table, it->first, it->second);
            sink(table);
        }
        sealed = std::max(sealed, ended);
    }

  private:
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

    /** Window @p k's rows, (stream, token) ascending. */
    void
    addRows(Table &table, std::int64_t k, const CountTable &window)
    {
        const double startMs = sim::toMilliseconds(windower.startOf(k));
        for (const auto &[key, n] : window.sorted()) {
            Value stream =
                Value::str(names.stream(static_cast<unsigned>(key >> 16)));
            Value event = Value::str(
                names.token(static_cast<std::uint16_t>(key & 0xffff)));
            if (context.window)
                table.emplaceRow(Value::number(startMs), std::move(stream),
                                 std::move(event), Value::count(n));
            else
                table.emplaceRow(std::move(stream), std::move(event),
                                 Value::count(n));
        }
    }

    FoldContext context;
    Windower windower;
    Names names;
    /** Window index -> (stream, token) counts (unwindowed: window 0). */
    WindowSums counts;
    /** Windows below this index were handed to a WindowSink. */
    std::int64_t sealed = 0;
};

// ---------------------------------------------------------------- states

/**
 * Per-(stream, state) accumulator for `states`: each stream's states
 * are one run of a vector indexed by the stream's dense slot, so
 * replaying the stitched interval stream costs a few loads per
 * interval and memory follows the streams seen. Each key sees the
 * same SummaryStat::push / clamped-overlap sequence as
 * trace::ActivityMap::durationStats() and finish() renders streams
 * ascending, states in id = statesInOrder() order.
 */
class StateAccumulator : public ShardMerge
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
                      [this](auto... interval) { add(interval...); });
    }

    Table
    finish() override
    {
        stitch.close(context.traceEnd,
                     [this](auto... interval) { add(interval...); });
        const auto [t0, t1] = stitch.range(context);
        Table out;
        out.columns = {"stream",  "state",  "count",
                       "total_ms", "mean_ms", "min_ms",
                       "max_ms",  "share"};
        out.rows.reserve(keys.size());
        for (std::uint32_t slot : streams.ascending()) {
            const std::string name =
                context.dict->streamName(streams.idOf(slot));
            for (std::size_t sid = 0; sid < nStates; ++sid) {
                const Slot &k = keys[slot * nStates + sid];
                if (k.stat.count() == 0)
                    continue;
                out.emplaceRow(
                    Value::str(name), Value::str(table->states[sid]),
                    Value::count(k.stat.count()),
                    Value::number(k.stat.sum() * 1e-6),
                    Value::number(k.stat.mean() * 1e-6),
                    Value::number(k.stat.min() * 1e-6),
                    Value::number(k.stat.max() * 1e-6),
                    Value::number(t1 > t0 ? static_cast<double>(k.covered) /
                                                static_cast<double>(t1 - t0)
                                          : 0.0));
            }
        }
        return out;
    }

  private:
    struct Slot
    {
        sim::SummaryStat stat;
        sim::Tick covered = 0;
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
        const std::size_t index = streams.slotOf(stream) * nStates + sid;
        if (index >= keys.size())
            growKeys();
        Slot &k = keys[index];
        k.stat.push(static_cast<double>(end - begin));
        k.covered += hi - lo;
    }

    /** Out of line, so that add() stays small enough to inline into
     *  the stitch's interval replay loop. */
    [[gnu::noinline]] void
    growKeys()
    {
        keys.resize(streams.size() * nStates);
    }

    FoldContext context;
    std::shared_ptr<const StateTable> table;
    std::size_t nStates;
    StateStitch stitch;
    SlotIndex streams;
    /** (stream slot, state id) -> statistics, slot-major. */
    std::vector<Slot> keys;
};

// ----------------------------------------------------------- utilization

class UtilizationFold : public ShardMerge
{
  public:
    UtilizationFold(const FoldSpec &spec, const FoldContext &ctx)
        : context(ctx), state(spec.state),
          targetSid(stateTableFor(ctx)->idOf(state)), names(*ctx.dict)
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
        stitch.absorb(s, [this](auto... iv) { addInterval(iv...); });
    }

    Table
    finish() override
    {
        stitch.close(context.traceEnd,
                     [this](auto... iv) { addInterval(iv...); });
        const auto [t0, t1] = stitch.range(context);
        // Every stream with an interval, ascending.
        std::vector<unsigned> streams;
        for (std::uint32_t slot : seen.ascending())
            streams.push_back(seen.idOf(slot));

        Table table;
        if (!context.window) {
            table.columns = {"stream", "state", "utilization"};
            table.rows.reserve(streams.size());
            const CountTable *whole = overlap.find(0);
            for (unsigned stream : streams) {
                const sim::Tick covered = whole ? whole->find(stream) : 0;
                table.emplaceRow(
                    Value::str(names.stream(stream)), Value::str(state),
                    Value::number(t1 > t0 ? static_cast<double>(covered) /
                                                static_cast<double>(t1 - t0)
                                          : 0.0));
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
                const CountTable *window = overlap.find(k);
                for (unsigned stream : streams)
                    addWindowRow(table, k, stream,
                                 window ? window->find(stream) : 0);
            }
        } else {
            std::size_t rows = 0;
            for (const auto &kv : overlap.tables)
                rows += kv.second.size();
            table.rows.reserve(rows);
            for (const auto &[k, window] : overlap.tables) {
                for (const auto &[stream, covered] : window.sorted())
                    addWindowRow(table, k, static_cast<unsigned>(stream),
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
                const auto next = overlap.tables.lower_bound(k);
                if (next == overlap.tables.end() || next->first >= ended)
                    break;
                k = next->first;
            }
            const sim::Tick wlo = windower.startOf(k);
            const sim::Tick whi = wlo + windower.spec.size;
            CountTable covered;
            if (const CountTable *window = overlap.find(k))
                covered = *window;
            for (const auto &[stream, cur] : stitch.open()) {
                if (cur.sid == targetSid && cur.since < whi)
                    covered.add(stream, whi - std::max(cur.since, wlo));
            }
            if (covered.size() == 0)
                continue;
            Table rows = emptyWindowTable();
            rows.rows.reserve(covered.size());
            for (const auto &[stream, ticks] : covered.sorted())
                addWindowRow(rows, k, static_cast<unsigned>(stream),
                             ticks);
            sink(rows);
        }
        sealed = std::max(sealed, ended);
    }

  private:
    static Table
    emptyWindowTable()
    {
        Table table;
        table.columns = {"window_ms", "stream", "state",
                         "utilization"};
        return table;
    }

    void
    addWindowRow(Table &table, std::int64_t k, unsigned stream,
                 sim::Tick covered)
    {
        table.emplaceRow(
            Value::number(sim::toMilliseconds(windower.startOf(k))),
            Value::str(names.stream(stream)), Value::str(state),
            Value::number(static_cast<double>(covered) /
                          static_cast<double>(windower.spec.size)));
    }

    void
    addInterval(unsigned stream, std::uint16_t sid, sim::Tick begin,
                sim::Tick end)
    {
        seen.slotOf(stream);
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
                overlap.at(0).add(stream, hi - lo);
            return;
        }
        const sim::Tick b = std::max(lo, windower.origin);
        if (hi <= b)
            return;
        std::int64_t first = 0;
        std::int64_t unused = 0;
        if (!windower.indicesOf(b, first, unused))
            return;
        overlap.forRange(
            first, windower.lastIndexBefore(hi),
            [&](std::int64_t k, CountTable &window) {
                const sim::Tick wlo = windower.startOf(k);
                const sim::Tick a = std::max(lo, wlo);
                const sim::Tick z = std::min(hi, wlo + windower.spec.size);
                if (z > a)
                    window.add(stream, z - a);
            });
    }

    FoldContext context;
    std::string state;
    std::uint16_t targetSid;
    StateStitch stitch;
    Windower windower;
    Names names;
    /** Streams that produced an interval. */
    SlotIndex seen;
    /** Window index -> covered ticks of the target state per stream
     *  (unwindowed: window 0 only). */
    WindowSums overlap;
    /** Windows below this index were handed to a WindowSink. */
    std::int64_t sealed = 0;
};

// --------------------------------------------------------------- latency

class LatencyFold : public ShardMerge
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
        const auto &s = static_cast<const LatencyShard &>(shard);
        for (std::uint32_t i = 0; i < s.streams.size(); ++i) {
            const LatencyShard::PerStream &in = s.streams[i];
            const std::uint32_t slot = slots.slotOf(s.slots.idOf(i));
            const bool carried = slot < streams.size();
            if (!carried) {
                streams.push_back({in.first, {}});
                if (bins)
                    hists.emplace_back(0.0, static_cast<double>(histMax),
                                       bins);
            }
            PerStream &out = streams[slot];
            sim::Histogram *hist = bins ? &hists[slot] : nullptr;
            auto push = [&out, hist](sim::Tick ticks) {
                const double gap = static_cast<double>(ticks);
                out.stat.push(gap);
                if (hist)
                    hist->push(gap);
            };
            if (carried)
                push(in.first - out.last);
            for (sim::Tick gap : in.gaps)
                push(gap);
            out.last = in.last;
        }
    }

    Table
    finish() override
    {
        Table table;
        const std::vector<std::uint32_t> order = slots.ascending();
        if (!bins) {
            table.columns = {"stream", "pairs",  "mean_ms",
                             "min_ms", "max_ms", "stddev_ms"};
            table.rows.reserve(streams.size());
            for (std::uint32_t slot : order) {
                const sim::SummaryStat &s = streams[slot].stat;
                if (s.count() == 0)
                    continue;
                table.emplaceRow(
                    Value::str(context.dict->streamName(slots.idOf(slot))),
                    Value::count(s.count()), Value::number(s.mean() * 1e-6),
                    Value::number(s.min() * 1e-6),
                    Value::number(s.max() * 1e-6),
                    Value::number(s.stddev() * 1e-6));
            }
            return table;
        }
        // Every histogram has the same bins: one label and lower
        // edge per bin, then the overflow bin.
        const sim::Histogram shape(0.0, static_cast<double>(histMax),
                                   bins);
        std::vector<std::pair<std::string, double>> binCells;
        for (std::size_t b = 0; b < shape.bins(); ++b)
            binCells.emplace_back(std::to_string(b),
                                  shape.binLower(b) * 1e-6);
        binCells.emplace_back("overflow", sim::toMilliseconds(histMax));
        table.columns = {"stream", "bin", "lo_ms", "count"};
        table.rows.reserve(streams.size() * binCells.size());
        for (std::uint32_t slot : order) {
            if (streams[slot].stat.count() == 0)
                continue;
            const std::string name =
                context.dict->streamName(slots.idOf(slot));
            const sim::Histogram &h = hists[slot];
            for (std::size_t b = 0; b < binCells.size(); ++b) {
                table.emplaceRow(
                    Value::str(name), Value::str(binCells[b].first),
                    Value::number(binCells[b].second),
                    Value::count(b < h.bins() ? h.binCount(b)
                                              : h.overflow()));
            }
        }
        return table;
    }

  private:
    /** One stream's merge state. */
    struct PerStream
    {
        /** The last event of the shards absorbed so far. */
        sim::Tick last;
        sim::SummaryStat stat;
    };

    FoldContext context;
    std::size_t bins = 0;
    sim::Tick histMax = 0;
    SlotIndex slots;
    std::vector<PerStream> streams;
    /** Per slot, when `bins` is set. */
    std::vector<sim::Histogram> hists;
};

// ------------------------------------------------------------------- rtt

class RttFold : public ShardMerge
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
        table.emplaceRow(Value::count(stats.count()),
                         Value::count(pending.size() + duplicateBegins),
                         Value::count(unmatchedEnds),
                         Value::number(stats.mean() * 1e-6),
                         Value::number(stats.min() * 1e-6),
                         Value::number(stats.max() * 1e-6),
                         Value::number(stats.stddev() * 1e-6));
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

std::unique_ptr<ShardMerge>
makeShardMerge(const FoldSpec &spec, const FoldContext &ctx)
{
    switch (spec.kind) {
      case FoldKind::States:
        return std::make_unique<StateAccumulator>(ctx);
      case FoldKind::Utilization:
        return std::make_unique<UtilizationFold>(spec, ctx);
      case FoldKind::Latency:
        return std::make_unique<LatencyFold>(spec, ctx);
      case FoldKind::Rtt:
        return std::make_unique<RttFold>(spec, ctx);
      case FoldKind::Count:
        break;
    }
    return std::make_unique<CountFold>(ctx);
}

} // namespace query
} // namespace supmon
