/**
 * @file
 * The discrete-event simulation core.
 *
 * A single Simulation instance drives everything in a run: the SUPRENUM
 * machine model (nodes, buses, node kernels), the ZM4 monitor hardware
 * (event detectors, recorders, tick generator) and the instrumented
 * application processes. Events at equal ticks fire in scheduling
 * (FIFO) order, which makes every run bit-for-bit reproducible.
 *
 * Internally the scheduler is a ladder queue (Tang, Goh & Thng) with a
 * slab of recycled intrusive event records:
 *
 *  - events land in one of four tiers: a FIFO of events at the current
 *    tick, a small sorted "bottom" vector holding the nearest future,
 *    a stack of bucketed rungs covering the mid future, and an
 *    unsorted "top" holding the far future. Enqueue and dequeue are
 *    O(1) amortized; only the small bottom tier is ever sorted.
 *  - event records live in chunked slabs recycled through a free
 *    list; the callable is stored inline in the record (see
 *    small_func.hh) and invoked in place, so the hot path neither
 *    allocates nor copies closures.
 *  - EventHandle is a {slot index, generation} pair plus a pointer to
 *    a shared lifetime tag: cancel() and pending() are plain array
 *    lookups guarded by the generation counter — no atomics, no
 *    per-event allocation — and handles stay safe (inert) after the
 *    event fired, the slot was recycled, or the Simulation died.
 *
 * Determinism: every dequeue removes the globally smallest
 * (when, seq) pair. The tiers partition simulated time — top holds
 * [topStart, inf), rungs tile [bottomEnd, topStart), bottom holds
 * (curTick, bottomEnd) plus same-tick leftovers, the FIFO holds
 * curTick — so rung spills only move events between tiers without
 * ever reordering equal (when, seq) keys, and same-tick FIFO order
 * survives every restructure. See ARCHITECTURE.md §15.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "small_func.hh"
#include "types.hh"

namespace supmon
{
namespace sim
{

class Simulation;

namespace detail
{

/**
 * Shared lifetime tag: one per Simulation (not per event). Handles
 * hold a pointer to it; the Simulation clears @c sim on destruction
 * so outliving handles become inert instead of dangling. The
 * refcount is deliberately non-atomic — the simulation core is
 * single-threaded by contract.
 */
struct LifeTag
{
    Simulation *sim;
    std::uint32_t refs;
};

} // namespace detail

/**
 * Handle to a scheduled event, allowing cancellation. Handles are
 * cheap, copyable and remain valid after the event has fired
 * (cancel() then simply has no effect), after the slot has been
 * recycled for another event, and even after the Simulation itself
 * has been destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    EventHandle(const EventHandle &other)
        : tag(other.tag), slot(other.slot), gen(other.gen)
    {
        if (tag)
            ++tag->refs;
    }

    EventHandle(EventHandle &&other) noexcept
        : tag(other.tag), slot(other.slot), gen(other.gen)
    {
        other.tag = nullptr;
    }

    EventHandle &
    operator=(const EventHandle &other)
    {
        if (this != &other) {
            release();
            tag = other.tag;
            slot = other.slot;
            gen = other.gen;
            if (tag)
                ++tag->refs;
        }
        return *this;
    }

    EventHandle &
    operator=(EventHandle &&other) noexcept
    {
        if (this != &other) {
            release();
            tag = other.tag;
            slot = other.slot;
            gen = other.gen;
            other.tag = nullptr;
        }
        return *this;
    }

    ~EventHandle()
    {
        release();
    }

    /** Prevent a pending event from firing. Idempotent. */
    void cancel();

    /** @return true if the handle refers to a not-yet-fired event. */
    bool pending() const;

  private:
    friend class Simulation;

    EventHandle(detail::LifeTag *t, std::uint32_t s, std::uint32_t g)
        : tag(t), slot(s), gen(g)
    {
        ++tag->refs;
    }

    void release();

    detail::LifeTag *tag = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
};

/**
 * The global event-driven simulation.
 *
 * Usage:
 * @code
 * Simulation simul;
 * simul.scheduleAfter(microseconds(5), [] { ... });
 * simul.run();
 * @endcode
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick
    now() const
    {
        return curTick;
    }

    /**
     * Schedule @p fn to run at absolute time @p when, which must be
     * in [now(), maxTick) — maxTick itself is the run() sentinel,
     * not schedulable time. The callable is constructed directly
     * into a recycled event record; closures up to
     * SmallEventFunc::inlineSize bytes never touch the heap.
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn)
    {
        const std::uint32_t slot = prepareSlot(when);
        EventRecord &rec = recordAt(slot);
        // prepareSlot started the target bucket's cache line
        // loading; the callable copy below overlaps that latency
        // before commitSlot touches the bucket.
        rec.fn.emplace(std::forward<F>(fn));
        commitSlot(slot);
        return EventHandle(lifeTag, slot, rec.gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        return scheduleAt(curTick + delay, std::forward<F>(fn));
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     * @return the number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** @return true if no events remain (cancelled ones count). */
    bool
    empty() const
    {
        return queuedCount == 0;
    }

    /** Total number of events executed so far. */
    std::uint64_t
    eventsExecuted() const
    {
        return executed;
    }

    /**
     * Request that run() return after finishing the current event.
     * Used by termination detectors.
     */
    void
    requestStop()
    {
        stopRequested = true;
    }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t nil = 0xffffffffu;

    /** Slab chunking: 512 records x 128 bytes = 64 KiB per chunk. */
    static constexpr std::uint32_t chunkShift = 9;
    static constexpr std::uint32_t chunkSize = 1u << chunkShift;
    static constexpr std::uint32_t chunkMask = chunkSize - 1;

    /**
     * Rung-size ceiling. Rungs are sized calendar-style to ~one
     * bucket per expected event (so chains stay ~1 deep and every
     * event is re-bucketed O(1) times on its way to bottom), capped
     * here to bound a single rung's bucket array at 16 MiB even
     * when millions of events are pending.
     */
    static constexpr std::uint64_t maxRungBuckets = 1u << 21;
    /** A bucket larger than this spawns a sub-rung (if width > 1). */
    static constexpr std::uint32_t bucketSpillLimit = 64;
    /** The sorted bottom tier spills into a rung beyond this size. */
    static constexpr std::size_t bottomSpillLimit = 2048;
    /**
     * Refill consumes consecutive buckets until it has collected at
     * least this many events, so the sort and per-refill bookkeeping
     * amortize even when calendar sizing leaves ~1 event per bucket.
     */
    static constexpr std::uint32_t refillBatch = 64;
    /** Rung-stack depth limit; beyond it buckets sort into bottom. */
    static constexpr std::size_t maxRungs = 8;

    /**
     * One slab slot. 32 bytes of ordering/lifetime header plus the
     * 96-byte inline callable = 128 bytes, a power-of-two multiple
     * of the cache line. @c next doubles as the free-list link and
     * the rung-bucket chain.
     */
    struct EventRecord
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = nil;
        std::uint32_t gen = 0;
        bool cancelled = false;
        SmallEventFunc fn;
    };

    /** Sort key + slot, for the sorted bottom / unsorted top tiers. */
    struct QEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /**
     * One rung: buckets of width @c width ticks starting at
     * @c start, covering [start, end). Buckets chain event records
     * through EventRecord::next, newest push at the head; pushes
     * always happen in ascending per-tick seq order, so a
     * single-tick (width-1) chain reads in exact descending
     * (when, seq) order and needs no sort when consumed into
     * bottom. Width>1 chains are sorted once, on consumption.
     */
    /**
     * One bucket: intrusive chain head plus its length, in a single
     * 8-byte unit so a bucket access costs one cache line, not two
     * (head and count always travel together on the hot paths).
     */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t count = 0;
    };

    struct Rung
    {
        Tick start;
        Tick width;
        Tick end;
        std::size_t cur;
        std::vector<Bucket> buckets;
    };

    EventRecord &
    recordAt(std::uint32_t slot)
    {
        return chunks[slot >> chunkShift][slot & chunkMask];
    }

    const EventRecord &
    recordAt(std::uint32_t slot) const
    {
        return chunks[slot >> chunkShift][slot & chunkMask];
    }

    /** Validate @p when, allocate a record, and enqueue it. */
    std::uint32_t prepareSlot(Tick when);
    void commitSlot(std::uint32_t slot);
    void prefetchBucket(Tick when) const;

    std::uint32_t allocRecord();
    void releaseRecord(std::uint32_t slot);

    /** Place an already-filled record into the correct tier. */
    void enqueueSlot(std::uint32_t slot);

    /** Refill the bottom tier from rungs or top. @return any left? */
    bool refill();
    void spillTop();
    void spillBottom();
    Rung makeRung(Tick lo, Tick hi, std::size_t count) const;
    void rungPush(Rung &rung, const QEntry &entry);
    void recomputeBottomEnd();
    void insertBottom(QEntry entry);

    /** Strict ordering: true if @p a fires after @p b. */
    static bool
    laterOrder(const QEntry &a, const QEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** EventHandle back-ends (slot + generation checked). */
    void cancelSlot(std::uint32_t slot, std::uint32_t gen);
    bool pendingSlot(std::uint32_t slot, std::uint32_t gen) const;

    // --- Slab -------------------------------------------------------
    std::vector<std::unique_ptr<EventRecord[]>> chunks;
    std::uint32_t freeHead = nil;
    std::uint32_t totalSlots = 0;

    // --- Tiers ------------------------------------------------------
    std::vector<QEntry> nowFifo; //!< events at curTick, FIFO order
    std::size_t nowHead = 0;
    std::vector<QEntry> bottom;  //!< sorted descending by (when, seq)
    std::vector<Rung> rungs;     //!< back() is the nearest future
    std::vector<QEntry> top;     //!< unsorted far future
    Tick bottomEnd = 0;          //!< events below this go to bottom
    Tick topStart = 0;           //!< events at/above this go to top
    Tick topMin = maxTick;
    Tick topMax = 0;

    // --- Bookkeeping ------------------------------------------------
    Tick curTick = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t executed = 0;
    std::uint64_t queuedCount = 0;
    bool stopRequested = false;
    detail::LifeTag *lifeTag;
};

} // namespace sim
} // namespace supmon

#endif // SIM_EVENT_QUEUE_HH
