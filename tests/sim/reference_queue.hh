/**
 * @file
 * The reference event-queue kernel: the original binary-heap
 * (std::priority_queue) scheduler the project started with, kept as
 * the executable specification of scheduler semantics. The ladder
 * queue in event_queue.hh must be observationally identical to this
 * class; the differential property suite
 * (tests/sim/test_ladder_differential.cpp) drives both with random
 * schedules and compares every observable. Only the tests and the
 * scheduler bench (bench/bench_sim_throughput.cpp, through an include
 * path) use it, so it lives here, beside its differential test, and
 * not in the library.
 *
 * One deliberate fix relative to the seed implementation: run() used
 * to copy the whole Item (std::function closure and shared_ptr
 * control block included) out of the priority queue for every event
 * executed. The reference kernel moves it out instead; the seed
 * behaviour survives, for bench comparison only, inside
 * bench/bench_sim_throughput.cpp.
 */

#ifndef SIM_REFERENCE_QUEUE_HH
#define SIM_REFERENCE_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace supmon
{
namespace sim
{

/** Handle to an event scheduled on a ReferenceSimulation. */
class ReferenceEventHandle
{
  public:
    ReferenceEventHandle() = default;

    /** Prevent a pending event from firing. Idempotent. */
    void
    cancel()
    {
        if (auto ctl = control.lock())
            ctl->cancelled = true;
    }

    /** @return true if the handle refers to a not-yet-fired event. */
    bool
    pending() const
    {
        auto ctl = control.lock();
        return ctl && !ctl->cancelled;
    }

  private:
    friend class ReferenceSimulation;

    struct Control
    {
        bool cancelled = false;
    };

    std::weak_ptr<Control> control;
};

/**
 * Binary-heap discrete-event scheduler; same contract as
 * sim::Simulation (see event_queue.hh).
 */
class ReferenceSimulation
{
  public:
    ReferenceSimulation() = default;
    ReferenceSimulation(const ReferenceSimulation &) = delete;
    ReferenceSimulation &operator=(const ReferenceSimulation &) = delete;

    Tick
    now() const
    {
        return curTick;
    }

    ReferenceEventHandle
    scheduleAt(Tick when, std::function<void()> fn)
    {
        if (when < curTick)
            panic("scheduling event in the past (when=%llu, "
                  "now=%llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curTick));
        if (when == maxTick)
            // Same contract as sim::Simulation: maxTick is the
            // run() sentinel, not schedulable time.
            panic("scheduling event at the time horizon (when == "
                  "maxTick)");
        Item item;
        item.when = when;
        item.seq = seqCounter++;
        item.fn = std::move(fn);
        item.control =
            std::make_shared<ReferenceEventHandle::Control>();
        ReferenceEventHandle handle;
        handle.control = item.control;
        queue.push(std::move(item));
        return handle;
    }

    ReferenceEventHandle
    scheduleAfter(Tick delay, std::function<void()> fn)
    {
        return scheduleAt(curTick + delay, std::move(fn));
    }

    std::uint64_t
    run(Tick limit = maxTick)
    {
        std::uint64_t count = 0;
        stopRequested = false;
        while (!queue.empty() && !stopRequested) {
            if (queue.top().when > limit)
                break;
            // priority_queue::top() is const; moving out of it is
            // fine because the element is popped before anything
            // else can observe the heap.
            Item item = std::move(const_cast<Item &>(queue.top()));
            queue.pop();
            curTick = item.when;
            if (item.control->cancelled)
                continue;
            ++executed;
            ++count;
            item.fn();
        }
        if (queue.empty() && curTick < limit && limit != maxTick)
            curTick = limit;
        return count;
    }

    bool
    empty() const
    {
        return queue.empty();
    }

    std::uint64_t
    eventsExecuted() const
    {
        return executed;
    }

    void
    requestStop()
    {
        stopRequested = true;
    }

  private:
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
        std::shared_ptr<ReferenceEventHandle::Control> control;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Item, std::vector<Item>, Later> queue;
    Tick curTick = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t executed = 0;
    bool stopRequested = false;
};

} // namespace sim
} // namespace supmon

#endif // SIM_REFERENCE_QUEUE_HH
