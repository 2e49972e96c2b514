/**
 * @file
 * The per-node operating system kernel of the simulated SUPRENUM.
 *
 * Responsibilities:
 *  - light-weight process (LWP) management and the plain round-robin,
 *    non-preemptive scheduler: a scheduled process runs until it
 *    blocks or relinquishes the processor deliberately;
 *  - the message-passing primitives (rendezvous send / selective
 *    receive) the programming model builds on;
 *  - team-shared EventFlag synchronization;
 *  - access to the node's measurement devices (seven segment display,
 *    V.24 serial port).
 *
 * Processes are C++20 coroutines; all kernel services are awaitables
 * obtained through a ProcessEnv handle:
 *
 * @code
 * sim::Task servant(suprenum::ProcessEnv env) {
 *     for (;;) {
 *         auto job = co_await env.receive(suprenum::withTag(JOB));
 *         co_await env.compute(sim::milliseconds(10));
 *         co_await env.send(master, 128, RESULT, makeResult(job));
 *     }
 * }
 * @endcode
 *
 * Rendezvous semantics: a send() blocks the sender until the receiver
 * *accepts* the message, i.e. until the receiving process is actually
 * dispatched and executes a matching receive. This is true for every
 * transport-level send on SUPRENUM; the mailbox mechanism builds its
 * (intended) asynchrony on top of it - see mailbox.hh and the paper's
 * section 4.3 for why that fails.
 */

#ifndef SUPRENUM_KERNEL_HH
#define SUPRENUM_KERNEL_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "sim/types.hh"
#include "suprenum/config.hh"
#include "suprenum/kernel_events.hh"
#include "suprenum/lwp.hh"
#include "suprenum/message.hh"
#include "suprenum/serial_port.hh"
#include "suprenum/seven_segment.hh"

namespace supmon
{
namespace suprenum
{

class Machine;
class NodeKernel;
class ProcessEnv;

/**
 * One record of the rudimentary software log-file monitoring the
 * paper's introduction dismisses: stamped with the *node-local*
 * clock, because "most parallel systems do not provide a global clock
 * with high resolution".
 */
struct SoftwareLogRecord
{
    /** Node-local clock reading (offset + drift applied). */
    sim::Tick localTimestamp = 0;
    std::uint16_t token = 0;
    std::uint32_t param = 0;
};

/** Factory signature for spawning a process body. */
using ProcessFn = std::function<sim::Task(ProcessEnv)>;

/**
 * Team-shared binary condition, the "shared variable" synchronization
 * used by the communication agents of the paper's version 2/3 ray
 * tracers. Signals are lost if nobody waits; users must re-check
 * their predicate after wake-up (safe here because scheduling is
 * non-preemptive: there is no window between predicate check and
 * wait()).
 */
class EventFlag
{
  public:
    explicit EventFlag(NodeKernel &kernel) : kern(kernel)
    {
    }

    EventFlag(const EventFlag &) = delete;
    EventFlag &operator=(const EventFlag &) = delete;

    /** Wake all waiting processes (they become ready). */
    void signalAll();

    /** Wake the longest-waiting process, if any. */
    void signalOne();

    /** Number of processes currently waiting. */
    std::size_t
    waiterCount() const
    {
        return waiters.size();
    }

  private:
    friend class NodeKernel;
    friend class ProcessEnv;

    NodeKernel &kern;
    std::deque<Lwp *> waiters;
};

/**
 * Node-level summary counters ("accounting"). The paper's point is
 * that such summary data cannot explain behaviour; we expose it so the
 * comparison can be made.
 */
struct NodeAccounting
{
    sim::Tick cpuBusy = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t messagesDelivered = 0;
    /** Messages dropped because their destination had terminated. */
    std::uint64_t messagesDroppedTerminated = 0;
};

class NodeKernel
{
  public:
    NodeKernel(Machine &machine, NodeId id);
    NodeKernel(const NodeKernel &) = delete;
    NodeKernel &operator=(const NodeKernel &) = delete;

    /** @{ identity and environment access */
    Machine &
    machine()
    {
        return mach;
    }

    sim::Simulation &simulation();
    const MachineParams &params() const;
    /** @} */

    /**
     * Create a new light-weight process on this node. Creation is
     * allowed both from setup code and from running processes ("a
     * process can create other processes at any point of time").
     */
    Pid spawn(const std::string &name, ProcessFn fn, unsigned team = 0);

    /** Find an LWP by local id; nullptr if unknown. */
    Lwp *find(std::uint32_t lwp_id);
    const Lwp *find(std::uint32_t lwp_id) const;

    /** All LWPs ever created on this node (for reports/tests). */
    const std::vector<std::unique_ptr<Lwp>> &
    processes() const
    {
        return lwps;
    }

    /** @{ devices */
    SevenSegmentDisplay &
    display()
    {
        return displayDev;
    }

    SerialPort &
    serialPort()
    {
        return serialDev;
    }
    /** @} */

    /**
     * Instrument this node's operating system (the paper's future
     * work): @p probe fires on every dispatch/block/ready/yield/
     * deliver/send/exit. A non-zero @p per_event_cost charges the CPU
     * for each emitted event (software instrumentation of the
     * kernel); zero models an ideal hardware probe.
     */
    void
    setKernelProbe(KernelProbeFn probe, sim::Tick per_event_cost = 0)
    {
        kernProbe = std::move(probe);
        kernProbeCost = per_event_cost;
    }

    /** Events emitted through the kernel probe so far. */
    std::uint64_t
    kernelEventCount() const
    {
        return kernEvents;
    }

    /** @{ node-local clock (no global clock on SUPRENUM!) */
    void
    configureLocalClock(sim::TickDelta offset_ns, double drift_ppm)
    {
        nodeClockOffset = offset_ns;
        nodeClockDriftPpm = drift_ppm;
    }

    /** The node's own clock reading for the current simulated time. */
    sim::Tick localTime() const;
    /** @} */

    /** The software log-file written by log-file instrumentation. */
    const std::vector<SoftwareLogRecord> &
    softwareLog() const
    {
        return softLog;
    }

    /** Node memory accounting: reserve @p bytes; warns when the 8 MB
     *  node memory is exceeded. @return false on overcommit. */
    bool allocateMemory(std::uint64_t bytes, const char *what);

    std::uint64_t
    memoryUsed() const
    {
        return memUsed;
    }

    const NodeAccounting &
    accounting() const
    {
        return acct;
    }

    /**
     * O(1) census: how many LWPs on this node are currently in
     * @p s. Maintained densely by accountState() on every
     * transition — no scan of the LWP table, however large it is.
     */
    std::uint32_t
    stateCount(LwpState s) const
    {
        return stateCensus[static_cast<std::size_t>(s)];
    }

    /** Multi-line state dump for deadlock diagnostics. */
    std::string stateDump() const;

    // ------------------------------------------------------------------
    // Fault-injection interface (used by faults::FaultInjector).
    // ------------------------------------------------------------------

    /**
     * Terminate @p lwp immediately, from outside the process (a
     * hardware fault, not a normal exit). Senders whose messages sit
     * unaccepted in the victim's inbox get their rendezvous completed
     * (connection reset); messages still in flight are dropped on
     * arrival by deliver(). @return false if already terminated.
     */
    bool killLwp(Lwp *lwp);

    /**
     * Revive a killed process: re-create its coroutine from the spawn
     * factory (the process restarts from its entry point) under the
     * same Pid and make it ready. Panics if @p lwp is not terminated.
     */
    void restartLwp(Lwp *lwp);

    /**
     * Freeze the dispatcher until @p until: no process is dispatched
     * while the node is stalled (a currently running process keeps
     * the CPU - scheduling is non-preemptive even for faults).
     */
    void
    stallUntil(sim::Tick until)
    {
        if (until > freezeUntil)
            freezeUntil = until;
    }

    // ------------------------------------------------------------------
    // Machine-internal interface (message transport).
    // ------------------------------------------------------------------

    /** A message arrived at this node for one of its LWPs. */
    void deliver(Message msg);

    /** The rendezvous acknowledgement for @p lwp_id's send arrived. */
    void ackArrived(std::uint32_t lwp_id);

    // ------------------------------------------------------------------
    // Scheduler internals, used by the awaitables in ProcessEnv.
    // ------------------------------------------------------------------

    /** Panic unless @p lwp is the currently running process. */
    void assertRunning(const Lwp &lwp, const char *op) const;

    void makeReady(Lwp *lwp);
    void blockRunning(Lwp *lwp, BlockReason reason);
    void yieldRunning(Lwp *lwp);
    void resumeRunning(Lwp *lwp);
    void beginSend(Lwp *lwp, Message msg);
    bool hasMatch(const Lwp &lwp, const MessageFilter &filter) const;
    Message acceptMatch(Lwp *lwp, const MessageFilter &filter);
    void emitDisplaySequence(Lwp *lwp, const DisplaySequence &patterns,
                             sim::Tick total_cost);
    void emitSerial(Lwp *lwp, std::uint64_t data, unsigned bits);
    void emitSoftwareLog(Lwp *lwp, std::uint16_t token,
                         std::uint32_t param);
    void sleepRunning(Lwp *lwp, sim::Tick duration);
    void waitOnFlag(Lwp *lwp, EventFlag &flag);

  private:
    void maybeScheduleDispatch();
    void dispatch();
    void accountState(Lwp *lwp, LwpState new_state);
    void onTerminated(Lwp *lwp);
    /** Fire the kernel probe (if any); returns its CPU cost. */
    sim::Tick probeKernelEvent(std::uint16_t token,
                               std::uint32_t param);

    Machine &mach;
    NodeId id;

    std::vector<std::unique_ptr<Lwp>> lwps;
    std::deque<Lwp *> readyQueue;
    Lwp *running = nullptr;
    bool dispatchPending = false;
    bool memWarned = false;

    SevenSegmentDisplay displayDev;
    /** Tick of the last write of the display sequence in flight. */
    sim::Tick displayBusyUntil = 0;
    SerialPort serialDev;

    std::uint64_t memUsed = 0;
    NodeAccounting acct;
    /** Dense per-state LWP counts, parallel to LwpState. */
    std::uint32_t stateCensus[lwpStateCount] = {};
    sim::Tick runningSince = 0;

    std::vector<SoftwareLogRecord> softLog;
    sim::TickDelta nodeClockOffset = 0;
    double nodeClockDriftPpm = 0.0;

    KernelProbeFn kernProbe;
    sim::Tick kernProbeCost = 0;
    std::uint64_t kernEvents = 0;
    /** Probe cost accumulated since the last dispatch; charged by
     *  delaying the next dispatched process (the instrumented kernel
     *  pays for its event output on the scheduling path). */
    sim::Tick pendingProbeCost = 0;
    /** Dispatcher freeze deadline set by stallUntil(); 0 = no stall. */
    sim::Tick freezeUntil = 0;
};

/**
 * Handle through which a process coroutine reaches its kernel. Passed
 * by value into the coroutine; all members are awaitables or cheap
 * queries.
 */
class ProcessEnv
{
  public:
    ProcessEnv(NodeKernel &kernel, Lwp &self) : kern(&kernel), lwp(&self)
    {
    }

    /** @{ identity */
    Pid
    pid() const
    {
        return lwp->pid;
    }

    NodeKernel &
    kernel() const
    {
        return *kern;
    }

    Lwp &
    self() const
    {
        return *lwp;
    }

    sim::Tick now() const;
    /** @} */

    // --- awaitables ----------------------------------------------------

    /** Consume CPU for @p duration; the CPU is *held* throughout
     *  (non-preemptive execution). */
    struct ComputeAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;
        sim::Tick duration;

        bool
        await_ready() const
        {
            return duration == 0;
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            kern->assertRunning(*lwp, "compute");
            auto *k = kern;
            auto *l = lwp;
            k->simulation().scheduleAfter(
                duration, [k, l] { k->resumeRunning(l); });
        }

        void
        await_resume()
        {
        }
    };

    ComputeAwaiter
    compute(sim::Tick duration) const
    {
        return {kern, lwp, duration};
    }

    /** Relinquish the processor deliberately (round-robin rotate). */
    struct YieldAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;

        bool
        await_ready() const
        {
            return false;
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            kern->yieldRunning(lwp);
        }

        void
        await_resume()
        {
        }
    };

    YieldAwaiter
    yield() const
    {
        return {kern, lwp};
    }

    /**
     * Rendezvous send: blocks until the destination process accepts
     * the message (is dispatched and executes a matching receive).
     */
    struct SendAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;
        Message msg;

        bool
        await_ready() const
        {
            return false;
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            kern->beginSend(lwp, std::move(msg));
        }

        void
        await_resume()
        {
        }
    };

    SendAwaiter
    send(Pid dst, std::uint32_t bytes, int tag,
         std::any payload = {}) const
    {
        Message m;
        m.dst = dst;
        m.bytes = bytes;
        m.tag = tag;
        m.payload = std::move(payload);
        return {kern, lwp, std::move(m)};
    }

    /** Selective receive; completes when a matching message has been
     *  accepted. Acceptance releases the sender's rendezvous. */
    struct ReceiveAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;
        MessageFilter filter;

        bool
        await_ready() const
        {
            kern->assertRunning(*lwp, "receive");
            return kern->hasMatch(*lwp, filter);
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            lwp->waitFilter = filter;
            kern->blockRunning(lwp, BlockReason::Receive);
        }

        Message
        await_resume()
        {
            return kern->acceptMatch(lwp, filter);
        }
    };

    ReceiveAwaiter
    receive(MessageFilter filter = anyMessage()) const
    {
        return {kern, lwp, std::move(filter)};
    }

    /** Timed sleep (block; CPU free for other processes). */
    struct SleepAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;
        sim::Tick duration;

        bool
        await_ready() const
        {
            return duration == 0;
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            kern->sleepRunning(lwp, duration);
        }

        void
        await_resume()
        {
        }
    };

    SleepAwaiter
    sleep(sim::Tick duration) const
    {
        return {kern, lwp, duration};
    }

    /** Wait on a team-shared EventFlag. */
    struct FlagAwaiter
    {
        NodeKernel *kern;
        Lwp *lwp;
        EventFlag *flag;

        bool
        await_ready() const
        {
            return false;
        }

        void
        await_suspend(std::coroutine_handle<>)
        {
            kern->waitOnFlag(lwp, *flag);
        }

        void
        await_resume()
        {
        }
    };

    FlagAwaiter
    wait(EventFlag &flag) const
    {
        return {kern, lwp, &flag};
    }

  private:
    NodeKernel *kern;
    Lwp *lwp;
};

} // namespace suprenum
} // namespace supmon

#endif // SUPRENUM_KERNEL_HH
