#include "kernel.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "suprenum/machine.hh"

namespace supmon
{
namespace suprenum
{

// Parallel to the LwpState / BlockReason enumerators.
const char *const lwpStateLabels[lwpStateCount] = {
    "created", "ready", "running", "blocked", "terminated",
};

const char *const blockReasonLabels[blockReasonCount] = {
    "none", "receive", "send-rendezvous", "flag", "sleep",
};

void
EventFlag::signalAll()
{
    while (!waiters.empty()) {
        Lwp *l = waiters.front();
        waiters.pop_front();
        // A fault may have killed a process while it waited.
        if (l->state != LwpState::Terminated)
            kern.makeReady(l);
    }
}

void
EventFlag::signalOne()
{
    while (!waiters.empty()) {
        Lwp *l = waiters.front();
        waiters.pop_front();
        if (l->state != LwpState::Terminated) {
            kern.makeReady(l);
            return;
        }
    }
}

NodeKernel::NodeKernel(Machine &machine, NodeId node_id)
    : mach(machine), id(node_id),
      serialDev(machine.params().terminalBitsPerSec)
{
}

sim::Simulation &
NodeKernel::simulation()
{
    return mach.sim();
}

const MachineParams &
NodeKernel::params() const
{
    return mach.params();
}

sim::Tick
ProcessEnv::now() const
{
    return kern->simulation().now();
}

Pid
NodeKernel::spawn(const std::string &name, ProcessFn fn, unsigned team)
{
    auto lwp = std::make_unique<Lwp>();
    Lwp *l = lwp.get();
    l->pid = Pid{id, static_cast<std::uint32_t>(lwps.size())};
    l->name = name;
    l->team = team;
    l->stateSince = simulation().now();
    ++stateCensus[static_cast<std::size_t>(LwpState::Created)];
    lwps.push_back(std::move(lwp));

    // Keep the callable alive in the control block: coroutine lambdas
    // keep their captures in the closure object, so destroying it
    // while the coroutine is suspended would dangle.
    ProcessEnv env(*this, *l);
    l->factory = [body = std::move(fn), env]() mutable {
        return body(env);
    };
    l->task = l->factory();
    if (!l->task.valid())
        sim::panic("spawn('%s'): process body returned an invalid task",
                   name.c_str());
    l->task.promise().onDone = [this, l] { onTerminated(l); };
    makeReady(l);
    return l->pid;
}

Lwp *
NodeKernel::find(std::uint32_t lwp_id)
{
    if (lwp_id >= lwps.size())
        return nullptr;
    return lwps[lwp_id].get();
}

const Lwp *
NodeKernel::find(std::uint32_t lwp_id) const
{
    if (lwp_id >= lwps.size())
        return nullptr;
    return lwps[lwp_id].get();
}

bool
NodeKernel::allocateMemory(std::uint64_t bytes, const char *what)
{
    memUsed += bytes;
    if (memUsed > params().nodeMemoryBytes && !memWarned) {
        memWarned = true;
        sim::warn("node (%u,%u): memory overcommitted by '%s' "
                  "(%llu of %llu bytes)",
                  id.cluster, id.node, what,
                  static_cast<unsigned long long>(memUsed),
                  static_cast<unsigned long long>(
                      params().nodeMemoryBytes));
        return false;
    }
    return memUsed <= params().nodeMemoryBytes;
}

void
NodeKernel::assertRunning(const Lwp &lwp, const char *op) const
{
    if (running != &lwp)
        sim::panic("kernel op '%s' issued by process '%s' which is not "
                   "running (state %s)",
                   op, lwp.name.c_str(), lwpStateName(lwp.state));
}

void
NodeKernel::accountState(Lwp *lwp, LwpState new_state)
{
    const sim::Tick now = simulation().now();
    const sim::Tick dt = now - lwp->stateSince;
    switch (lwp->state) {
      case LwpState::Running:
        lwp->accounting.running += dt;
        acct.cpuBusy += dt;
        break;
      case LwpState::Ready:
        lwp->accounting.ready += dt;
        break;
      case LwpState::Blocked:
        lwp->accounting.blocked += dt;
        break;
      default:
        break;
    }
    // Dense O(1) state census: every transition funnels through here
    // (and spawn() counts the initial Created), so the counters are
    // exact at all times without scanning the LWP table.
    --stateCensus[static_cast<std::size_t>(lwp->state)];
    ++stateCensus[static_cast<std::size_t>(new_state)];
    lwp->state = new_state;
    lwp->stateSince = now;
}

sim::Tick
NodeKernel::probeKernelEvent(std::uint16_t token, std::uint32_t param)
{
    if (!kernProbe)
        return 0;
    ++kernEvents;
    kernProbe(token, param);
    return kernProbeCost;
}

void
NodeKernel::makeReady(Lwp *lwp)
{
    if (lwp->state == LwpState::Ready || lwp->state == LwpState::Running)
        sim::panic("makeReady('%s'): process already %s",
                   lwp->name.c_str(), lwpStateName(lwp->state));
    if (lwp->state == LwpState::Terminated)
        sim::panic("makeReady('%s'): process already terminated",
                   lwp->name.c_str());
    accountState(lwp, LwpState::Ready);
    lwp->blockReason = BlockReason::None;
    readyQueue.push_back(lwp);
    pendingProbeCost += probeKernelEvent(evKernReady, lwp->pid.lwp);
    maybeScheduleDispatch();
}

void
NodeKernel::maybeScheduleDispatch()
{
    if (running || dispatchPending || readyQueue.empty())
        return;
    dispatchPending = true;
    simulation().scheduleAfter(params().contextSwitchCost,
                               [this] { dispatch(); });
}

void
NodeKernel::dispatch()
{
    if (simulation().now() < freezeUntil) {
        // Node stalled by fault injection: retry once it thaws
        // (dispatchPending stays set so nobody double-schedules).
        simulation().scheduleAt(freezeUntil, [this] { dispatch(); });
        return;
    }
    dispatchPending = false;
    if (running)
        sim::panic("dispatch with a running process on node (%u,%u)",
                   id.cluster, id.node);
    if (readyQueue.empty())
        return;
    Lwp *l = readyQueue.front();
    readyQueue.pop_front();
    accountState(l, LwpState::Running);
    ++l->accounting.dispatches;
    ++acct.dispatches;
    ++acct.contextSwitches;
    running = l;
    const sim::Tick probe_cost =
        pendingProbeCost + probeKernelEvent(evKernDispatch, l->pid.lwp);
    pendingProbeCost = 0;
    if (probe_cost > 0) {
        // Software instrumentation of the kernel: the event output
        // delays the dispatched process.
        simulation().scheduleAfter(probe_cost,
                                   [this, l] { resumeRunning(l); });
    } else {
        l->task.resume();
    }
}

void
NodeKernel::blockRunning(Lwp *lwp, BlockReason reason)
{
    assertRunning(*lwp, "block");
    accountState(lwp, LwpState::Blocked);
    lwp->blockReason = reason;
    running = nullptr;
    pendingProbeCost += probeKernelEvent(
        evKernBlock, (lwp->pid.lwp << 8) |
                         static_cast<std::uint32_t>(reason));
    maybeScheduleDispatch();
}

void
NodeKernel::yieldRunning(Lwp *lwp)
{
    assertRunning(*lwp, "yield");
    accountState(lwp, LwpState::Ready);
    running = nullptr;
    readyQueue.push_back(lwp);
    pendingProbeCost += probeKernelEvent(evKernYield, lwp->pid.lwp);
    maybeScheduleDispatch();
}

void
NodeKernel::resumeRunning(Lwp *lwp)
{
    if (lwp->state == LwpState::Terminated)
        return; // killed by a fault while its resume was in flight
    if (running != lwp)
        sim::panic("resumeRunning('%s'): process lost the CPU",
                   lwp->name.c_str());
    lwp->task.resume();
}

void
NodeKernel::beginSend(Lwp *lwp, Message msg)
{
    assertRunning(*lwp, "send");
    msg.src = lwp->pid;
    msg.sentAt = simulation().now();
    ++lwp->accounting.messagesSent;
    pendingProbeCost += probeKernelEvent(evKernSend, lwp->pid.lwp);
    // The CPU initiates the communication (send syscall + CU setup);
    // then the process blocks until the rendezvous completes while the
    // communication unit handles the entire data transfer.
    simulation().scheduleAfter(
        params().sendSyscallCost,
        [this, lwp, m = std::move(msg)]() mutable {
            if (lwp->state == LwpState::Terminated)
                return; // sender killed mid-syscall; nothing leaves
            blockRunning(lwp, BlockReason::Rendezvous);
            mach.routeMessage(std::move(m), false);
        });
}

bool
NodeKernel::hasMatch(const Lwp &lwp, const MessageFilter &filter) const
{
    for (const auto &m : lwp.inbox) {
        if (!filter || filter(m))
            return true;
    }
    return false;
}

Message
NodeKernel::acceptMatch(Lwp *lwp, const MessageFilter &filter)
{
    for (auto it = lwp->inbox.begin(); it != lwp->inbox.end(); ++it) {
        if (!filter || filter(*it)) {
            Message m = std::move(*it);
            lwp->inbox.erase(it);
            ++lwp->accounting.messagesReceived;
            lwp->waitFilter = nullptr;
            // Acceptance completes the sender's rendezvous.
            if (m.src != nobody)
                mach.sendRendezvousAck(m);
            return m;
        }
    }
    sim::panic("acceptMatch('%s'): no matching message in the inbox",
               lwp->name.c_str());
}

void
NodeKernel::deliver(Message msg)
{
    Lwp *dst = find(msg.dst.lwp);
    if (!dst)
        sim::panic("message for unknown process %u on node (%u,%u)",
                   msg.dst.lwp, id.cluster, id.node);
    if (dst->state == LwpState::Terminated) {
        sim::warn("message dropped: destination process '%s' terminated",
                  dst->name.c_str());
        // The drop is observable: accounted per node and emitted
        // through the kernel probe, instead of only a warning.
        ++acct.messagesDroppedTerminated;
        pendingProbeCost += probeKernelEvent(evKernDrop, dst->pid.lwp);
        // Still complete the sender's rendezvous so it does not hang.
        if (msg.src != nobody)
            mach.sendRendezvousAck(msg);
        return;
    }
    msg.deliveredAt = simulation().now();
    ++acct.messagesDelivered;
    pendingProbeCost += probeKernelEvent(evKernDeliver, dst->pid.lwp);
    dst->inbox.push_back(std::move(msg));
    if (dst->state == LwpState::Blocked &&
        dst->blockReason == BlockReason::Receive &&
        (!dst->waitFilter || dst->waitFilter(dst->inbox.back()))) {
        makeReady(dst);
    }
}

void
NodeKernel::ackArrived(std::uint32_t lwp_id)
{
    Lwp *l = find(lwp_id);
    if (!l)
        sim::panic("rendezvous ack for unknown process %u", lwp_id);
    if (l->state == LwpState::Terminated)
        return; // sender killed while the ack was in flight
    if (l->state != LwpState::Blocked ||
        l->blockReason != BlockReason::Rendezvous) {
        sim::panic("rendezvous ack for process '%s' which is %s/%s",
                   l->name.c_str(), lwpStateName(l->state),
                   blockReasonName(l->blockReason));
    }
    makeReady(l);
}

void
NodeKernel::emitDisplaySequence(Lwp *lwp, const DisplaySequence &patterns,
                                sim::Tick total_cost)
{
    assertRunning(*lwp, "emitDisplay");
    // Pattern i lands at start + spacing * (i + 1). Only the running
    // process drives the display and the interface raises its request
    // on the last pattern alone, so one event at the last pattern's
    // tick drives the whole sequence, each write stamped with its own
    // tick. That holds while sequences on a node never overlap: after
    // a kill the next process is dispatched a context switch later,
    // and the check below panics if that is before the killed
    // process's sequence has landed.
    const sim::Tick start = simulation().now();
    if (start < displayBusyUntil)
        sim::panic("display sequence on node (%u,%u) starts at %llu "
                   "before the previous one lands at %llu",
                   id.cluster, id.node,
                   static_cast<unsigned long long>(start),
                   static_cast<unsigned long long>(displayBusyUntil));
    const sim::Tick spacing = total_cost / (patterns.size() + 1);
    displayBusyUntil = start + spacing * patterns.size();
    auto drive = [this, patterns, start, spacing] {
        for (std::size_t i = 0; i < patterns.size(); ++i)
            displayDev.write(patterns[i], start + spacing * (i + 1));
    };
    static_assert(sizeof(drive) <= sim::SmallEventFunc::inlineSize,
                  "the display closure must stay inline in its event");
    simulation().scheduleAt(displayBusyUntil, std::move(drive));
    simulation().scheduleAfter(total_cost,
                               [this, lwp] { resumeRunning(lwp); });
}

void
NodeKernel::emitSerial(Lwp *lwp, std::uint64_t data, unsigned bits)
{
    assertRunning(*lwp, "emitSerial");
    const sim::Tick cost = params().terminalContextSwitch +
                           serialDev.transmissionTime(bits);
    simulation().scheduleAfter(cost, [this, lwp, data, bits] {
        serialDev.complete(data, bits, simulation().now());
        resumeRunning(lwp);
    });
}

sim::Tick
NodeKernel::localTime() const
{
    const long double drifted =
        static_cast<long double>(mach.sim().now()) *
        (1.0L + nodeClockDriftPpm * 1e-6L);
    long double local =
        drifted + static_cast<long double>(nodeClockOffset);
    if (local < 0.0L)
        local = 0.0L;
    return static_cast<sim::Tick>(local);
}

void
NodeKernel::emitSoftwareLog(Lwp *lwp, std::uint16_t token,
                            std::uint32_t param)
{
    assertRunning(*lwp, "emitSoftwareLog");
    // The rudimentary method of the paper's introduction: append a
    // record to a log file. The write is buffered file I/O on the
    // node - a heavyweight operation compared to hybrid_mon - and
    // the time stamp comes from the unsynchronized node clock.
    softLog.push_back(SoftwareLogRecord{localTime(), token, param});
    simulation().scheduleAfter(params().logWriteCost,
                               [this, lwp] { resumeRunning(lwp); });
}

void
NodeKernel::sleepRunning(Lwp *lwp, sim::Tick duration)
{
    assertRunning(*lwp, "sleep");
    blockRunning(lwp, BlockReason::Sleep);
    simulation().scheduleAfter(duration, [this, lwp] {
        if (lwp->state == LwpState::Blocked &&
            lwp->blockReason == BlockReason::Sleep)
            makeReady(lwp);
    });
}

void
NodeKernel::waitOnFlag(Lwp *lwp, EventFlag &flag)
{
    assertRunning(*lwp, "wait");
    if (&flag.kern != this)
        sim::panic("process '%s' waiting on a flag of another node "
                   "(flags are team-shared memory)", lwp->name.c_str());
    flag.waiters.push_back(lwp);
    blockRunning(lwp, BlockReason::Flag);
}

bool
NodeKernel::killLwp(Lwp *lwp)
{
    if (!lwp || lwp->state == LwpState::Terminated)
        return false;
    // Connection reset: senders whose messages sit unaccepted in the
    // victim's inbox would otherwise hang in their rendezvous.
    for (const Message &m : lwp->inbox) {
        if (m.src != nobody)
            mach.sendRendezvousAck(m);
    }
    lwp->inbox.clear();
    lwp->waitFilter = nullptr;
    const auto it =
        std::find(readyQueue.begin(), readyQueue.end(), lwp);
    if (it != readyQueue.end())
        readyQueue.erase(it);
    const bool was_running = (running == lwp);
    accountState(lwp, LwpState::Terminated);
    lwp->blockReason = BlockReason::None;
    // Destroy the coroutine frame without running onDone: this is an
    // external fault, not a normal exit, so the exception check and
    // initial-process bookkeeping of onTerminated must not run.
    lwp->task = sim::Task();
    pendingProbeCost += probeKernelEvent(evKernExit, lwp->pid.lwp);
    if (was_running) {
        running = nullptr;
        maybeScheduleDispatch();
    }
    mach.notifyTerminated(*lwp);
    return true;
}

void
NodeKernel::restartLwp(Lwp *lwp)
{
    if (!lwp)
        sim::panic("restartLwp(nullptr)");
    if (lwp->state != LwpState::Terminated)
        sim::panic("restartLwp('%s'): process is %s, not terminated",
                   lwp->name.c_str(), lwpStateName(lwp->state));
    if (!lwp->factory)
        sim::panic("restartLwp('%s'): no spawn factory",
                   lwp->name.c_str());
    lwp->task = lwp->factory();
    if (!lwp->task.valid())
        sim::panic("restartLwp('%s'): factory returned an invalid task",
                   lwp->name.c_str());
    lwp->task.promise().onDone = [this, lwp] { onTerminated(lwp); };
    accountState(lwp, LwpState::Created);
    lwp->blockReason = BlockReason::None;
    makeReady(lwp);
}

void
NodeKernel::onTerminated(Lwp *lwp)
{
    if (lwp->task.promise().error) {
        try {
            std::rethrow_exception(lwp->task.promise().error);
        } catch (const std::exception &e) {
            sim::panic("process '%s' terminated with exception: %s",
                       lwp->name.c_str(), e.what());
        } catch (...) {
            sim::panic("process '%s' terminated with unknown exception",
                       lwp->name.c_str());
        }
    }
    accountState(lwp, LwpState::Terminated);
    pendingProbeCost += probeKernelEvent(evKernExit, lwp->pid.lwp);
    if (running == lwp) {
        running = nullptr;
        maybeScheduleDispatch();
    }
    mach.notifyTerminated(*lwp);
}

std::string
NodeKernel::stateDump() const
{
    std::ostringstream os;
    for (const auto &l : lwps) {
        os << sim::strprintf(
            "  node(%2u,%2u) lwp %2u '%s': %s", id.cluster, id.node,
            l->pid.lwp, l->name.c_str(), lwpStateName(l->state));
        if (l->state == LwpState::Blocked)
            os << " (" << blockReasonName(l->blockReason) << ")";
        if (!l->inbox.empty())
            os << sim::strprintf(", %zu queued msg(s)", l->inbox.size());
        os << "\n";
    }
    return os.str();
}

} // namespace suprenum
} // namespace supmon
