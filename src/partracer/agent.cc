#include "agent.hh"

#include "partracer/events.hh"
#include "sim/logging.hh"

namespace supmon
{
namespace par
{

void
AgentPool::submit(suprenum::Pid dst, std::uint32_t bytes, int tag,
                  std::any payload)
{
    Work work;
    work.dst = dst;
    work.bytes = bytes;
    work.tag = tag;
    work.payload = std::move(payload);
    pending.push_back(std::move(work));

    if (wakeFlag.waiterCount() > 0) {
        // Indicate to an agent which is currently not engaged in some
        // other communication.
        wakeFlag.signalOne();
        return;
    }
    // No free agent is available: a new agent is created and added to
    // the pool. It starts ready and will pick the message up.
    const unsigned index = static_cast<unsigned>(agents++);
    kern.spawn(prefix + "-agent-" + std::to_string(index),
               [this, index](suprenum::ProcessEnv env) {
                   return agentProcess(env, this, index);
               },
               ownerTeam);
}

sim::Task
AgentPool::agentProcess(suprenum::ProcessEnv env, AgentPool *pool,
                        unsigned index)
{
    hybrid::Instrumentor mon(env, pool->monMode);
    const std::uint32_t id_field = static_cast<std::uint32_t>(index)
                                   << 24;
    for (;;) {
        co_await mon(evAgentWakeUp, id_field);
        bool did_work = false;
        while (!pool->pending.empty()) {
            did_work = true;
            Work work = std::move(pool->pending.front());
            pool->pending.pop_front();
            co_await mon(
                evAgentForward,
                id_field | static_cast<std::uint32_t>(
                               pool->forwarded & 0xffffffu));
            // The forward blocks in the rendezvous until the receiver
            // accepts the message...
            co_await env.send(work.dst, work.bytes, work.tag,
                              std::move(work.payload));
            // ...at which point the agent is freed.
            co_await mon(evAgentFreed, id_field);
            ++pool->forwarded;
        }
        if (!did_work)
            ++pool->spurious;
        co_await mon(evAgentSleep, id_field);
        co_await env.wait(pool->wakeFlag);
    }
}

} // namespace par
} // namespace supmon
