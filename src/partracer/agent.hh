/**
 * @file
 * The pool of communication agents (paper, section 4.3, version 2).
 *
 * "For the communication from the master to the servants we
 * introduced a pool of light-weight processes which we call
 * communication agents. Their task is to forward a message from the
 * master to one of the servants. The agents are running on the same
 * processor as the master. Whenever the master wishes to send a
 * message to a servant he indicates this fact to an agent, who is
 * currently not engaged in some other communication, by setting a
 * shared variable. [...] If no free agent is available a new agent is
 * created and added to the pool. After the indication the master
 * relinquishes the processor and all agents will be scheduled."
 *
 * The indication is modelled as a team-shared work queue plus a wake
 * signal: a sleeping (not engaged) agent is woken to pick the message
 * up; if none is sleeping, a new agent is created. An agent that
 * wakes up and finds no message (because a just-freed agent drained
 * the queue first) goes back to sleep immediately - the behaviour
 * visible in the Figure 9 Gantt chart.
 *
 * Version 3 reuses the same pool class on each servant node for the
 * reverse direction.
 *
 * The number of agents that get created is *emergent*: the pool grows
 * only when a message arrives while every existing agent is engaged.
 * The paper reports that the pool stayed quite small (5 agents for
 * the moderate scene on 16 processors); tests assert the same here.
 */

#ifndef PARTRACER_AGENT_HH
#define PARTRACER_AGENT_HH

#include <any>
#include <deque>
#include <string>
#include <vector>

#include "hybrid/instrument.hh"
#include "suprenum/kernel.hh"

namespace supmon
{
namespace par
{

class AgentPool
{
  public:
    /**
     * @param kernel node the pool's owner runs on (agents share it).
     * @param name_prefix process-name prefix for spawned agents.
     * @param mode monitoring mode of the agents' instrumentation.
     * @param team team of the owner (shared variables!).
     */
    AgentPool(suprenum::NodeKernel &kernel, std::string name_prefix,
              hybrid::MonitorMode mode, unsigned team = 0)
        : kern(kernel), prefix(std::move(name_prefix)), monMode(mode),
          ownerTeam(team), wakeFlag(kernel)
    {
    }

    AgentPool(const AgentPool &) = delete;
    AgentPool &operator=(const AgentPool &) = delete;

    /**
     * Hand a message to the pool (creating an agent if none is free)
     * and wake a free agent. The caller must be the running process
     * on this node and should relinquish the processor afterwards
     * (co_await env.yield()) so the agents get scheduled.
     */
    void submit(suprenum::Pid dst, std::uint32_t bytes, int tag,
                std::any payload);

    /** Number of agents ever created ("remains quite small"). */
    std::size_t
    poolSize() const
    {
        return agents;
    }

    /** Messages waiting for pickup. */
    std::size_t
    pendingCount() const
    {
        return pending.size();
    }

    /** Total messages forwarded by the pool. */
    std::uint64_t
    forwardedCount() const
    {
        return forwarded;
    }

    /** Spurious wake-ups (agent woke up, found no message). */
    std::uint64_t
    spuriousWakeups() const
    {
        return spurious;
    }

  private:
    struct Work
    {
        suprenum::Pid dst = suprenum::nobody;
        std::uint32_t bytes = 0;
        int tag = 0;
        std::any payload;
    };

    /** Body of one communication agent. */
    static sim::Task agentProcess(suprenum::ProcessEnv env,
                                  AgentPool *pool, unsigned index);

    suprenum::NodeKernel &kern;
    std::string prefix;
    hybrid::MonitorMode monMode;
    unsigned ownerTeam;
    suprenum::EventFlag wakeFlag;
    std::deque<Work> pending;
    std::size_t agents = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t spurious = 0;
};

} // namespace par
} // namespace supmon

#endif // PARTRACER_AGENT_HH
