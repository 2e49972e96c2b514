#include "events.hh"

#include "hybrid/event_code.hh"
#include "suprenum/kernel_events.hh"

namespace supmon
{
namespace par
{

unsigned
logicalStreamOf(const zm4::RawRecord &rec,
                unsigned channels_per_recorder)
{
    const unsigned node =
        static_cast<unsigned>(rec.recorderId) * channels_per_recorder +
        rec.channel;
    const auto data = hybrid::unpack48(rec.data48);
    const TokenClass cls = tokenClassOf(data.token);
    const unsigned agent_index =
        cls == TokenClass::Agent ? data.param >> 24 : 0;
    return streamOf(node, cls, agent_index);
}

std::string
rayTracerStreamName(unsigned stream)
{
    const unsigned node = stream / streamsPerNode;
    const unsigned sub = stream % streamsPerNode;
    if (node == 0) {
        if (sub == 0)
            return "MASTER";
        return sub == 1 ? "" : "AGENT " + std::to_string(sub - 2);
    }
    const std::string servant = "SERVANT " + std::to_string(node);
    if (sub == 1)
        return servant;
    return sub == 0 ? ""
                    : "AGENT " + std::to_string(sub - 2) + " (" +
                          servant + ")";
}

trace::EventDictionary
rayTracerDictionary()
{
    trace::EventDictionary dict;
    dict.setStreamNamer(rayTracerStreamName);
    // Master rows exactly as in Figures 7 and 9.
    dict.defineBegin(evDistributeJobsBegin, "Distribute Jobs Begin",
                     "DISTRIBUTE JOBS");
    dict.defineBegin(evSendJobsBegin, "Send Jobs Begin", "SEND JOBS");
    dict.definePoint(evSendJobsEnd, "Send Jobs End");
    dict.defineBegin(evWaitForResultsBegin, "Wait for Results Begin",
                     "WAIT FOR RESULTS");
    dict.defineBegin(evReceiveResultsBegin, "Receive Results Begin",
                     "RECEIVE RESULTS");
    dict.defineBegin(evWritePixelsBegin, "Write Pixels Begin",
                     "WRITE PIXELS");
    dict.definePoint(evWritePixelsEnd, "Write Pixels End");
    dict.definePoint(evJobSend, "Job Send");
    dict.definePoint(evMasterStart, "Master Start");
    dict.definePoint(evMasterDone, "Master Done");

    // Master recovery actions (fault-tolerant protocol).
    dict.definePoint(evFaultTimeout, "Fault Timeout");
    dict.definePoint(evFaultRetry, "Fault Retry");
    dict.definePoint(evFaultJobReassigned, "Fault Job Reassigned");
    dict.definePoint(evFaultServantDead, "Fault Servant Dead");
    dict.definePoint(evFaultDuplicateResult, "Fault Duplicate Result");
    dict.definePoint(evFaultCorruptDiscarded,
                     "Fault Corrupt Discarded");

    // Servant rows.
    dict.defineBegin(evWaitForJobBegin, "Wait for Job Begin",
                     "WAIT FOR JOB");
    dict.defineBegin(evWorkBegin, "Work Begin", "WORK");
    dict.defineBegin(evSendResultsBegin, "Send Results Begin",
                     "SEND RESULTS");
    dict.definePoint(evServantStart, "Servant Start");
    dict.definePoint(evServantDone, "Servant Done");
    dict.definePoint(evServantCorruptJob, "Servant Corrupt Job");

    // Agent rows (Figure 9, bottom).
    dict.defineBegin(evAgentWakeUp, "Agent Wake Up", "WAKE UP");
    dict.defineBegin(evAgentForward, "Agent Forward",
                     "FORWARD MESSAGE");
    dict.defineBegin(evAgentFreed, "Agent Freed", "FREED");
    dict.defineBegin(evAgentSleep, "Agent Sleep", "SLEEP");

    // Kernel probe events (OS instrumentation side channel). Defined
    // here too so the one dictionary names every token class a run
    // can record and the kernel trace renders symbolically.
    dict.definePoint(suprenum::evKernDispatch, "Kernel Dispatch");
    dict.definePoint(suprenum::evKernBlock, "Kernel Block");
    dict.definePoint(suprenum::evKernReady, "Kernel Ready");
    dict.definePoint(suprenum::evKernDeliver, "Kernel Deliver");
    dict.definePoint(suprenum::evKernSend, "Kernel Send");
    dict.definePoint(suprenum::evKernYield, "Kernel Yield");
    dict.definePoint(suprenum::evKernExit, "Kernel Exit");
    dict.definePoint(suprenum::evKernDrop, "Kernel Drop");

    // Injected faults (fault daemon, Figure-style recovery timeline).
    dict.definePoint(evInjectKill, "Inject Kill");
    dict.definePoint(evInjectCrash, "Inject Crash");
    dict.definePoint(evInjectRestart, "Inject Restart");
    dict.definePoint(evInjectDrop, "Inject Drop");
    dict.definePoint(evInjectCorrupt, "Inject Corrupt");
    dict.definePoint(evInjectDelay, "Inject Delay");
    dict.definePoint(evInjectStall, "Inject Stall");
    return dict;
}

} // namespace par
} // namespace supmon
