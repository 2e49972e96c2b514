/**
 * @file
 * Measurement event tokens of the parallel ray tracer, matching the
 * instrumentation points of the paper's Figure 6 (horizontal bars in
 * the master/servant structure) plus the communication agent events
 * visible in Figure 9.
 *
 * Token layout: the high byte selects the instrumented object class
 * (1 = master, 2 = servant, 3 = agent); evaluation uses it to
 * demultiplex the per-node event stream into logical streams (all
 * processes of a node share the node's seven segment display).
 */

#ifndef PARTRACER_EVENTS_HH
#define PARTRACER_EVENTS_HH

#include <cstdint>
#include <string>

#include "trace/dictionary.hh"
#include "zm4/event_recorder.hh"

namespace supmon
{
namespace par
{

enum Token : std::uint16_t
{
    // ----- master (Figure 6, left) -----------------------------------
    evDistributeJobsBegin = 0x0101,
    evSendJobsBegin = 0x0102,
    evSendJobsEnd = 0x0103,
    evWaitForResultsBegin = 0x0104,
    evReceiveResultsBegin = 0x0105,
    evWritePixelsBegin = 0x0106,
    evWritePixelsEnd = 0x0107,
    /** Marker: a job message leaves the master; param = job id. Only
     *  emitted with RunConfig::instrumentJobSend - it is the metadata
     *  the validate::ProtocolCausalityRule matches against the
     *  servants' Work Begin events. */
    evJobSend = 0x0108,
    /** Marker: master initialization done, ray tracing phase begins. */
    evMasterStart = 0x0110,
    /** Marker: the complete image has been written. */
    evMasterDone = 0x0111,

    // ----- master recovery actions (fault-tolerant protocol) -----------
    /** A job's ack deadline expired; param = job id. */
    evFaultTimeout = 0x0120,
    /** The job was sent again (exponential backoff); param = job id. */
    evFaultRetry = 0x0121,
    /** The job moved to another servant; param = job id. */
    evFaultJobReassigned = 0x0122,
    /** Heartbeats stopped; servant declared dead; param = servant. */
    evFaultServantDead = 0x0123,
    /** A result for an already-completed job was discarded;
     *  param = job id. */
    evFaultDuplicateResult = 0x0124,
    /** A corrupted message was discarded; param = message tag. */
    evFaultCorruptDiscarded = 0x0125,

    // ----- servant (Figure 6, right) ----------------------------------
    evWaitForJobBegin = 0x0201,
    evWorkBegin = 0x0202,
    /** Added for the Figure 9 charts ("we inserted an additional
     *  measurement instruction at the beginning of Send Results"). */
    evSendResultsBegin = 0x0203,
    evServantStart = 0x0210,
    evServantDone = 0x0211,
    /** A corrupted job message was discarded; param = servant. */
    evServantCorruptJob = 0x0212,

    // ----- communication agent (Figure 9) ------------------------------
    evAgentWakeUp = 0x0301,
    evAgentForward = 0x0302,
    evAgentFreed = 0x0303,
    evAgentSleep = 0x0304,

    // ----- injected faults (emitted by the fault daemon) ---------------
    /** An LWP was killed; param = (node << 8) | lwp. */
    evInjectKill = 0x0401,
    /** A whole node crashed; param = node. */
    evInjectCrash = 0x0402,
    /** A crashed node restarted; param = node. */
    evInjectRestart = 0x0403,
    /** A bus message was lost; param = running drop count. */
    evInjectDrop = 0x0404,
    /** A bus message was garbled; param = running corrupt count. */
    evInjectCorrupt = 0x0405,
    /** A bus message was delayed; param = running delay count. */
    evInjectDelay = 0x0406,
    /** A node's dispatcher was frozen; param = node. */
    evInjectStall = 0x0407,
};

/** Object class encoded in a token's high byte. */
enum class TokenClass
{
    Master = 1,
    Servant = 2,
    Agent = 3,
    Fault = 4,
    Unknown = 0,
};

inline TokenClass
tokenClassOf(std::uint16_t token)
{
    switch (token >> 8) {
      case 1:
        return TokenClass::Master;
      case 2:
        return TokenClass::Servant;
      case 3:
        return TokenClass::Agent;
      case 4:
        return TokenClass::Fault;
      default:
        return TokenClass::Unknown;
    }
}

/** Logical streams per node (display demultiplexing). */
constexpr unsigned streamsPerNode = 8;

/**
 * Map a raw record to its logical stream: 8 streams per node -
 * 0 master-class, 1 servant-class, 2+k agent k (agents carry their
 * pool index in the event parameter).
 */
unsigned logicalStreamOf(const zm4::RawRecord &rec,
                         unsigned channels_per_recorder = 4);

/** Logical stream of an object class on a node. */
inline unsigned
streamOf(unsigned node_index, TokenClass cls, unsigned agent_index = 0)
{
    unsigned sub = 0;
    switch (cls) {
      case TokenClass::Master:
        sub = 0;
        break;
      case TokenClass::Servant:
        sub = 1;
        break;
      case TokenClass::Agent:
        sub = 2 + (agent_index < 6 ? agent_index : 5);
        break;
      case TokenClass::Fault:
        // The fault daemon shares the node's last stream slot; it
        // only exists on the master node, where agent pools stay
        // small enough not to collide.
        sub = 7;
        break;
      default:
        sub = 7;
        break;
    }
    return node_index * streamsPerNode + sub;
}

/**
 * Name of a ray tracer stream, derived from its id alone: MASTER and
 * AGENT k on node 0, SERVANT n and AGENT k (SERVANT n) on node n.
 * Returns "" for the slots no object class of that node uses.
 *
 * The fault daemon shares node 0's last slot with agent 5 (streamOf),
 * so this names it AGENT 5. A run that injects faults overrides that
 * stream with "FAULTS" (runRayTracer); a saved trace's header does
 * not record whether faults were injected, so a file read back names
 * that stream AGENT 5.
 */
std::string rayTracerStreamName(unsigned stream);

/**
 * Build the evaluation dictionary for the ray tracer's events: state
 * names match the paper's Gantt chart rows, and streams are named by
 * rayTracerStreamName(), so runs, saved files and live streams name
 * every stream the same way.
 */
trace::EventDictionary rayTracerDictionary();

} // namespace par
} // namespace supmon

#endif // PARTRACER_EVENTS_HH
