/**
 * @file
 * The crash-surviving producer client of the live monitoring chain.
 *
 * A RobustProducer wraps a resumable wire session (live/wire.hh:
 * HelloResume / SeqEvents / Ack / Ping) with everything a producer
 * needs to survive a flaky transport and a crashing daemon:
 *
 *  - every published event gets a 1-based sequence number and sits in
 *    a bounded replay buffer until the daemon's cumulative Ack covers
 *    it — for archived tenants the ack is the *committed* archive
 *    watermark, so an acked record has survived the daemon crashing;
 *  - a failed send or a dead connection triggers reconnection with
 *    capped exponential backoff, jittered by a seeded RNG stream
 *    (sim::deriveSeed), so reconnect storms reproduce byte-identically
 *    in the chaos tests; retry pacing is non-blocking — publish()
 *    never sleeps, it just falls back to buffering;
 *  - when the daemon stays dead and the replay buffer fills, the
 *    producer degrades gracefully to a local spool: the buffer (and
 *    every further event) is diverted to a journaled .smtr file that
 *    is itself a replay source — on reconnect the spool is played
 *    back from the daemon's floor before the in-memory tail;
 *  - events that can be kept nowhere (no spool, or the spool disk is
 *    full too) are counted per stream and declared at close() as
 *    class-5 accounting markers (evLiveSpilled / evLiveReplayed,
 *    live/tokens.hh) audited by validate::LiveAccountingRule:
 *    delivered + dropped + spilled == produced, exactly. A run with
 *    nothing spilled appends no markers at all, preserving the block
 *    policy's byte-identity contract.
 *
 * Single-threaded by design: publish(), heartbeat() and close() must
 * be called from one thread (the instrumented program's tracer
 * thread), exactly like LiveSession::publish.
 */

#ifndef LIVE_ROBUST_HH
#define LIVE_ROBUST_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "live/backpressure.hh"
#include "live/wire.hh"
#include "sim/random.hh"
#include "trace/event.hh"
#include "trace/io.hh"

namespace supmon
{
namespace live
{

struct RobustProducerConfig
{
    std::string tenant = "default";
    std::uint64_t seed = 0;
    Backpressure policy = Backpressure::Block;

    /** Events per SeqEvents frame. */
    std::size_t batchEvents = 256;
    /** Unacked events held in memory for replay; beyond this a
     *  disconnected producer spills to the spool (or counts the
     *  event spilled when there is none). */
    std::size_t replayCapacity = 1 << 16;
    /** Local spool file ("" = no spool: overflow while disconnected
     *  is lost and accounted). */
    std::string spoolPath;

    /** First reconnect delay; doubles per failed attempt. */
    unsigned baseBackoffMs = 1;
    /** Backoff stops doubling after this many attempts (the
     *  BackoffSchedule idiom of partracer/recovery.hh); the same
     *  count of consecutive failures marks the producer degraded. */
    unsigned maxAttempts = 6;
    /** close(): how long one ack wait may block. */
    unsigned ackTimeoutMs = 5000;
    /** close(): ping-and-wait rounds before giving up. */
    unsigned closeRounds = 50;

    /** Transport factory: a connected fd, or -1. The seam the chaos
     *  tests inject faulty links through; production code passes
     *  e.g. [] { return connectTcp(host, port); }. */
    std::function<int()> connect;
};

/** Cross-checkable counters of one producer's life. */
struct RobustMetrics
{
    std::uint64_t published = 0;
    /** Highest sequence the daemon has acked (durable floor). */
    std::uint64_t acked = 0;
    /** Events diverted to the local spool while degraded. */
    std::uint64_t spooled = 0;
    /** Events lost for good (no spool / spool failed); these are the
     *  evLiveSpilled books. */
    std::uint64_t spilled = 0;
    /** Events re-sent from the spool/replay buffer. */
    std::uint64_t replayed = 0;
    /** Successful re-handshakes after the first connect. */
    std::uint64_t reconnects = 0;
    /** connect() attempts that failed. */
    std::uint64_t connectFailures = 0;
    bool connected = false;
    /** Backoff exhausted or the replay buffer overflowed into the
     *  local spool; clears when a reconnect succeeds. */
    bool degraded = false;
};

class RobustProducer
{
  public:
    /** Connects eagerly (failure is not fatal: the producer starts
     *  disconnected and retries under backoff). */
    explicit RobustProducer(RobustProducerConfig config);

    /** Best effort: closes the transport without the ack-drain of
     *  close(); the spool (if any) is finished so it stays a valid
     *  trace file. */
    ~RobustProducer();

    RobustProducer(const RobustProducer &) = delete;
    RobustProducer &operator=(const RobustProducer &) = delete;

    /**
     * Publish one event. Never blocks on the network beyond a send:
     * disconnected publishes buffer (then spool, then count spilled).
     * @return false only when the event could be kept nowhere (it is
     *         in the spilled books then).
     */
    bool publish(const trace::TraceEvent &ev);

    /** Opportunistic maintenance: drain pending acks, send a Ping,
     *  or retry the connection if one is due. Call this when idle. */
    void heartbeat();

    /**
     * Flush everything, wait (ping + backoff) until the daemon's ack
     * covers the last record, declare the spilled/replayed books as
     * class-5 markers when anything was lost, and say Bye.
     * @return true when every non-spilled record was acked durable.
     */
    bool close();

    /** Sever the transport without telling anyone — the test seam
     *  for "the network died mid-stream". */
    void breakConnection();

    RobustMetrics metrics() const;

    bool
    connected() const
    {
        return fd >= 0;
    }

  private:
    bool ensureConnected(bool force);
    /** HelloResume on a fresh fd; replay everything past the floor.
     *  @return false (and disconnects) on any failure. */
    bool handshake();
    bool sendBytes(const std::vector<unsigned char> &bytes);
    /** Send pending records in (sentHighSeq, lastSeq]. */
    bool flushUnsent();
    /** Read acks. @param timeout_ms 0 = only what is already there.
     *  @return false if the connection died. */
    bool drainAcks(int timeout_ms);
    void noteAck(std::uint64_t seq);
    void disconnect();
    void scheduleRetry();
    /** Divert the in-memory replay buffer (and @p ev) to the spool.
     *  @return false if the spool could not take the event. */
    bool spillToSpool(const trace::TraceEvent &ev);
    void emitLossMarkers();

    RobustProducerConfig cfg;
    sim::Random rng;

    int fd = -1;
    FrameDecoder decoder;
    bool everConnected = false;
    /** drainAcks() saw at least one Ack frame in its last call. */
    bool ackReceived = false;

    /** Unacked in-memory events; pending.front() has sequence
     *  baseSeq. */
    std::deque<trace::TraceEvent> pending;
    std::uint64_t baseSeq = 1;
    /** Next sequence to assign (1-based). */
    std::uint64_t nextSeq = 1;
    /** Last sequence written to the transport. */
    std::uint64_t sentHighSeq = 0;
    std::uint64_t ackedSeq = 0;
    /** Replayed records are counted toward the books once: only
     *  sequences above this high-water mark count again. */
    std::uint64_t replayCountedHigh = 0;
    /** Sequences at or below this were stored before the last
     *  re-handshake; sending one is a replay. */
    std::uint64_t replayBoundary = 0;

    /** Local spool (degraded mode). Contiguous sequence range
     *  [spoolFirstSeq, spoolFirstSeq + written - 1]. */
    std::unique_ptr<trace::TraceWriter> spool;
    std::uint64_t spoolFirstSeq = 0;
    bool spoolActive = false;

    unsigned failedAttempts = 0;
    bool degradedFlag = false;
    std::chrono::steady_clock::time_point nextRetryAt{};

    /** Per-stream books (ascending stream id = deterministic marker
     *  order). */
    std::map<unsigned, std::uint64_t> producedPerStream;
    std::map<unsigned, std::uint64_t> spilledPerStream;
    std::map<unsigned, std::uint64_t> replayedPerStream;
    sim::Tick watermark = 0;

    std::uint64_t publishedCount = 0;
    std::uint64_t spooledCount = 0;
    std::uint64_t spilledCount = 0;
    std::uint64_t replayedCount = 0;
    std::uint64_t reconnectCount = 0;
    std::uint64_t connectFailureCount = 0;
};

} // namespace live
} // namespace supmon

#endif // LIVE_ROBUST_HH
