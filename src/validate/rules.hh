/**
 * @file
 * Trace-invariant checking (in the spirit of generic trace-analysis
 * monitors: the checks are first-class, pluggable analyses).
 *
 * The whole reproduction argues from harvested traces, so the traces
 * themselves must be trustworthy: globally valid timestamps, correctly
 * merged recorder streams, protocol-causal event sequences, conserved
 * message counts. A TraceValidator runs a set of invariant rules over
 * an evaluation trace and reports every violation with the name of the
 * rule that caught it, the event index, and a diagnostic message.
 *
 * Built-in rules:
 *  - stream-monotonic:   per-stream timestamp monotonicity;
 *  - merge-order:        global timestamp order of the CEC merge;
 *  - protocol-causality: send/work/result matching of the ray tracer
 *                        protocol by job id (needs the evJobSend
 *                        metadata, RunConfig::instrumentJobSend);
 *  - conservation:       jobs sent == worked == results received,
 *                        master/servant start/done pairing, and
 *                        (optionally) ground-truth count matching;
 *  - token-dictionary:   every token is defined in a dictionary;
 *  - lwp-state-machine:  kernel-probe events follow the legal LWP
 *                        life cycle (ready -> running -> blocked);
 *  - activity-sanity:    state intervals lie inside the trace window
 *                        and utilizations stay within [0, 1].
 */

#ifndef VALIDATE_RULES_HH
#define VALIDATE_RULES_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/injector.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace validate
{

/** One invariant violation found in a trace. */
struct Violation
{
    /** Name of the rule that detected the violation. */
    std::string rule;
    /** Index of the offending event in the trace (or the trace size
     *  for whole-trace violations such as count mismatches). */
    std::size_t eventIndex = 0;
    std::string message;
};

/** Render violations as a human-readable multi-line report. */
std::string formatViolations(const std::vector<Violation> &violations);

/**
 * An invariant rule. Rules are stateless between validate() calls;
 * check() appends one Violation per finding (capped by the validator).
 */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** Stable rule name used in diagnostics. */
    virtual const char *name() const = 0;

    virtual void check(const std::vector<trace::TraceEvent> &events,
                       std::vector<Violation> &out) const = 0;
};

/** Per-stream timestamps must never decrease. */
class StreamMonotonicRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "stream-monotonic";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;
};

/** The merged global trace must be in non-decreasing timestamp
 *  order (the CEC merge invariant; ties break by recorder, so the
 *  stream id is not required to tie-break). */
class MergeOrderRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "merge-order";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;
};

/**
 * Ray tracer protocol causality, matched by job id:
 *  - a job is sent at most once (evJobSend) and worked at most once
 *    (evWorkBegin);
 *  - Work Begin for a job must follow its Job Send (when the send
 *    metadata is instrumented);
 *  - Send Results / Receive Results for a job must follow its Work
 *    Begin.
 * Traces without ray tracer protocol tokens pass trivially.
 */
class ProtocolCausalityRule : public Rule
{
  public:
    /**
     * @param allow_retries accept the fault-tolerant protocol's
     *        resends: a job may be sent and worked more than once
     *        (results beyond the first are suppressed, which the
     *        RecoveryConsistencyRule checks). Ordering constraints
     *        (work after first send, receive after first work) still
     *        apply.
     */
    explicit ProtocolCausalityRule(bool allow_retries = false)
        : allowRetries(allow_retries)
    {
    }

    const char *
    name() const override
    {
        return "protocol-causality";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    bool allowRetries;
};

/** Ground-truth counts a trace can be checked against (all
 *  optional; unset members are not checked). */
struct ConservationExpectations
{
    /** Jobs the master actually sent (host-side bookkeeping). */
    std::optional<std::uint64_t> jobsSent;
    /** Results the master actually received. */
    std::optional<std::uint64_t> resultsReceived;
    /** Pixels of the image (requested == written). */
    std::optional<std::uint64_t> pixelsWritten;
};

/**
 * Conservation laws over the whole trace: everything sent is worked,
 * everything worked is received, every servant that starts finishes,
 * the master's start/done markers pair up, and the Send Jobs /
 * Write Pixels Begin/End markers balance (no activity left open).
 * With expectations set, the trace counts are additionally checked
 * against the ground truth.
 */
class ConservationRule : public Rule
{
  public:
    explicit ConservationRule(ConservationExpectations expect = {})
        : expected(expect)
    {
    }

    const char *
    name() const override
    {
        return "conservation";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    ConservationExpectations expected;
};

/** Every token in the trace must be defined in the dictionary. */
class TokenDictionaryRule : public Rule
{
  public:
    explicit TokenDictionaryRule(trace::EventDictionary dictionary)
        : dict(std::move(dictionary))
    {
    }

    const char *
    name() const override
    {
        return "token-dictionary";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    trace::EventDictionary dict;
};

/**
 * Kernel-probe events (token class 7) must describe a legal LWP life
 * cycle per stream (= node): only a ready process is dispatched, only
 * the running process blocks/yields/sends/exits, and nothing happens
 * to a terminated process. Traces without kernel tokens pass.
 */
class LwpStateRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "lwp-state-machine";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;
};

/**
 * Activity-level sanity: every state interval derived from the trace
 * lies inside the trace window with a non-negative duration, and the
 * per-stream busy time never exceeds the window (utilization <= 1).
 */
class ActivitySanityRule : public Rule
{
  public:
    explicit ActivitySanityRule(trace::EventDictionary dictionary)
        : dict(std::move(dictionary))
    {
    }

    const char *
    name() const override
    {
        return "activity-sanity";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    trace::EventDictionary dict;
};

/**
 * Every fault the injector reports must be observed in the trace: the
 * per-kind counts of the class-4 evInject* tokens (emitted by the
 * application's fault daemon) must equal the injector's own counters,
 * and the checksum-failure discards observed at the receivers (Fault
 * Corrupt Discarded, Servant Corrupt Job) must not exceed the number
 * of messages the injector corrupted. This is the "recovery
 * observability" contract - a fault that the trace cannot show might
 * as well not have been monitored.
 */
class FaultObservationRule : public Rule
{
  public:
    explicit FaultObservationRule(faults::FaultStats expect)
        : expected(expect)
    {
    }

    const char *
    name() const override
    {
        return "fault-observation";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    faults::FaultStats expected;
};

/**
 * Consistency of the fault-tolerant master's recovery actions:
 *  - a job's results are accepted (Receive Results) at most once -
 *    duplicates must be suppressed, never processed;
 *  - every Duplicate Result marker refers to a job whose results were
 *    accepted earlier in the trace;
 *  - every Job Reassigned marker is accompanied by a Retry marker for
 *    the same job at the same instant;
 *  - every Retry has a recorded cause: a prior Fault Timeout for the
 *    same job, or a prior Fault Servant Dead (orphaned jobs are
 *    requeued without individual timeout markers);
 *  - a servant is declared dead at most once (dead stays dead).
 */
class RecoveryConsistencyRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "recovery-consistency";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;
};

/**
 * Coverage conservation under faults: if the master finished
 * (evMasterDone present), every job it ever sent (evJobSend metadata)
 * had its results accepted exactly once, and the Write Pixels events
 * cover the expected pixel count exactly - reassigned jobs conserve
 * coverage, they must not lose or duplicate pixels.
 */
class JobCoverageRule : public Rule
{
  public:
    explicit JobCoverageRule(
        std::optional<std::uint64_t> expected_pixels = std::nullopt)
        : expectedPixels(expected_pixels)
    {
    }

    const char *
    name() const override
    {
        return "job-coverage";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;

  private:
    std::optional<std::uint64_t> expectedPixels;
};

/**
 * Drop accounting of the live ingestion service (class-5 tokens,
 * live/tokens.hh): a session running a shed-* backpressure policy
 * appends, per stream, one evLiveProduced marker (param = events the
 * producer offered) and, when anything was shed, one evLiveDropped
 * marker (param = events shed); a degraded live::RobustProducer
 * additionally appends evLiveSpilled (events diverted to its local
 * spool and never delivered) and evLiveReplayed (events re-sent from
 * the spool/replay buffer after a reconnect) markers. This rule
 * checks the books: in every stream carrying accounting tokens, the
 * non-accounting events actually present (delivered) plus the
 * declared drops plus the declared spills must equal the declared
 * production — exact conservation, not a bound (replays are only
 * bounded: replayed <= delivered) — and the markers themselves must
 * be well-formed (at most one of each per
 * stream, no dropped marker without its produced marker). Streams and
 * traces without accounting tokens pass trivially (a lossless block-
 * policy trace carries none by design). Counts compare modulo the
 * marker params' 32-bit saturation (produced >= 2^32 - 1 is accepted
 * as saturated).
 */
class LiveAccountingRule : public Rule
{
  public:
    const char *
    name() const override
    {
        return "live-accounting";
    }

    void check(const std::vector<trace::TraceEvent> &events,
               std::vector<Violation> &out) const override;
};

/**
 * Runs a pluggable set of invariant rules over an evaluation trace.
 *
 * @code
 * auto validator = validate::TraceValidator::forRayTracer();
 * const auto violations = validator.validate(result.events);
 * if (!violations.empty())
 *     std::puts(validate::formatViolations(violations).c_str());
 * @endcode
 */
class TraceValidator
{
  public:
    /** Append a rule; rules run in insertion order. */
    void
    addRule(std::unique_ptr<Rule> rule)
    {
        rules.push_back(std::move(rule));
    }

    /** Generic rule set: order, causality, conservation, LWP
     *  legality. Applicable to any harvested trace. */
    static TraceValidator standard();

    /**
     * Rule set for parallel ray tracer traces: standard() plus the
     * ray tracer token dictionary and activity sanity, optionally
     * pinned to ground-truth counts.
     */
    static TraceValidator forRayTracer(
        ConservationExpectations expect = {});

    /**
     * Rule set for fault-injected runs. Conservation and the LWP
     * state machine are replaced (their healthy-run assumptions -
     * every job worked exactly once, processes only exit themselves -
     * are exactly what faults break) by the fault-aware rules:
     * retry-tolerant causality, fault observation, recovery
     * consistency and coverage conservation.
     */
    static TraceValidator forFaultRun(
        faults::FaultStats expect_faults,
        std::optional<std::uint64_t> expected_pixels = std::nullopt);

    /** Run all rules; returns every violation found (per rule capped
     *  at maxViolationsPerRule to keep reports readable). */
    std::vector<Violation> validate(
        const std::vector<trace::TraceEvent> &events) const;

    /** Cap on recorded violations per rule. */
    static constexpr std::size_t maxViolationsPerRule = 64;

  private:
    std::vector<std::unique_ptr<Rule>> rules;
};

} // namespace validate
} // namespace supmon

#endif // VALIDATE_RULES_HH
