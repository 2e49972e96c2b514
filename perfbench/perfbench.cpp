/**
 * @file
 * End-to-end benchmark: measure -> archive -> query.
 *
 * One process runs one workload (README.md lists them and why they
 * were chosen) through the library's public calls only:
 *
 *  - a measurement is par::runRayTracer -> trace::saveTrace -> one
 *    servant-utilization query (query::runQueryFileSharded) on the
 *    saved file: the paper's instrumented run plus its offline
 *    evaluation;
 *  - an ingest session replays a measured trace through a
 *    live::LiveSession of one live::Collector (lossless `block`
 *    policy) into a .smtr archive written by this file's own
 *    EventSink around trace::TraceWriter;
 *  - a query runs one query of the mix over an archive at
 *    jobs = nproc (and, for the parallel layer, at jobs = 1).
 *
 * Every operation is checked (README.md, "Correctness checks"); a
 * failed check marks its operation failed and the run incorrect. The
 * raw samples, counts and (in a traced run) spans go to --out as one
 * JSON document; report.py reduces them to metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/collector.hh"
#include "partracer/runner.hh"
#include "query/query.hh"
#include "query/sharded.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "spans.hh"
#include "trace/activity.hh"
#include "trace/io.hh"
#include "validate/golden.hh"
#include "validate/scenarios.hh"

using namespace supmon;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace
{

using Clock = std::chrono::steady_clock;

/** Queries needed so that 10 samples lie beyond the 95th
 *  percentile (report.py withholds it otherwise). */
constexpr std::size_t minQuerySamples = 200;
/** Timed measurements at least, when the workload has any. */
constexpr std::size_t minMeasurements = 3;
/** Ingest rounds at least. */
constexpr std::size_t minIngestRounds = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string out;
    std::string workDir;
    std::string goldenDir;
};

/** One workload: the traces it harvests in set-up and how it splits
 *  --seconds over the timed phases (the rest goes to queries). */
struct Workload
{
    /** Source configurations; one ingest tenant replays each. */
    std::vector<par::RunConfig> sources;
    /** Set-up repetitions; setup_s is their median. */
    int setupRepeats = 3;
    /** Share of --seconds spent measuring (0 = none: the workload's
     *  measurements happen in set-up only). */
    double measureShare = 0.0;
    double ingestShare = 0.0;
};

par::RunConfig
baseConfig(par::Version version, unsigned servants, unsigned edge,
           std::uint64_t seed)
{
    par::RunConfig cfg;
    cfg.version = version;
    cfg.numServants = servants;
    cfg.imageWidth = edge;
    cfg.imageHeight = edge;
    cfg.applyVersionDefaults();
    // Job Send markers: the validator's causality chains and the
    // mix's rtt query need them.
    cfg.instrumentJobSend = true;
    cfg.seed = seed;
    return cfg;
}

/** V4 tuned on 2100 servants: thousands of streams, analysis-bound. */
par::RunConfig
wideConfig(std::uint64_t seed)
{
    par::RunConfig cfg =
        baseConfig(par::Version::V4Tuned, 2100, 512, seed);
    // Small bundles keep every window saturated at this fan-out; the
    // pixel-queue constant is recomputed for them as the scaled
    // scenarios do.
    cfg.bundleSize = 16;
    cfg.pixelQueueLimit = static_cast<std::size_t>(cfg.bundleSize) *
                              cfg.windowSize * cfg.numServants +
                          cfg.bundleSize;
    return cfg;
}

/** V1 mailbox on the paper's 16-node partition: simulation-bound. */
par::RunConfig
denseConfig(std::uint64_t seed)
{
    return baseConfig(par::Version::V1Mailbox, 15, 256, seed);
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    if (name == "measure-wide") {
        w.sources = {wideConfig(seed)};
        // Its queries are slow (thousands of streams): a larger share
        // gives the 95th percentile more than its minimum samples.
        w.measureShare = 0.55;
        w.ingestShare = 0.1;
    } else if (name == "measure-dense") {
        w.sources = {denseConfig(seed)};
        w.measureShare = 0.55;
        w.ingestShare = 0.25;
    } else if (name == "archive") {
        w.sources = {denseConfig(sim::deriveSeed(seed, 1)),
                     denseConfig(sim::deriveSeed(seed, 2))};
        // Its set-up harvests are its only measure_s samples.
        w.setupRepeats = 4;
        w.measureShare = 0.0;
        w.ingestShare = 0.4;
    } else {
        return false;
    }
    return true;
}

/**
 * The query mix, as (layer name, query text). Seven kinds, not six:
 * the mix's median must fall inside one kind's latency cluster, well
 * away from its neighbours'. With an even number of equally weighted
 * kinds it falls on a cluster boundary and jumps between two kinds
 * from run to run. The seventh kind, event_rate, is a long one, so the
 * median lands on a mid-length kind (window_count on 15 streams, count
 * on 2100) with no near twin, not on the short kinds whose latency
 * drifts most with the host.
 */
const std::vector<std::pair<std::string, std::string>> &
queryMix()
{
    static const std::vector<std::pair<std::string, std::string>> mix =
        {
            {"states", "filter stream=servant* | states"},
            {"event_rate", "window 10s | count"},
            {"utilization",
             "filter stream=servant* | window 100ms | utilization"},
            {"count", "count"},
            {"latency", "latency bins=50"},
            {"rtt", "rtt begin=evJobSend end=evWorkBegin"},
            {"window_count", "filter token=evWork* | window 1s | count"},
        };
    return mix;
}

/** Kinds also run at jobs = 1 in every round (parallel speedups). */
bool
pairedWithSerial(const std::string &kind)
{
    return kind == "states" || kind == "count";
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Same doubles, bit for bit, not merely equal values. */
bool
sameTable(const query::Table &a, const query::Table &b)
{
    if (a.columns != b.columns || a.rows.size() != b.rows.size())
        return false;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        const auto &x = a.rows[r];
        const auto &y = b.rows[r];
        if (x.size() != y.size())
            return false;
        for (std::size_t c = 0; c < x.size(); ++c) {
            if (x[c].kind != y[c].kind || x[c].text != y[c].text ||
                x[c].integer != y[c].integer ||
                std::memcmp(&x[c].real, &y[c].real, sizeof(double)) != 0)
                return false;
        }
    }
    return true;
}

/** Exact counts of one harvested trace: identical on every repeat of
 *  one seed, so a later change can cite them as counts. */
struct Counts
{
    std::uint64_t simEvents = 0;
    std::uint64_t eventsRecorded = 0;
    std::uint64_t eventsLost = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceHash = 0;

    bool operator==(const Counts &) const = default;

    std::string
    str() const
    {
        return sim::strprintf(
            "sim.events=%llu zm4.events_recorded=%llu "
            "zm4.events_lost=%llu hybrid.protocol_errors=%llu "
            "trace.events=%llu trace.hash=%s",
            static_cast<unsigned long long>(simEvents),
            static_cast<unsigned long long>(eventsRecorded),
            static_cast<unsigned long long>(eventsLost),
            static_cast<unsigned long long>(protocolErrors),
            static_cast<unsigned long long>(traceEvents),
            validate::hashHex(traceHash).c_str());
    }
};

Counts
countsOf(const par::RunResult &res)
{
    Counts c;
    c.simEvents = res.simEventsExecuted;
    c.eventsRecorded = res.eventsRecorded;
    c.eventsLost = res.eventsLost;
    c.protocolErrors = res.protocolErrors;
    c.traceEvents = res.events.size();
    c.traceHash = validate::traceHash(res.events);
    return c;
}

/** Live-layer counters summed over every ingest round (high-water
 *  marks: their maximum). */
struct LiveTotals
{
    std::uint64_t sessions = 0;
    std::uint64_t events = 0;
    /** Wall time of the ingest rounds. */
    double seconds = 0.0;
    std::uint64_t producerStalls = 0;
    std::uint64_t collectorStalls = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t dropped = 0;
    std::size_t ringHighWater = 0;
    std::size_t bufferHighWater = 0;
};

/** This process's own directory for trace files under the work
 *  directory, removed with everything in it on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &work_dir)
        : path(sim::strprintf("%s/run-%d", work_dir.c_str(),
                              static_cast<int>(::getpid())))
    {
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

class Bench;

/** One checked operation: counted as attempted on construction and
 *  as failed (once) on its first failed check. */
class Operation
{
  public:
    explicit Operation(Bench &bench);

    /** @return @p ok, recording @p what as an error when false. */
    bool check(bool ok, const std::string &what);

  private:
    Bench &bench;
    bool failed = false;
};

/** An EventSink that archives through trace::TraceWriter and times
 *  every append as a `trace.append` span. */
class ArchiveSink : public live::EventSink
{
  public:
    ArchiveSink(const std::string &path, std::uint64_t seed,
                SpanRecorder &recorder, int parent, int request)
        : writer(path, seed), recorder(recorder), parent(parent),
          request(request)
    {
    }

    std::size_t
    accept(const trace::TraceEvent *events, std::size_t n) override
    {
        ScopedSpan span(recorder, "trace.append", parent, request);
        span.setCount(n);
        // A sticky write error must still consume, or the session
        // re-offers the batch forever; finish() reports it.
        writer.append(events, n);
        return n;
    }

    void
    finish() override
    {
        finished = writer.finish();
    }

    /** finish() ran and every append and the close succeeded. */
    bool
    ok() const
    {
        return finished && writer.ok();
    }

    std::uint64_t
    written() const
    {
        return writer.written();
    }

    const std::string &
    error() const
    {
        return writer.error();
    }

  private:
    trace::TraceWriter writer;
    SpanRecorder &recorder;
    const int parent;
    const int request;
    bool finished = false;
};

class Bench
{
  public:
    explicit Bench(const Options &options)
        : opts(options), scratch(options.workDir), origin(Clock::now()),
          recorder(origin), jobs(usableCpus())
    {
    }

    void
    run(const Workload &w)
    {
        const auto stage = [](const char *name, auto &&body) {
            const auto start = Clock::now();
            body();
            std::fprintf(stderr, "perfbench: %s %.2f s\n", name,
                         perfbench::secondsSince(start));
        };
        stage("golden checks", [&] { checkGoldens(); });
        stage("set-up", [&] { setUp(w); });
        stage("validation", [&] { validateSources(); });
        stage("timed phase", [&] {
            if (parseMix())
                timedPhase(w);
        });
        checkCountsAcrossRuns();
    }

    void
    recordFailure(bool first_of_op, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (first_of_op)
            ++failed;
        errors.push_back(what);
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }

    void
    countAttempt()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++attempted;
    }

    /** Write the raw result document read by report.py. */
    bool writeRaw() const;

  private:
    /** The four golden scenarios still reproduce tests/golden/. */
    void
    checkGoldens()
    {
        for (const auto &scenario : validate::goldenScenarios()) {
            Operation op(*this);
            const par::RunResult res = validate::runScenario(scenario);
            const auto want = validate::loadGolden(
                opts.goldenDir + "/" + scenario.goldenFileName());
            const validate::TraceDigest got =
                validate::digestOf(res.events);
            op.check(want.has_value() && *want == got,
                     sim::strprintf(
                         "golden %s: digest %s %llu vs %s",
                         scenario.name.c_str(),
                         validate::hashHex(got.hash).c_str(),
                         static_cast<unsigned long long>(got.eventCount),
                         want ? validate::hashHex(want->hash).c_str()
                              : "(missing golden file)"));
        }
    }

    /**
     * Harvest the source traces w.setupRepeats times; setup_s is each
     * repetition's time, the last repetition's traces are kept. Every
     * harvest is a full measurement, and all but the first (cold) one
     * also count as measure_s samples.
     */
    void
    setUp(const Workload &w)
    {
        sources.resize(w.sources.size());
        for (int rep = 0; rep < w.setupRepeats; ++rep) {
            double seconds = 0.0;
            for (std::size_t i = 0; i < w.sources.size(); ++i) {
                double wall = 0.0;
                sources[i] = measure(w.sources[i], /*setup=*/true,
                                     /*sample=*/rep > 0 || i > 0, wall);
                seconds += wall;
            }
            setupSeconds.push_back(seconds);
        }
    }

    void
    validateSources()
    {
        // Repeats of one seed are digest-identical (checked by
        // measure()), so validating one of them covers all.
        for (const par::RunResult &res : sources) {
            Operation op(*this);
            const auto violations = validate::validateRun(res);
            op.check(violations.empty(),
                     sim::strprintf("seed %llu: %zu validator "
                                    "violations:\n%s",
                                    static_cast<unsigned long long>(
                                        res.config.seed),
                                    violations.size(),
                                    validate::formatViolations(violations)
                                        .c_str()));
        }
    }

    /**
     * The timed phase: measurement, ingest and query operations
     * interleaved, the kind furthest behind its share of --seconds
     * running next. Each kind's samples so spread over the whole
     * phase; the host's speed drifts over seconds, and a block of one
     * kind would sample one moment of it. Past --seconds, only kinds
     * short of their minimum sample count still run.
     */
    void
    timedPhase(const Workload &w)
    {
        enum Kind
        {
            Measure,
            Ingest,
            Query,
            kinds
        };
        const double share[kinds] = {
            w.measureShare, w.ingestShare,
            1.0 - w.measureShare - w.ingestShare};
        double spent[kinds] = {};
        const auto start = Clock::now();
        for (;;) {
            const bool overtime = perfbench::secondsSince(start) >=
                                  opts.seconds;
            const bool short_of[kinds] = {
                timedMeasurements < minMeasurements,
                ingestRounds < minIngestRounds,
                querySamples() < minQuerySamples};
            int next = -1;
            for (int k = 0; k < kinds; ++k) {
                if (share[k] <= 0.0 || (overtime && !short_of[k]) ||
                    (k == Query && ingestRounds == 0))
                    continue;
                if (next < 0 ||
                    spent[k] / share[k] < spent[next] / share[next])
                    next = k;
            }
            if (next < 0)
                break;
            const auto opStart = Clock::now();
            if (next == Measure) {
                double wall = 0.0;
                measure(w.sources[timedMeasurements % w.sources.size()],
                        /*setup=*/false, /*sample=*/true, wall);
                ++timedMeasurements;
            } else if (next == Ingest) {
                ingestRound();
            } else {
                queryRound();
            }
            spent[next] += perfbench::secondsSince(opStart);
        }
    }

    /**
     * One measurement: runRayTracer -> saveTrace -> utilization query
     * on the saved file (timed as one unit), then its checks. In a
     * traced operation the ActivityMap build and meanUtilization the
     * runner makes inside are repeated on the result, untimed by the
     * measurement, so their share of the run shows.
     */
    par::RunResult
    measure(const par::RunConfig &cfg, bool setup, bool sample,
            double &wall)
    {
        Operation op(*this);
        const bool traced = traceNextOp();
        const int request = nextRequest++;
        const std::string path = scratch.path + "/measure.smtr";
        par::RunResult res;
        query::Table table;
        std::string error;
        bool saved = false;
        bool answered = false;
        const auto start = Clock::now();
        {
            ScopedSpan root(recorder, setup ? "setup.measure" : "measure",
                            -1, request);
            {
                ScopedSpan span(recorder, "partracer.run",
                                root.spanId(), request);
                sim::QuietScope quiet;
                res = par::runRayTracer(cfg);
            }
            {
                ScopedSpan span(recorder, "trace.save", root.spanId(),
                                request);
                saved = trace::saveTrace(path, res.events, cfg.seed);
            }
            {
                ScopedSpan span(recorder, "query.answer",
                                root.spanId(), request);
                const auto parsed = query::parseQuery(sim::strprintf(
                    "filter stream=servant* from=0 to=%llu | "
                    "window %llu | utilization",
                    static_cast<unsigned long long>(res.phaseEnd),
                    static_cast<unsigned long long>(res.phaseBegin)));
                answered = parsed.ok &&
                           query::runQueryFileSharded(
                               path, res.dictionary, parsed.query, jobs,
                               table, error, res.phaseEnd);
                if (!parsed.ok)
                    error = parsed.error;
            }
        }
        wall = std::chrono::duration<double>(Clock::now() - start)
                   .count();
        if (sample)
            (traced ? measureTracedSeconds : measureSeconds)
                .push_back(wall);

        const std::string who = sim::strprintf(
            "measurement seed %llu",
            static_cast<unsigned long long>(cfg.seed));
        op.check(res.completed, who + ": did not complete");
        op.check(res.missingPixels == 0 && res.duplicatedPixels == 0,
                 sim::strprintf("%s: %zu missing, %zu duplicated pixels",
                                who.c_str(), res.missingPixels,
                                res.duplicatedPixels));
        op.check(saved, who + ": saveTrace failed");
        if (op.check(answered, who + ": query failed: " + error))
            checkUtilization(op, who, res, table);
        checkRepeat(op, who, res);
        if (traced)
            diagnose(op, res);
        return res;
    }

    /**
     * The servant utilization integrated from the query's windowed
     * answer equals the runner's measured servant utilization.
     *
     * The runner's range starts at the host-side phase begin, a few
     * microseconds after the first Work Begin record's timestamp, so
     * `from=<phase begin>` would drop that record. Instead the windows
     * are as long as the phase begin, anchored at 0: window 0 is the
     * pre-phase part and windows 1.. tile [phase begin, phase end).
     */
    void
    checkUtilization(Operation &op, const std::string &who,
                     const par::RunResult &res,
                     const query::Table &table)
    {
        const double window = static_cast<double>(res.phaseBegin);
        double covered = 0.0;
        for (const auto &row : table.rows) {
            if (row.front().real > 0.0)
                covered += row.back().real * window;
        }
        const double phase =
            static_cast<double>(res.phaseEnd - res.phaseBegin);
        const double mean =
            res.servantStreams.empty()
                ? 0.0
                : covered / phase /
                      static_cast<double>(res.servantStreams.size());
        op.check(std::fabs(mean - res.servantUtilizationMeasured) <= 1e-9,
                 sim::strprintf("%s: query utilization %.12f vs "
                                "measured %.12f",
                                who.c_str(), mean,
                                res.servantUtilizationMeasured));
    }

    /** Every measurement of one seed repeats the first exactly. */
    void
    checkRepeat(Operation &op, const std::string &who,
                const par::RunResult &res)
    {
        const Counts c = countsOf(res);
        const auto [it, first] = counts.try_emplace(res.config.seed, c);
        op.check(first || it->second == c,
                 who + ": counts changed between repeats: " +
                     it->second.str() + " then " + c.str());
    }

    void
    diagnose(Operation &op, const par::RunResult &res)
    {
        const int request = nextRequest++;
        ScopedSpan root(recorder, "diagnose", -1, request);
        trace::ActivityMap map;
        {
            ScopedSpan span(recorder, "trace.activity", root.spanId(),
                            request);
            map = trace::ActivityMap::build(res.events, res.dictionary,
                                            res.phaseEnd);
        }
        double u = 0.0;
        {
            ScopedSpan span(recorder, "trace.utilization",
                            root.spanId(), request);
            u = map.meanUtilization(res.servantStreams, "WORK",
                                    res.phaseBegin, res.phaseEnd);
        }
        intervals[res.config.seed] = map.intervals().size();
        op.check(u == res.servantUtilizationMeasured,
                 "repeated meanUtilization differs from the runner's");
    }

    /** Two-run guard: counts of one seed also repeat across runs of
     *  the same build (keyed by the binary's size and mtime). */
    void
    checkCountsAcrossRuns()
    {
        struct stat st{};
        if (::stat("/proc/self/exe", &st) != 0)
            return;
        std::ostringstream now;
        now << "build " << st.st_size << ' ' << st.st_mtim.tv_sec << '.'
            << st.st_mtim.tv_nsec << '\n';
        for (const auto &[seed, c] : counts)
            now << "seed " << seed << ' ' << c.str() << '\n';
        const std::string path =
            sim::strprintf("%s/counts-%s-%llu.txt", opts.workDir.c_str(),
                           opts.workload.c_str(),
                           static_cast<unsigned long long>(opts.seed));
        std::ifstream in(path);
        if (in) {
            std::stringstream before;
            before << in.rdbuf();
            const std::string old = before.str();
            const std::string build = now.str().substr(
                0, now.str().find('\n') + 1);
            if (old.rfind(build, 0) == 0) {
                Operation op(*this);
                op.check(old == now.str(),
                         "counts differ from an earlier run of this "
                         "seed and build:\n" +
                             old + "now:\n" + now.str());
                return;
            }
        }
        std::ofstream(path) << now.str();
    }

    // ------------------------------------------------------- ingest

    /** One ingest round: every tenant replays its source trace as one
     *  session of a fresh collector (one drain loop), concurrently;
     *  then each archive is re-read and checked. */
    void
    ingestRound()
    {
        recorder.setEnabled(opts.traced);
        live::Collector collector;
        const auto start = Clock::now();
        {
            std::vector<std::jthread> tenants;
            for (std::size_t t = 0; t < sources.size(); ++t) {
                tenants.emplace_back([this, t, &collector] {
                    try {
                        session(collector, t);
                    } catch (const std::exception &e) {
                        recordFailure(true, sim::strprintf(
                                                "tenant-%zu: %s", t,
                                                e.what()));
                    }
                });
            }
        }
        const double seconds = perfbench::secondsSince(start);
        collector.requestStop();
        collector.wait();

        const live::IngestMetrics m = collector.metrics();
        live.seconds += seconds;
        live.producerStalls += m.producerStalls;
        live.collectorStalls += m.collectorStalls;
        live.idleCycles += m.idleCycles;
        live.dropped += m.dropped;
        live.ringHighWater = std::max(live.ringHighWater, m.ringHighWater);
        live.bufferHighWater =
            std::max(live.bufferHighWater, m.bufferHighWater);
        ++ingestRounds;
        for (std::size_t t = 0; t < sources.size(); ++t)
            rereadArchive(t);
    }

    std::string
    archivePath(std::size_t tenant) const
    {
        return sim::strprintf("%s/tenant-%zu.smtr", scratch.path.c_str(),
                              tenant);
    }

    /** One tenant session: publish the whole source trace, close, wait
     *  until the collector retired the session. */
    void
    session(live::Collector &collector, std::size_t tenant)
    {
        Operation op(*this);
        const par::RunResult &source = sources[tenant];
        const int request = nextRequest++;
        ScopedSpan root(recorder, "live.session", -1, request);
        auto sink = std::make_shared<ArchiveSink>(
            archivePath(tenant), source.config.seed, recorder,
            root.spanId(), request);
        live::SessionConfig cfg;
        cfg.tenant = sim::strprintf("tenant-%zu", tenant);
        cfg.seed = source.config.seed;
        cfg.policy = live::Backpressure::Block;
        const auto session = collector.open(cfg, sink);
        {
            ScopedSpan span(recorder, "live.publish", root.spanId(),
                            request);
            for (const trace::TraceEvent &ev : source.events)
                session->publish(ev);
            session->close();
            span.setCount(source.events.size());
        }
        while (!session->finished())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        root.setCount(source.events.size());

        const live::SessionMetrics m = session->metrics();
        const std::string who =
            sim::strprintf("session %d (%s)", request, cfg.tenant.c_str());
        op.check(sink->ok(), who + ": archive write failed: " +
                                 sink->error());
        op.check(m.produced == source.events.size() &&
                     m.delivered + m.dropped == m.produced &&
                     m.dropped == 0 && sink->written() == m.delivered,
                 sim::strprintf(
                     "%s: produced %llu delivered %llu dropped %llu "
                     "written %llu of %zu",
                     who.c_str(),
                     static_cast<unsigned long long>(m.produced),
                     static_cast<unsigned long long>(m.delivered),
                     static_cast<unsigned long long>(m.dropped),
                     static_cast<unsigned long long>(sink->written()),
                     source.events.size()));
        std::lock_guard<std::mutex> lock(mutex);
        ++live.sessions;
        live.events += m.delivered;
    }

    // -------------------------------------------------------- query

    bool
    parseMix()
    {
        for (const auto &[kind, text] : queryMix()) {
            const query::ParseResult p = query::parseQuery(text);
            if (!p.ok) {
                Operation op(*this);
                op.check(false, "query '" + text + "': " + p.error);
                return false;
            }
            mix.push_back(p.query);
        }
        return true;
    }

    /** The query mix once over every archive at jobs = nproc; the
     *  first round also runs every query at jobs = 1, later rounds
     *  the paired kinds only. */
    void
    queryRound()
    {
        const bool traced = traceNextOp();
        for (std::size_t t = 0; t < sources.size(); ++t) {
            for (std::size_t k = 0; k < mix.size(); ++k) {
                const std::string &kind = queryMix()[k].first;
                runQuery(t, kind, mix[k], traced,
                         queryRounds == 0 || pairedWithSerial(kind));
            }
        }
        ++queryRounds;
    }

    std::size_t
    querySamples() const
    {
        return queryMs.size() + queryTracedMs.size();
    }

    void
    rereadArchive(std::size_t tenant)
    {
        Operation op(*this);
        const int request = nextRequest++;
        const par::RunResult &source = sources[tenant];
        const std::string path = archivePath(tenant);
        trace::TraceReader reader(path);
        if (!op.check(reader.ok(), path + ": " + reader.error()))
            return;
        std::vector<trace::TraceEvent> events(reader.declaredCount());
        std::size_t got = 0;
        {
            ScopedSpan span(recorder, "trace.read", -1, request);
            while (got < events.size()) {
                const std::size_t n =
                    reader.nextBatch(events.data() + got,
                                     std::min<std::size_t>(
                                         4096, events.size() - got));
                if (n == 0)
                    break;
                got += n;
            }
            span.setCount(got);
        }
        op.check(reader.error().empty() && got == events.size() &&
                     validate::digestOf(events) ==
                         validate::digestOf(source.events),
                 path + ": archive does not re-read as its source trace " +
                     reader.error());
    }

    void
    runQuery(std::size_t tenant, const std::string &kind,
             const query::Query &q, bool traced, bool serial)
    {
        Operation op(*this);
        const par::RunResult &source = sources[tenant];
        const std::string path = archivePath(tenant);
        const std::string who =
            sim::strprintf("query %s on tenant-%zu", kind.c_str(), tenant);
        query::Table parallel;
        std::string error;
        const int request = nextRequest++;
        const auto start = Clock::now();
        bool ok = false;
        {
            ScopedSpan span(recorder, "query." + kind, -1, request);
            ok = query::runQueryFileSharded(path, source.dictionary, q,
                                            jobs, parallel, error);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count();
        (traced ? queryTracedMs : queryMs).push_back(ms);
        if (!op.check(ok && !parallel.rows.empty(),
                      who + ": failed or empty: " + error) ||
            !serial)
            return;

        query::Table single;
        {
            ScopedSpan span(recorder, "query." + kind + "_jobs1", -1,
                            request);
            ok = query::runQueryFileSharded(path, source.dictionary, q, 1,
                                            single, error);
        }
        op.check(ok && sameTable(parallel, single),
                 sim::strprintf("%s: jobs=%u table differs from jobs=1 %s",
                                who.c_str(), jobs, error.c_str()));
    }

    // ------------------------------------------------------ helpers

    /** A traced run records every other operation, so the untraced
     *  ones in between give the tracing overhead; an untraced run
     *  records none. */
    bool
    traceNextOp()
    {
        const bool on = opts.traced && (opIndex++ % 2 == 0);
        recorder.setEnabled(on);
        return on;
    }

    const Options opts;
    const ScratchDir scratch;
    const Clock::time_point origin;
    SpanRecorder recorder;
    const unsigned jobs;

    std::mutex mutex; // guards the accounting below and `live`
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    LiveTotals live;

    std::atomic<int> nextRequest{0};
    std::uint64_t opIndex = 0;
    std::vector<par::RunResult> sources;
    std::map<std::uint64_t, Counts> counts;
    std::map<std::uint64_t, std::size_t> intervals;
    std::size_t timedMeasurements = 0;
    std::size_t ingestRounds = 0;
    std::size_t queryRounds = 0;
    std::vector<query::Query> mix;

    std::vector<double> setupSeconds;
    std::vector<double> measureSeconds;
    std::vector<double> measureTracedSeconds;
    std::vector<double> queryMs;
    std::vector<double> queryTracedMs;
};

Operation::Operation(Bench &bench) : bench(bench)
{
    bench.countAttempt();
}

bool
Operation::check(bool ok, const std::string &what)
{
    if (!ok) {
        bench.recordFailure(!failed, what);
        failed = true;
    }
    return ok;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumbers(const std::vector<double> &xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += sim::strprintf("%s%.9g", i ? ", " : "", xs[i]);
    return out + "]";
}

bool
Bench::writeRaw() const
{
    std::FILE *f = std::fopen(opts.out.c_str(), "w");
    if (!f)
        return false;
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };

    std::fprintf(f, "{\n\"workload\": %s,\n\"seed\": %llu,\n",
                 jsonString(opts.workload).c_str(), u(opts.seed));
    std::fprintf(f, "\"traced\": %s,\n\"jobs\": %u,\n",
                 opts.traced ? "true" : "false", jobs);
    std::fprintf(f, "\"attempted\": %llu,\n\"failed\": %llu,\n",
                 u(attempted), u(failed));
    std::fprintf(f, "\"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", jsonString(errors[i]).c_str());
    std::fprintf(f, "],\n\"peak_rss_mb\": %.6f,\n",
                 static_cast<double>(usage.ru_maxrss) / 1024.0);
    std::fprintf(f, "\"setup_s\": %s,\n", jsonNumbers(setupSeconds).c_str());
    std::fprintf(f, "\"measure_s\": %s,\n",
                 jsonNumbers(measureSeconds).c_str());
    std::fprintf(f, "\"measure_traced_s\": %s,\n",
                 jsonNumbers(measureTracedSeconds).c_str());
    std::fprintf(f, "\"timed_measurements\": %zu,\n", timedMeasurements);
    std::fprintf(f, "\"query_ms\": %s,\n", jsonNumbers(queryMs).c_str());
    std::fprintf(f, "\"query_traced_ms\": %s,\n",
                 jsonNumbers(queryTracedMs).c_str());

    // Counts of the first source seed; every source repeats its own
    // exactly (checked), and the sources of one workload share a
    // configuration.
    const Counts c = counts.empty() ? Counts{} : counts.begin()->second;
    const std::size_t nIntervals =
        intervals.empty() ? 0 : intervals.begin()->second;
    std::fprintf(f,
                 "\"counts\": {\"sim.events\": %llu, "
                 "\"zm4.events_recorded\": %llu, "
                 "\"zm4.events_lost\": %llu, "
                 "\"hybrid.protocol_errors\": %llu, "
                 "\"trace.events\": %llu, \"trace.intervals\": %zu},\n",
                 u(c.simEvents), u(c.eventsRecorded), u(c.eventsLost),
                 u(c.protocolErrors), u(c.traceEvents), nIntervals);

    std::fprintf(f,
                 "\"ingest\": {\"sessions\": %llu, \"events\": %llu, "
                 "\"seconds\": %.9f, \"producer_stalls\": %llu, "
                 "\"collector_stalls\": %llu, \"idle_cycles\": %llu, "
                 "\"ring_high_water\": %zu, \"buffer_high_water\": %zu, "
                 "\"dropped\": %llu},\n",
                 u(live.sessions), u(live.events), live.seconds,
                 u(live.producerStalls), u(live.collectorStalls),
                 u(live.idleCycles), live.ringHighWater,
                 live.bufferHighWater, u(live.dropped));

    std::fprintf(f, "\"spans\": [");
    const auto spans = recorder.all();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        std::fprintf(f, "%s\n[%s, %.9f, %.9f, %d, %d, %llu]",
                     i ? "," : "", jsonString(s.name).c_str(), s.start,
                     s.end, s.parent, s.request, u(s.count));
    }
    std::fprintf(f, "]\n}\n");
    return std::fclose(f) == 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload measure-wide|measure-dense|archive"
                 " --seed N --seconds S --trace 0|1 --out FILE"
                 " --work-dir DIR --golden-dir DIR\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opts.workload = value;
        else if (key == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opts.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            opts.traced = value == "1";
        else if (key == "--out")
            opts.out = value;
        else if (key == "--work-dir")
            opts.workDir = value;
        else if (key == "--golden-dir")
            opts.goldenDir = value;
        else
            return usage(argv[0]);
    }
    Workload workload;
    if (argc % 2 != 1 || !makeWorkload(opts.workload, opts.seed, workload) ||
        !(opts.seconds > 0.0) || opts.out.empty() ||
        opts.workDir.empty() || opts.goldenDir.empty())
        return usage(argv[0]);

    Bench bench(opts);
    bench.run(workload);
    if (!bench.writeRaw()) {
        std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
        return 1;
    }
    return 0;
}
