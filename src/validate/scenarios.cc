#include "validate/scenarios.hh"

#include "sim/logging.hh"

namespace supmon
{
namespace validate
{

namespace
{

par::RunConfig
baseConfig(par::Version version, unsigned servants, unsigned edge)
{
    par::RunConfig cfg;
    cfg.version = version;
    cfg.numServants = servants;
    cfg.imageWidth = edge;
    cfg.imageHeight = edge;
    cfg.applyVersionDefaults();
    // The per-job send metadata gives the causality rule complete
    // send -> work -> result chains to match.
    cfg.instrumentJobSend = true;
    return cfg;
}

std::vector<Scenario>
makeScenarios()
{
    std::vector<Scenario> list;
    {
        Scenario s;
        s.name = "fig07-mailbox";
        s.description = "version 1, mailbox communication on two "
                        "processors (Figure 7)";
        s.config = baseConfig(par::Version::V1Mailbox, 1, 16);
        s.config.writeBatchMin = 3;
        list.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "fig09-agents";
        s.description = "version 2, communication agents forward "
                        "master->servant (Figure 9)";
        s.config = baseConfig(par::Version::V2AgentsForward, 3, 16);
        list.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "fig10-versions";
        s.description = "version 4, tuned bundle and queue constant "
                        "(Figure 10 end point)";
        s.config = baseConfig(par::Version::V4Tuned, 7, 24);
        list.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "faulty-moderate";
        s.description = "version 4 under fault injection: one servant "
                        "killed mid-run, 1% bus message loss; the "
                        "fault-tolerant protocol completes the image";
        s.config = baseConfig(par::Version::V4Tuned, 7, 32);
        s.config.faultTolerant = true;
        // Smaller bundles than the throughput-tuned V4 default: the
        // nodes schedule non-preemptively, so the bundle compute time
        // is the latency floor of every liveness/ack signal. 16 pixels
        // (~85 ms) keeps heartbeats and results flowing well inside
        // the recovery timeouts; 100-pixel bundles (~530 ms) would
        // starve them into false servant deaths.
        s.config.bundleSize = 16;
        s.config.pixelQueueLimit =
            static_cast<std::size_t>(s.config.bundleSize) *
                s.config.windowSize * s.config.numServants +
            s.config.bundleSize;
        // Reassignments and resends bypass the window flow control,
        // so after the kill the surviving servants briefly compute
        // back-to-back bundles; stretch both timeouts so that burst
        // neither re-expires healthy jobs nor fakes more deaths.
        s.config.ackTimeout = sim::milliseconds(1200);
        s.config.heartbeatTimeout = sim::milliseconds(1600);
        s.config.faultPlanText = "kill at=1800ms servant=2\n"
                                 "drop p=0.01\n";
        list.push_back(std::move(s));
    }
    return list;
}

/**
 * A scaled what-if machine: the fig10 workload at @p servants
 * servants. Deterministic like the golden runs, but not digest-locked
 * (their traces are too large to commit); they exist to exercise the
 * ladder-queue scheduler and the memory-lean kernel at 10x/100x the
 * paper's node counts, for the throughput bench and the CI Release
 * leg.
 */
Scenario
scaledScenario(const char *name, unsigned servants, unsigned edge)
{
    Scenario s;
    s.name = name;
    s.description = sim::strprintf(
        "version 4 scaled to %u servants (%ux the paper's machine), "
        "%ux%u image",
        servants, (servants + 6) / 7, edge, edge);
    s.config = baseConfig(par::Version::V4Tuned, servants, edge);
    // Small bundles keep every servant's window saturated at these
    // fan-outs; recompute the paper's queue constant for the new
    // bundle size.
    s.config.bundleSize = 16;
    s.config.pixelQueueLimit =
        static_cast<std::size_t>(s.config.bundleSize) *
            s.config.windowSize * s.config.numServants +
        s.config.bundleSize;
    return s;
}

std::vector<Scenario>
makeScaledScenarios()
{
    std::vector<Scenario> list;
    // 10x the fig10 machine: 71 processing nodes across 5 clusters.
    list.push_back(scaledScenario("scaled-10x", 70, 128));
    // 100x: 701 nodes across 44 clusters, past the published torus.
    list.push_back(scaledScenario("scaled-100x", 700, 256));
    // 1000x: 7001 nodes across 438 clusters.
    list.push_back(scaledScenario("scaled-1000x", 7000, 512));
    return list;
}

} // namespace

const std::vector<Scenario> &
goldenScenarios()
{
    static const std::vector<Scenario> scenarios = makeScenarios();
    return scenarios;
}

const std::vector<Scenario> &
scaledScenarios()
{
    static const std::vector<Scenario> scenarios = makeScaledScenarios();
    return scenarios;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &s : goldenScenarios()) {
        if (s.name == name)
            return &s;
    }
    for (const auto &s : scaledScenarios()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

par::RunResult
runScenario(const Scenario &scenario)
{
    sim::QuietScope quiet;
    return par::runRayTracer(scenario.config);
}

ConservationExpectations
expectationsOf(const par::RunResult &result)
{
    ConservationExpectations expect;
    expect.jobsSent = result.jobsSent;
    expect.resultsReceived = result.resultsReceived;
    expect.pixelsWritten = result.config.totalPixels();
    return expect;
}

std::vector<Violation>
validateRun(const par::RunResult &result)
{
    // Fault-injected / fault-tolerant runs break the healthy-run
    // invariants on purpose (resends, external kills); they get the
    // fault-aware rule set instead.
    if (result.config.faultTolerant ||
        !result.config.faultPlanText.empty()) {
        return TraceValidator::forFaultRun(
                   result.faults, result.config.totalPixels())
            .validate(result.events);
    }
    return TraceValidator::forRayTracer(expectationsOf(result))
        .validate(result.events);
}

} // namespace validate
} // namespace supmon
