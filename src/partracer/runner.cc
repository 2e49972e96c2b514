#include "runner.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "faults/plan.hh"
#include "query/engine.hh"
#include "raytracer/scenes.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/harness.hh"

namespace supmon
{
namespace par
{

namespace
{

rt::Scene
buildScene(const RunConfig &cfg)
{
    switch (cfg.scene) {
      case SceneKind::Moderate:
        return rt::moderateScene();
      case SceneKind::FractalPyramid:
        return rt::fractalPyramid(cfg.sceneParam);
      case SceneKind::SphereGrid:
        return rt::sphereGrid(cfg.sceneParam);
    }
    return rt::moderateScene();
}

rt::Camera::Setup
buildCamera(const RunConfig &cfg)
{
    switch (cfg.scene) {
      case SceneKind::Moderate:
        return rt::moderateCamera();
      case SceneKind::FractalPyramid:
        return rt::pyramidCamera();
      case SceneKind::SphereGrid:
        return rt::sphereGridCamera(cfg.sceneParam);
    }
    return rt::moderateCamera();
}

/**
 * Mean WORK utilization of the servant streams over the measurement
 * phase, from one pass of the query engine's utilization fold with
 * the phase as its evaluation range. A servant without a row never
 * worked and counts as 0.
 */
double
measuredServantUtilization(const RunResult &result)
{
    query::Query utilization;
    utilization.fold.kind = query::FoldKind::Utilization;
    utilization.fold.state = "WORK";
    const query::Table table =
        query::runPhaseQuery(result.events, result.dictionary,
                             utilization, result.phaseBegin,
                             result.phaseEnd);
    std::map<std::string, double> byStream;
    for (const auto &row : table.rows)
        byStream[row[0].text] = row[2].real;
    double sum = 0.0;
    for (unsigned stream : result.servantStreams) {
        const auto it =
            byStream.find(result.dictionary.streamName(stream));
        if (it != byStream.end())
            sum += it->second;
    }
    return sum / static_cast<double>(result.servantStreams.size());
}

} // namespace

RunResult
runRayTracer(const RunConfig &cfg)
{
    RunResult result;
    result.config = cfg;

    const unsigned num_nodes = cfg.numServants + 1;

    // ----- machine ------------------------------------------------------
    suprenum::MachineParams mp = cfg.machine;
    const unsigned needed_clusters =
        (num_nodes + mp.nodesPerCluster - 1) / mp.nodesPerCluster;
    if (mp.numClusters < needed_clusters)
        mp.numClusters = needed_clusters;

    sim::Simulation simul;
    suprenum::Machine machine(simul, mp);

    // ----- workload -------------------------------------------------------
    const rt::Scene scene = buildScene(cfg);
    const rt::Camera camera(buildCamera(cfg), cfg.imageWidth,
                            cfg.imageHeight);
    rt::Renderer::Options ropts;
    ropts.oversampling = cfg.oversampling;
    ropts.useBvh = cfg.useBvh;
    const rt::Renderer renderer(scene, camera, ropts);
    auto image =
        std::make_unique<rt::Image>(cfg.imageWidth, cfg.imageHeight);

    // The scene description is replicated on every node involved
    // (ray partitioning's storage disadvantage).
    for (unsigned n = 0; n < num_nodes; ++n) {
        machine.nodeByIndex(n).allocateMemory(scene.descriptionBytes(),
                                              "scene description");
    }

    // ----- ZM4 monitor -----------------------------------------------------
    const bool logfile_mode =
        cfg.monitorMode == hybrid::MonitorMode::LogFile;
    const bool monitored =
        cfg.monitorMode != hybrid::MonitorMode::Off && !logfile_mode;
    if (logfile_mode) {
        // The rudimentary method: no ZM4 - the nodes' own
        // unsynchronized clocks stamp the log records. Give each node
        // a realistic skew derived from the seed.
        sim::Random clock_rng(cfg.seed ^ 0x10c5u);
        for (unsigned n = 0; n < num_nodes; ++n) {
            const auto offset = static_cast<sim::TickDelta>(
                clock_rng.uniformInt(0, 6000000)) -
                3000000; // +/- 3 ms
            const double drift =
                clock_rng.uniformReal(-40.0, 40.0); // ppm
            machine.nodeByIndex(n).configureLocalClock(offset, drift);
        }
    }
    std::unique_ptr<trace::MonitoringHarness> zm4;
    if (monitored) {
        zm4 = std::make_unique<trace::MonitoringHarness>(machine,
                                                         num_nodes);
        zm4->startMeasurement();
        if (!cfg.useGlobalClock) {
            // Demonstration mode: give each recorder its own skewed
            // clock (as if the tick channel were unplugged).
            for (unsigned r = 0; r < zm4->recorderCount(); ++r) {
                zm4->configureSkew(
                    r, static_cast<sim::TickDelta>(r) * 1500 - 1500,
                    (r % 2 ? 40.0 : -25.0));
            }
        }
    }

    // ----- OS instrumentation (future work) ---------------------------------
    struct KernelEntry
    {
        unsigned node;
        sim::Tick at;
        std::uint16_t token;
        std::uint32_t param;
    };
    std::vector<KernelEntry> kernel_trace;
    if (cfg.instrumentKernel) {
        for (unsigned n = 0; n < num_nodes; ++n) {
            machine.nodeByIndex(n).setKernelProbe(
                [&kernel_trace, &simul, n](std::uint16_t token,
                                           std::uint32_t param) {
                    kernel_trace.push_back(
                        {n, simul.now(), token, param});
                },
                cfg.kernelProbeCost);
        }
    }

    // ----- application processes ------------------------------------------
    RunContext ctx;
    ctx.cfg = &cfg;
    ctx.machine = &machine;
    ctx.renderer = &renderer;
    ctx.image = image.get();
    ctx.sceneBytes = scene.descriptionBytes();
    ctx.truth.servantWorkTime.assign(cfg.numServants, 0);

    // Mailboxes first so every process knows its peers' addresses.
    suprenum::Mailbox master_mailbox(machine.nodeByIndex(0),
                                     "master-mailbox");
    ctx.masterMailbox = &master_mailbox;

    std::vector<std::unique_ptr<suprenum::Mailbox>> servant_mailboxes;
    for (unsigned s = 0; s < cfg.numServants; ++s) {
        servant_mailboxes.push_back(std::make_unique<suprenum::Mailbox>(
            machine.nodeByIndex(s + 1),
            "servant-" + std::to_string(s) + "-mailbox"));
        ctx.servantMailboxes.push_back(servant_mailboxes.back().get());
    }

    std::unique_ptr<AgentPool> master_pool;
    if (cfg.forwardAgents()) {
        master_pool = std::make_unique<AgentPool>(
            machine.nodeByIndex(0), "master", cfg.monitorMode);
        ctx.masterPool = master_pool.get();
    }
    std::vector<std::unique_ptr<AgentPool>> servant_pools;
    if (cfg.reverseAgents()) {
        for (unsigned s = 0; s < cfg.numServants; ++s) {
            servant_pools.push_back(std::make_unique<AgentPool>(
                machine.nodeByIndex(s + 1),
                "servant-" + std::to_string(s), cfg.monitorMode));
            ctx.servantPools.push_back(servant_pools.back().get());
        }
    }

    for (unsigned s = 0; s < cfg.numServants; ++s) {
        ctx.servantPids.push_back(
            machine.spawnOn(machine.nodeIdByIndex(s + 1),
                            "servant-" + std::to_string(s),
                            [&ctx, s](suprenum::ProcessEnv env) {
                                return servantProcess(env, ctx, s);
                            }));
    }
    const bool static_mode = cfg.assignment != Assignment::Dynamic;
    if (cfg.faultTolerant && static_mode) {
        sim::fatal("the fault-tolerant protocol requires dynamic "
                   "assignment (static partitioning cannot reassign)");
    }
    if (cfg.faultTolerant) {
        // One liveness beacon per servant node; it falls silent when
        // its servant terminates (or the node crashes with it).
        for (unsigned s = 0; s < cfg.numServants; ++s) {
            machine.spawnOn(machine.nodeIdByIndex(s + 1),
                            "heartbeat-" + std::to_string(s),
                            [&ctx, s](suprenum::ProcessEnv env) {
                                return heartbeatProcess(env, ctx, s);
                            });
        }
    }

    // ----- fault injection ---------------------------------------------
    // Everything here is conditional on a non-empty plan: a healthy
    // run must not even construct differently (LWP ids and node-0
    // timing feed the golden traces).
    std::deque<faults::FaultNotice> fault_notices;
    suprenum::EventFlag fault_flag(machine.nodeByIndex(0));
    std::unique_ptr<faults::FaultInjector> injector;
    if (!cfg.faultPlanText.empty()) {
        faults::PlanParseResult parsed =
            faults::parseFaultPlan(cfg.faultPlanText);
        if (!parsed.ok())
            sim::fatal("%s", parsed.error.c_str());
        faults::FaultPlan plan = std::move(parsed.plan);
        for (faults::FaultSpec &f : plan.faults) {
            if (f.servant == faults::FaultSpec::noTarget)
                continue;
            if (f.servant >= cfg.numServants) {
                sim::fatal("fault plan: servant %u out of range "
                           "(%u servants)",
                           f.servant, cfg.numServants);
            }
            f.node = f.servant + 1;
            if (f.kind == faults::FaultKind::KillLwp)
                f.lwp = ctx.servantPids[f.servant].lwp;
        }
        // Dedicated RNG stream: the injector's coin flips never
        // disturb the application's (golden-locked) random streams.
        injector = std::make_unique<faults::FaultInjector>(
            machine, std::move(plan),
            sim::deriveSeed(cfg.seed, 0xfau));
        injector->setNoticeSink(
            [&ctx, &fault_notices, &fault_flag,
             &master_mailbox](const faults::FaultNotice &n) {
                if (n.kind == faults::FaultKind::CrashNode) {
                    // The node memory is gone: deposited-but-unread
                    // mailbox messages are lost with it.
                    if (n.node == 0)
                        master_mailbox.clearQueue();
                    else if (n.node - 1 < ctx.servantMailboxes.size())
                        ctx.servantMailboxes[n.node - 1]->clearQueue();
                }
                fault_notices.push_back(n);
                fault_flag.signalAll();
            });
        injector->arm();
        if (injector->active()) {
            ctx.faultNotices = &fault_notices;
            ctx.faultFlag = &fault_flag;
            machine.spawnOn(machine.nodeIdByIndex(0), "fault-daemon",
                            [&ctx](suprenum::ProcessEnv env) {
                                return faultDaemonProcess(env, ctx);
                            });
        }
    }

    const suprenum::Pid master_pid = machine.spawnOn(
        machine.nodeIdByIndex(0), "master",
        [&ctx, &cfg, static_mode](suprenum::ProcessEnv env) {
            if (static_mode)
                return staticMasterProcess(env, ctx);
            if (cfg.faultTolerant)
                return faultTolerantMasterProcess(env, ctx);
            return masterProcess(env, ctx);
        });
    machine.setInitialProcess(master_pid);

    // ----- run --------------------------------------------------------------
    result.completed = machine.runToCompletion(cfg.tickLimit);
    result.applicationTime = machine.applicationExitTime();
    result.simEventsExecuted = simul.eventsExecuted();

    // ----- collect & evaluate -------------------------------------------------
    result.dictionary = rayTracerDictionary();
    result.masterStream = streamOf(0, TokenClass::Master);
    if (injector && injector->active()) {
        // Overrides "AGENT 5" on node 0: the daemon borrows the last
        // stream slot of the master node (events.hh, streamOf).
        result.dictionary.nameStream(streamOf(0, TokenClass::Fault),
                                     "FAULTS");
    }
    for (unsigned s = 0; s < cfg.numServants; ++s)
        result.servantStreams.push_back(
            streamOf(s + 1, TokenClass::Servant));

    if (monitored) {
        result.events = zm4->harvest([](const zm4::RawRecord &rec) {
            return logicalStreamOf(rec);
        });
        result.eventsRecorded = zm4->eventsRecorded();
        result.eventsLost = zm4->eventsLost();
        result.protocolErrors = zm4->protocolErrors();
    } else if (logfile_mode) {
        // Collect the per-node log files and merge them the only way
        // a user could: by the (unsynchronized) local time stamps.
        for (unsigned n = 0; n < num_nodes; ++n) {
            for (const auto &rec :
                 machine.nodeByIndex(n).softwareLog()) {
                trace::TraceEvent ev;
                ev.timestamp = rec.localTimestamp;
                ev.token = rec.token;
                ev.param = rec.param;
                const TokenClass cls = tokenClassOf(rec.token);
                const unsigned agent_index =
                    cls == TokenClass::Agent ? rec.param >> 24 : 0;
                ev.stream = streamOf(n, cls, agent_index);
                result.events.push_back(ev);
                ++result.eventsRecorded;
            }
        }
        std::stable_sort(result.events.begin(), result.events.end(),
                         [](const trace::TraceEvent &a,
                            const trace::TraceEvent &b) {
                             return a.timestamp < b.timestamp;
                         });
    }

    // ----- metrics -------------------------------------------------------------
    const auto &truth = ctx.truth;
    result.phaseBegin = truth.firstWorkBegin;
    result.phaseEnd = truth.lastResultReceived;
    if (result.phaseEnd > result.phaseBegin) {
        const double window =
            static_cast<double>(result.phaseEnd - result.phaseBegin);
        double sum = 0.0;
        for (unsigned s = 0; s < cfg.numServants; ++s) {
            sum += static_cast<double>(truth.servantWorkTime[s]) /
                   window;
        }
        result.servantUtilizationActual =
            sum / static_cast<double>(cfg.numServants);
    }
    if (!result.events.empty() && !result.servantStreams.empty() &&
        result.phaseEnd > result.phaseBegin)
        result.servantUtilizationMeasured =
            measuredServantUtilization(result);

    result.jobsSent = truth.jobsSent;
    result.resultsReceived = truth.resultsReceived;
    result.writeOps = truth.writeOps;
    result.pixelQueueHighWater = truth.pixelQueueHighWater;
    result.masterCycleMs = truth.masterCycleMs;
    result.rayCostMs = truth.rayCostMs;
    result.missingPixels = image->missingPixels();
    result.duplicatedPixels = image->duplicatedPixels();
    if (master_pool)
        result.masterAgentPoolSize = master_pool->poolSize();
    for (const auto &pool : servant_pools)
        result.servantAgentPoolSizes.push_back(pool->poolSize());

    for (unsigned n = 0; n < num_nodes; ++n) {
        result.messagesDroppedTerminated +=
            machine.nodeByIndex(n).accounting().messagesDroppedTerminated;
    }
    if (injector)
        result.faults = injector->stats();
    result.recovery = truth.recovery;

    if (cfg.instrumentKernel) {
        for (unsigned n = 0; n < num_nodes; ++n) {
            result.kernelEvents +=
                machine.nodeByIndex(n).kernelEventCount();
        }
        // Mailbox scheduling delay on the servant nodes: delivery of
        // a message to the mailbox process until its next dispatch.
        std::map<unsigned, sim::Tick> pending; // node -> delivered at
        for (const auto &e : kernel_trace) {
            if (e.node == 0)
                continue; // master node: different mailbox lwp id
            const std::uint32_t mailbox_lwp =
                ctx.servantMailboxes[e.node - 1]->pid().lwp;
            if (e.token == suprenum::evKernDeliver &&
                e.param == mailbox_lwp) {
                if (!pending.count(e.node))
                    pending[e.node] = e.at;
            } else if (e.token == suprenum::evKernDispatch &&
                       e.param == mailbox_lwp) {
                auto it = pending.find(e.node);
                if (it != pending.end()) {
                    result.mailboxSchedulingDelayMs.push(
                        sim::toMilliseconds(e.at - it->second));
                    pending.erase(it);
                }
            }
        }
    }

    result.image = std::move(image);
    return result;
}

} // namespace par
} // namespace supmon
