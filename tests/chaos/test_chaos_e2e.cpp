/**
 * @file
 * The chaos acceptance suite: every golden scenario's trace pushed
 * through RobustProducer -> ChaosLink -> tracemond's LiveService
 * under a seeded fault plan, with a daemon restart in the middle —
 * the recovered archive must be byte-identical to the lossless batch
 * trace and clean under TraceValidator::standard(). Plus the
 * "kill -9 the daemon" test: a real SIGKILL mid-stream, salvage on
 * restart, nothing lost. And the enospc plan: the archive freezes at
 * the injected disk-full floor while the producer degrades to its
 * spool instead of blocking or crashing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "faults/chaos.hh"
#include "faults/plan.hh"
#include "live/robust.hh"
#include "live/service.hh"
#include "live/wire.hh"
#include "sim/random.hh"
#include "trace/io.hh"
#include "validate/rules.hh"
#include "validate/scenarios.hh"
#include "temp_dir.hh"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CHAOS_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CHAOS_TSAN 1
#endif

using namespace supmon;

namespace
{

faults::FaultPlan
mustParse(const std::string &text)
{
    const auto res = faults::parseFaultPlan(text);
    EXPECT_TRUE(res.ok()) << res.error;
    return res.plan;
}

std::vector<unsigned char>
fileBytes(const std::string &path)
{
    std::vector<unsigned char> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<unsigned char>(c));
    std::fclose(f);
    return bytes;
}

void
expectCleanAndByteIdentical(
    const std::string &archivePath,
    const std::vector<trace::TraceEvent> &events, std::uint64_t seed,
    const validate::TraceValidator &validator =
        validate::TraceValidator::standard())
{
    const std::string ref = archivePath + ".ref";
    ASSERT_TRUE(trace::saveTrace(ref, events, seed));
    EXPECT_EQ(fileBytes(archivePath), fileBytes(ref))
        << archivePath << " diverged from the lossless batch trace";

    const auto loaded = trace::loadTrace(archivePath);
    ASSERT_TRUE(loaded.has_value()) << archivePath;
    const auto violations = validator.validate(*loaded);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

} // namespace

TEST(ChaosEndToEnd, GoldenScenariosSurviveTheFaultPlanByteIdentically)
{
    const auto &scenarios = validate::goldenScenarios();
    ASSERT_GE(scenarios.size(), 4u);

    for (std::size_t idx = 0; idx < scenarios.size(); ++idx) {
        const auto &scenario = scenarios[idx];
        const auto result = validate::runScenario(scenario);
        ASSERT_TRUE(result.completed) << scenario.name;
        ASSERT_FALSE(result.events.empty()) << scenario.name;

        const std::string archiveDir =
            test::tempPath("chaos-" + scenario.name);
        ::mkdir(archiveDir.c_str(), 0700);
        const std::string tenant = "golden";
        ::unlink((archiveDir + "/" + tenant + ".smtr").c_str());

        live::ServiceConfig scfg;
        scfg.socketPath =
            test::tempPath("chaos-" + scenario.name + ".sock");
        ::unlink(scfg.socketPath.c_str());
        scfg.archiveDir = archiveDir;
        scfg.tcpPort = 0;
        scfg.ackIntervalEvents = 64;
        scfg.archiveWriter.commitInterval = 128;
        auto service = std::make_unique<live::LiveService>(scfg);
        ASSERT_TRUE(service->ok()) << service->error();
        std::thread loop([&service] { service->run(); });
        std::shared_ptr<std::atomic<int>> port =
            std::make_shared<std::atomic<int>>(
                service->tcpListenPort());
        ASSERT_GT(port->load(), 0);

        // Every scenario gets its own deterministic chaos stream.
        faults::ChaosLink link(
            mustParse("drop p=0.0008\n"
                      "short-write p=0.0004\n"
                      "delay p=0.001 by=100us\n"),
            sim::deriveSeed(0xc4a05, idx));

        live::RobustProducerConfig pcfg;
        pcfg.tenant = tenant;
        pcfg.seed = 4242 + idx;
        pcfg.batchEvents = 64;
        pcfg.baseBackoffMs = 1;
        pcfg.ackTimeoutMs = 2000;
        pcfg.closeRounds = 500;
        pcfg.spoolPath =
            archiveDir + "/producer-spool.smtr";
        ::unlink(pcfg.spoolPath.c_str());
        pcfg.connect = link.wrap([port] {
            const int p = port->load();
            return p > 0
                       ? live::connectTcp(
                             "127.0.0.1",
                             static_cast<std::uint16_t>(p))
                       : -1;
        });
        live::RobustProducer producer(pcfg);

        const std::size_t half = result.events.size() / 2;
        for (std::size_t i = 0; i < result.events.size(); ++i) {
            ASSERT_TRUE(producer.publish(result.events[i]))
                << scenario.name << " event " << i;
            if (i == half) {
                // Restart the daemon mid-stream: the tenant archive
                // is resumed, not collision-suffixed, and the
                // producer's replay fills whatever the old daemon
                // had not committed.
                service->requestStop();
                loop.join();
                service =
                    std::make_unique<live::LiveService>(scfg);
                ASSERT_TRUE(service->ok()) << service->error();
                loop = std::thread([&service] { service->run(); });
                port->store(service->tcpListenPort());
            }
        }
        ASSERT_TRUE(producer.close()) << scenario.name;
        link.stopAll();

        service->requestStop();
        loop.join();
        EXPECT_TRUE(service->ok()) << service->error();
        service.reset();

        // The faulty golden scenario breaks the healthy-run
        // invariants on purpose (resent jobs, killed servants): it is
        // audited by the fault-aware rule set, exactly as
        // validate::validateRun does for the batch pipeline.
        const bool faultRun =
            scenario.config.faultTolerant ||
            !scenario.config.faultPlanText.empty();
        expectCleanAndByteIdentical(
            archiveDir + "/" + tenant + ".smtr", result.events,
            pcfg.seed,
            faultRun ? validate::TraceValidator::forFaultRun(
                           result.faults,
                           scenario.config.totalPixels())
                     : validate::TraceValidator::standard());
    }
}

TEST(ChaosEndToEnd, SigkilledDaemonRestartsWithNothingLost)
{
#ifdef CHAOS_TSAN
    GTEST_SKIP() << "fork() after spawning threads is unsupported "
                    "under TSan";
#endif
    const std::string archiveDir = test::tempPath("chaos-kill9-archive");
    ::mkdir(archiveDir.c_str(), 0700);
    ::unlink((archiveDir + "/kill9.smtr").c_str());
    const std::string socketPath = test::tempPath("chaos-kill9.sock");
    ::unlink(socketPath.c_str());

    live::ServiceConfig scfg;
    scfg.socketPath = socketPath;
    scfg.archiveDir = archiveDir;
    scfg.tcpPort = 0;
    scfg.ackIntervalEvents = 8;
    scfg.archiveWriter.commitInterval = 16;

    // The victim daemon runs in a child process so a real SIGKILL
    // can hit it mid-stream; it reports its ephemeral port through a
    // pipe.
    int portPipe[2];
    ASSERT_EQ(::pipe(portPipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(portPipe[0]);
        live::LiveService service(scfg);
        int port = service.ok() ? service.tcpListenPort() : -1;
        (void)!::write(portPipe[1], &port, sizeof(port));
        ::close(portPipe[1]);
        if (port > 0)
            service.run(); // until SIGKILL
        ::_exit(0);
    }
    ::close(portPipe[1]);
    int childPort = -1;
    ASSERT_EQ(::read(portPipe[0], &childPort, sizeof(childPort)),
              static_cast<ssize_t>(sizeof(childPort)));
    ::close(portPipe[0]);
    ASSERT_GT(childPort, 0);

    std::shared_ptr<std::atomic<int>> port =
        std::make_shared<std::atomic<int>>(childPort);
    live::RobustProducerConfig pcfg;
    pcfg.tenant = "kill9";
    pcfg.seed = 77;
    pcfg.batchEvents = 8;
    pcfg.baseBackoffMs = 1;
    pcfg.ackTimeoutMs = 2000;
    pcfg.closeRounds = 500;
    pcfg.spoolPath = archiveDir + "/kill9-spool.smtr";
    ::unlink(pcfg.spoolPath.c_str());
    pcfg.connect = [port] {
        const int p = port->load();
        return p > 0 ? live::connectTcp(
                           "127.0.0.1",
                           static_cast<std::uint16_t>(p))
                     : -1;
    };
    live::RobustProducer producer(pcfg);

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        trace::TraceEvent ev;
        ev.timestamp = 100 + i * 5;
        ev.token = static_cast<std::uint16_t>(0x0120 + (i & 7));
        ev.param = static_cast<std::uint32_t>(i);
        ev.stream = static_cast<unsigned>(i % 4);
        events.push_back(ev);
        ASSERT_TRUE(producer.publish(ev));
        if (i == 1000) {
            // Wait until the daemon has durably acked something, so
            // the kill really lands mid-archive.
            for (int spins = 0;
                 spins < 2000 && producer.metrics().acked == 0;
                 ++spins) {
                producer.heartbeat();
                ::usleep(1000);
            }
            EXPECT_GT(producer.metrics().acked, 0u);
            ::kill(child, SIGKILL);
            int status = 0;
            ::waitpid(child, &status, 0);
            port->store(0); // nobody is listening now
        }
    }

    // kill -9 leaves a stale socket file behind; the restarted
    // daemon (in-process this time) takes over the same archive dir
    // and salvages the torn archive on startup.
    ::unlink(socketPath.c_str());
    live::LiveService service(scfg);
    ASSERT_TRUE(service.ok()) << service.error();
    std::thread loop([&service] { service.run(); });
    port->store(service.tcpListenPort());

    ASSERT_TRUE(producer.close());
    service.requestStop();
    loop.join();
    EXPECT_TRUE(service.ok()) << service.error();

    expectCleanAndByteIdentical(archiveDir + "/kill9.smtr", events,
                                77);
}

TEST(ChaosEndToEnd, EnospcFreezesTheArchiveWhileTheProducerSpools)
{
    const std::string archiveDir = test::tempPath("chaos-enospc-archive");
    ::mkdir(archiveDir.c_str(), 0700);
    ::unlink((archiveDir + "/enospc.smtr").c_str());

    const auto plan = mustParse("enospc after=100\n");
    live::ServiceConfig scfg;
    scfg.socketPath = test::tempPath("chaos-enospc.sock");
    ::unlink(scfg.socketPath.c_str());
    scfg.archiveDir = archiveDir;
    scfg.tcpPort = 0;
    scfg.ackIntervalEvents = 8;
    scfg.archiveWriter.commitInterval = 16;
    scfg.archiveWriter.failAfterRecords = faults::enospcAfter(plan);
    ASSERT_EQ(scfg.archiveWriter.failAfterRecords, 100u);
    live::LiveService service(scfg);
    ASSERT_TRUE(service.ok()) << service.error();
    std::thread loop([&service] { service.run(); });
    const int port = service.tcpListenPort();
    ASSERT_GT(port, 0);

    live::RobustProducerConfig pcfg;
    pcfg.tenant = "enospc";
    pcfg.seed = 31;
    pcfg.batchEvents = 16;
    pcfg.replayCapacity = 64;
    pcfg.baseBackoffMs = 1;
    pcfg.ackTimeoutMs = 50;
    pcfg.closeRounds = 5;
    pcfg.spoolPath = archiveDir + "/enospc-spool.smtr";
    ::unlink(pcfg.spoolPath.c_str());
    pcfg.connect = [port] {
        return live::connectTcp("127.0.0.1",
                                static_cast<std::uint16_t>(port));
    };
    live::RobustProducer producer(pcfg);

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 400; ++i) {
        trace::TraceEvent ev;
        ev.timestamp = 10 + i;
        ev.token = 0x0130;
        ev.param = static_cast<std::uint32_t>(i);
        ev.stream = 0;
        events.push_back(ev);
        ASSERT_TRUE(producer.publish(ev)) << "event " << i;
    }
    // The full disk froze the committed watermark, so close() cannot
    // get everything acked — and must say so instead of pretending.
    EXPECT_FALSE(producer.close());
    const live::RobustMetrics m = producer.metrics();
    EXPECT_LE(m.acked, 100u);
    EXPECT_EQ(m.spilled, 0u); // nothing lost: the spool has the rest
    EXPECT_GT(m.spooled, 0u);

    service.requestStop();
    loop.join();

    // The archive recovers to a clean prefix of the lossless trace.
    const auto report =
        trace::recoverTruncated(archiveDir + "/enospc.smtr");
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_LE(report.records, 100u);
    const auto archived =
        trace::loadTrace(archiveDir + "/enospc.smtr");
    ASSERT_TRUE(archived.has_value());
    for (std::size_t i = 0; i < archived->size(); ++i)
        EXPECT_EQ((*archived)[i], events[i]) << "record " << i;

    // And the spool is itself a valid trace covering the tail the
    // archive never took.
    const auto spooled = trace::loadTrace(pcfg.spoolPath);
    ASSERT_TRUE(spooled.has_value());
    EXPECT_GT(spooled->size(), 0u);
    ASSERT_FALSE(spooled->empty());
    const std::uint32_t firstSpooled = (*spooled)[0].param;
    for (std::size_t i = 0; i < spooled->size(); ++i)
        EXPECT_EQ((*spooled)[i], events[firstSpooled + i])
            << "spool record " << i;
}
