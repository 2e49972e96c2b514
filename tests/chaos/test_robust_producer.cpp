/**
 * @file
 * RobustProducer tests against a real daemon over TCP: the lossless
 * happy path, severed-connection resume with a byte-identical
 * archive, degradation to the local spool while the daemon is down
 * (with replay on reconnect), and exact class-5 accounting when
 * events can be kept nowhere.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "live/robust.hh"
#include "live/service.hh"
#include "live/tokens.hh"
#include "live/wire.hh"
#include "trace/io.hh"
#include "validate/rules.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

trace::TraceEvent
eventNumber(std::uint64_t n, unsigned streams = 1)
{
    trace::TraceEvent ev;
    ev.timestamp = 1000 + n * 10;
    ev.token = static_cast<std::uint16_t>(0x0110 + (n & 0x0f));
    ev.param = static_cast<std::uint32_t>(n);
    ev.stream = static_cast<unsigned>(n % streams);
    return ev;
}

struct Daemon
{
    live::ServiceConfig cfg;
    std::unique_ptr<live::LiveService> service;
    std::thread loop;
    std::string archiveDir;

    explicit Daemon(const std::string &name,
                    std::uint64_t ackInterval = 8)
    {
        archiveDir = test::tempPath("robust-" + name + "-archive");
        ::mkdir(archiveDir.c_str(), 0700);
        cfg.socketPath = test::tempPath("robust-" + name + ".sock");
        ::unlink(cfg.socketPath.c_str());
        cfg.archiveDir = archiveDir;
        cfg.tcpPort = 0;
        cfg.ackIntervalEvents = ackInterval;
        start();
    }

    void
    start()
    {
        service = std::make_unique<live::LiveService>(cfg);
        ASSERT_TRUE(service->ok()) << service->error();
        loop = std::thread([this] { service->run(); });
    }

    void
    stop()
    {
        if (!service)
            return;
        service->requestStop();
        loop.join();
        service.reset();
    }

    int
    port() const
    {
        return service ? service->tcpListenPort() : -1;
    }

    ~Daemon()
    {
        stop();
    }
};

/** Archive must match @p events byte-for-byte (no markers, same
 *  order) when saved with @p seed. */
void
expectByteIdentical(const std::string &archivePath,
                    const std::vector<trace::TraceEvent> &events,
                    std::uint64_t seed)
{
    const std::string ref = test::tempPath("robust-ref.smtr");
    ASSERT_TRUE(trace::saveTrace(ref, events, seed));
    std::vector<std::vector<unsigned char>> bytes(2);
    const std::string *paths[2] = {&archivePath, &ref};
    for (int i = 0; i < 2; ++i) {
        std::FILE *f = std::fopen(paths[i]->c_str(), "rb");
        ASSERT_NE(f, nullptr) << *paths[i];
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes[i].push_back(static_cast<unsigned char>(c));
        std::fclose(f);
    }
    EXPECT_EQ(bytes[0], bytes[1]) << archivePath;
}

live::RobustProducerConfig
baseConfig(const std::string &tenant, std::uint64_t seed)
{
    live::RobustProducerConfig cfg;
    cfg.tenant = tenant;
    cfg.seed = seed;
    cfg.batchEvents = 16;
    cfg.baseBackoffMs = 1;
    cfg.ackTimeoutMs = 500;
    cfg.closeRounds = 200;
    return cfg;
}

} // namespace

TEST(RobustProducer, LosslessHappyPathArchivesByteIdentically)
{
    Daemon daemon("happy");
    const int port = daemon.port();
    ASSERT_GT(port, 0);

    auto cfg = baseConfig("happy", 21);
    cfg.connect = [port] {
        return live::connectTcp("127.0.0.1",
                                static_cast<std::uint16_t>(port));
    };
    live::RobustProducer producer(cfg);

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 500; ++i) {
        events.push_back(eventNumber(i, 3));
        ASSERT_TRUE(producer.publish(events.back()));
    }
    ASSERT_TRUE(producer.close());

    const live::RobustMetrics m = producer.metrics();
    EXPECT_EQ(m.published, 500u);
    EXPECT_EQ(m.acked, 500u);
    EXPECT_EQ(m.spilled, 0u);
    EXPECT_EQ(m.spooled, 0u);
    EXPECT_EQ(m.reconnects, 0u);

    daemon.stop();
    expectByteIdentical(daemon.archiveDir + "/happy.smtr", events,
                        21);
}

TEST(RobustProducer, SurvivesASeveredConnectionWithoutLossOrDupes)
{
    Daemon daemon("sever");
    const int port = daemon.port();
    ASSERT_GT(port, 0);

    auto cfg = baseConfig("sever", 22);
    cfg.connect = [port] {
        return live::connectTcp("127.0.0.1",
                                static_cast<std::uint16_t>(port));
    };
    live::RobustProducer producer(cfg);

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 600; ++i) {
        events.push_back(eventNumber(i, 2));
        ASSERT_TRUE(producer.publish(events.back()));
        // The network "dies" three times mid-stream; replay after
        // the resume handshake must fill every gap exactly once.
        if (i == 100 || i == 300 || i == 450)
            producer.breakConnection();
    }
    ASSERT_TRUE(producer.close());

    const live::RobustMetrics m = producer.metrics();
    EXPECT_EQ(m.published, 600u);
    EXPECT_EQ(m.acked, 600u);
    EXPECT_EQ(m.spilled, 0u);
    EXPECT_GE(m.reconnects, 1u);

    daemon.stop();
    expectByteIdentical(daemon.archiveDir + "/sever.smtr", events,
                        22);
}

TEST(RobustProducer, DegradesToTheSpoolAndReplaysOnReconnect)
{
    // The daemon comes up only after the producer has already
    // buffered and spooled; the spool is then the replay source.
    const std::string spool = test::tempPath("robust-spool.smtr");
    ::unlink(spool.c_str());

    std::shared_ptr<std::atomic<int>> port =
        std::make_shared<std::atomic<int>>(0);
    auto cfg = baseConfig("spool", 23);
    cfg.replayCapacity = 32; // tiny: most events go to the spool
    cfg.spoolPath = spool;
    cfg.maxAttempts = 2;
    cfg.connect = [port] {
        const int p = port->load();
        return p > 0 ? live::connectTcp(
                           "127.0.0.1",
                           static_cast<std::uint16_t>(p))
                     : -1;
    };
    live::RobustProducer producer(cfg);

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 300; ++i) {
        events.push_back(eventNumber(i, 2));
        ASSERT_TRUE(producer.publish(events.back()))
            << "event " << i;
        producer.heartbeat();
    }
    {
        const live::RobustMetrics m = producer.metrics();
        EXPECT_GT(m.spooled, 0u);
        EXPECT_EQ(m.spilled, 0u);
        EXPECT_FALSE(m.connected);
        EXPECT_TRUE(m.degraded);
    }

    Daemon daemon("spool");
    ASSERT_GT(daemon.port(), 0);
    port->store(daemon.port());

    ASSERT_TRUE(producer.close());
    const live::RobustMetrics m = producer.metrics();
    EXPECT_EQ(m.published, 300u);
    EXPECT_EQ(m.acked, 300u);
    EXPECT_EQ(m.spilled, 0u);

    daemon.stop();
    expectByteIdentical(daemon.archiveDir + "/spool.smtr", events,
                        23);
}

TEST(RobustProducer, AccountsSpilledEventsExactlyWhenKeptNowhere)
{
    // No spool and a tiny replay buffer: while the daemon is down,
    // overflow is lost for good — and must be declared at close() as
    // class-5 markers that balance under the standard validator.
    std::shared_ptr<std::atomic<int>> port =
        std::make_shared<std::atomic<int>>(0);
    auto cfg = baseConfig("spill", 24);
    cfg.replayCapacity = 8;
    cfg.maxAttempts = 2;
    cfg.connect = [port] {
        const int p = port->load();
        return p > 0 ? live::connectTcp(
                           "127.0.0.1",
                           static_cast<std::uint16_t>(p))
                     : -1;
    };
    live::RobustProducer producer(cfg);

    for (std::uint64_t i = 0; i < 50; ++i)
        producer.publish(eventNumber(i, 1));
    {
        const live::RobustMetrics m = producer.metrics();
        EXPECT_EQ(m.published, 50u);
        EXPECT_EQ(m.spilled, 42u); // 8 buffered, the rest lost
    }

    Daemon daemon("spill");
    ASSERT_GT(daemon.port(), 0);
    port->store(daemon.port());
    EXPECT_TRUE(producer.close());

    daemon.stop();
    const auto loaded =
        trace::loadTrace(daemon.archiveDir + "/spill.smtr");
    ASSERT_TRUE(loaded.has_value());

    // 8 data events + the accounting tail.
    std::uint64_t data = 0, produced = 0, spilled = 0, markers = 0;
    for (const trace::TraceEvent &ev : *loaded) {
        if (!live::isLiveAccountingToken(ev.token)) {
            ++data;
            continue;
        }
        ++markers;
        if (ev.token == live::evLiveProduced)
            produced = ev.param;
        else if (ev.token == live::evLiveSpilled)
            spilled = ev.param;
    }
    EXPECT_EQ(data, 8u);
    EXPECT_EQ(produced, 50u);
    EXPECT_EQ(spilled, 42u);
    EXPECT_GE(markers, 2u);

    // The books balance under the shipping rule set.
    const auto violations =
        validate::TraceValidator::standard().validate(*loaded);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(RobustProducer, CloseFailsHonestlyWhenTheDaemonNeverComesBack)
{
    auto cfg = baseConfig("gone", 25);
    cfg.closeRounds = 3;
    cfg.ackTimeoutMs = 20;
    cfg.maxAttempts = 2;
    cfg.connect = [] { return -1; };
    live::RobustProducer producer(cfg);

    for (std::uint64_t i = 0; i < 10; ++i)
        producer.publish(eventNumber(i, 1));
    EXPECT_FALSE(producer.close());
    const live::RobustMetrics m = producer.metrics();
    EXPECT_EQ(m.acked, 0u);
    EXPECT_GT(m.connectFailures, 0u);
    EXPECT_TRUE(m.degraded);
}
