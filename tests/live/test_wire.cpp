/**
 * @file
 * Wire protocol tests: frame encode/decode round trips (whole-buffer
 * and byte-by-byte fragmentation), malformed-input poisoning, the
 * tenant glob matcher, and the LiveService end to end over real
 * transports — a producer and a subscriber on the Unix socket, a
 * producer on a FIFO, archives, stats, and protocol-error handling.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "live/service.hh"
#include "live/wire.hh"
#include "trace/io.hh"
#include "temp_dir.hh"

using namespace supmon;

namespace
{

trace::TraceEvent
eventNumber(std::uint64_t n)
{
    trace::TraceEvent ev;
    ev.timestamp = n * 100;
    ev.token = static_cast<std::uint16_t>(0x0100 + (n & 0xff));
    ev.param = static_cast<std::uint32_t>(n);
    ev.stream = static_cast<unsigned>(n % 3);
    return ev;
}

std::vector<unsigned char>
sampleStream(std::vector<trace::TraceEvent> &events)
{
    for (std::uint64_t i = 0; i < 10; ++i)
        events.push_back(eventNumber(i));
    std::vector<unsigned char> bytes;
    live::encodeHello(bytes, "alpha", 42, 0);
    live::encodeEvents(bytes, events.data(), 4);
    live::encodeEvents(bytes, events.data() + 4, events.size() - 4);
    live::encodeSubscribe(bytes, "alpha*");
    live::encodeJson(bytes, "{\"x\": 1}\n");
    live::encodeStats(bytes);
    live::encodeHelloResume(bytes, "beta", 43, 1, 17);
    live::encodeSeqEvents(bytes, 18, events.data(), 3);
    live::encodeAck(bytes, 20);
    live::encodePing(bytes);
    live::encodeBye(bytes);
    return bytes;
}

constexpr std::size_t sampleFrameCount = 11;

void
expectSampleFrames(live::FrameDecoder &decoder,
                   const std::vector<trace::TraceEvent> &events)
{
    live::Frame frame;
    ASSERT_TRUE(decoder.next(frame)) << decoder.error();
    EXPECT_EQ(frame.type, live::FrameType::Hello);
    EXPECT_EQ(frame.tenant, "alpha");
    EXPECT_EQ(frame.seed, 42u);
    EXPECT_EQ(frame.policy, 0);

    std::vector<trace::TraceEvent> received;
    ASSERT_TRUE(decoder.next(frame));
    ASSERT_EQ(frame.type, live::FrameType::Events);
    received.insert(received.end(), frame.events.begin(),
                    frame.events.end());
    ASSERT_TRUE(decoder.next(frame));
    ASSERT_EQ(frame.type, live::FrameType::Events);
    received.insert(received.end(), frame.events.begin(),
                    frame.events.end());
    ASSERT_EQ(received.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(received[i], events[i]) << "event " << i;

    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Subscribe);
    EXPECT_EQ(frame.pattern, "alpha*");
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Json);
    EXPECT_EQ(frame.json, "{\"x\": 1}\n");
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Stats);

    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::HelloResume);
    EXPECT_EQ(frame.tenant, "beta");
    EXPECT_EQ(frame.seed, 43u);
    EXPECT_EQ(frame.policy, 1);
    EXPECT_EQ(frame.seq, 17u);
    ASSERT_TRUE(decoder.next(frame));
    ASSERT_EQ(frame.type, live::FrameType::SeqEvents);
    EXPECT_EQ(frame.seq, 18u);
    ASSERT_EQ(frame.events.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(frame.events[i], events[i]) << "seq event " << i;
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Ack);
    EXPECT_EQ(frame.seq, 20u);
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Ping);

    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.type, live::FrameType::Bye);

    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.error().empty()) << decoder.error();
}

/** One stats round trip against a running daemon. */
std::string
fetchStats(const std::string &socketPath)
{
    const int fd = live::connectUnix(socketPath);
    if (fd < 0)
        return std::string();
    std::vector<unsigned char> request;
    live::encodeStats(request);
    std::string json;
    if (live::writeFully(fd, request.data(), request.size())) {
        live::FrameReader reader(fd);
        live::Frame frame;
        if (reader.next(frame) &&
            frame.type == live::FrameType::Json)
            json = frame.json;
    }
    ::close(fd);
    return json;
}

/** Poll the daemon's stats until @p needle appears (bounded). */
bool
statsEventually(const std::string &socketPath,
                const std::string &needle)
{
    for (int tries = 0; tries < 500; ++tries) {
        if (fetchStats(socketPath).find(needle) !=
            std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

} // namespace

TEST(WireProtocol, FramesRoundTripThroughTheDecoder)
{
    std::vector<trace::TraceEvent> events;
    const std::vector<unsigned char> bytes = sampleStream(events);
    live::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    expectSampleFrames(decoder, events);
}

TEST(WireProtocol, ByteByByteFragmentationDecodesIdentically)
{
    std::vector<trace::TraceEvent> events;
    const std::vector<unsigned char> bytes = sampleStream(events);
    live::FrameDecoder decoder;
    live::Frame frame;
    std::vector<live::Frame> frames;
    for (const unsigned char byte : bytes) {
        decoder.feed(&byte, 1);
        while (decoder.next(frame))
            frames.push_back(frame);
        ASSERT_TRUE(decoder.error().empty()) << decoder.error();
    }
    ASSERT_EQ(frames.size(), sampleFrameCount);

    // Re-decode via a fresh decoder for the field checks.
    live::FrameDecoder whole;
    whole.feed(bytes.data(), bytes.size());
    expectSampleFrames(whole, events);
}

TEST(WireProtocol, MalformedInputPoisonsTheDecoder)
{
    // Unknown frame type.
    {
        live::FrameDecoder decoder;
        const unsigned char junk[] = {'Z', 0, 0, 0};
        decoder.feed(junk, sizeof(junk));
        live::Frame frame;
        EXPECT_FALSE(decoder.next(frame));
        EXPECT_FALSE(decoder.error().empty());

        // Poisoned for good: valid frames no longer decode.
        std::vector<unsigned char> good;
        live::encodeBye(good);
        decoder.feed(good.data(), good.size());
        EXPECT_FALSE(decoder.next(frame));
        EXPECT_FALSE(decoder.error().empty());
    }
    // Oversized length field must poison, not allocate.
    {
        live::FrameDecoder decoder;
        const std::uint32_t huge =
            live::FrameDecoder::maxFieldBytes + 1;
        unsigned char hello[5];
        hello[0] = 'H';
        std::memcpy(hello + 1, &huge, 4);
        decoder.feed(hello, sizeof(hello));
        live::Frame frame;
        EXPECT_FALSE(decoder.next(frame));
        EXPECT_FALSE(decoder.error().empty());
    }
    // An incomplete frame is not an error — just not ready yet.
    {
        live::FrameDecoder decoder;
        std::vector<unsigned char> good;
        live::encodeHello(good, "tenant", 7, 1);
        decoder.feed(good.data(), good.size() - 1);
        live::Frame frame;
        EXPECT_FALSE(decoder.next(frame));
        EXPECT_TRUE(decoder.error().empty()) << decoder.error();
        decoder.feed(good.data() + good.size() - 1, 1);
        ASSERT_TRUE(decoder.next(frame));
        EXPECT_EQ(frame.tenant, "tenant");
        EXPECT_EQ(frame.policy, 1);
    }
}

TEST(WireProtocol, TenantGlobMatchesLiteralsStarsAndQuestionMarks)
{
    EXPECT_TRUE(live::tenantGlobMatch("*", "anything"));
    EXPECT_TRUE(live::tenantGlobMatch("*", ""));
    EXPECT_TRUE(live::tenantGlobMatch("alpha", "alpha"));
    EXPECT_FALSE(live::tenantGlobMatch("alpha", "alphab"));
    EXPECT_TRUE(live::tenantGlobMatch("alpha*", "alpha-7"));
    EXPECT_FALSE(live::tenantGlobMatch("alpha*", "beta"));
    EXPECT_TRUE(live::tenantGlobMatch("a*c", "abc"));
    EXPECT_TRUE(live::tenantGlobMatch("a*c", "ac"));
    EXPECT_TRUE(live::tenantGlobMatch("a*c", "a-x-c"));
    EXPECT_FALSE(live::tenantGlobMatch("a*c", "a-x-d"));
    EXPECT_TRUE(live::tenantGlobMatch("a?c", "abc"));
    EXPECT_FALSE(live::tenantGlobMatch("a?c", "ac"));
    EXPECT_TRUE(live::tenantGlobMatch("*-?", "tenant-7"));
    EXPECT_FALSE(live::tenantGlobMatch("", "a"));
    EXPECT_TRUE(live::tenantGlobMatch("", ""));
}

TEST(LiveServiceEndToEnd, ProducerSubscriberArchiveAndStats)
{
    const std::string socketPath = test::tempPath("live-e2e.sock");
    const std::string archiveDir = test::tempPath("live-e2e-archive");
    ::mkdir(archiveDir.c_str(), 0700);
    ::unlink((archiveDir + "/alpha.smtr").c_str());

    live::ServiceConfig cfg;
    cfg.socketPath = socketPath;
    cfg.archiveDir = archiveDir;
    live::LiveService service(cfg);
    ASSERT_TRUE(service.ok()) << service.error();
    std::thread loop([&service] { service.run(); });

    // Subscriber first, so it sees the whole producer stream; wait
    // until the daemon has registered it.
    const int sub = live::connectUnix(socketPath);
    ASSERT_GE(sub, 0);
    {
        std::vector<unsigned char> request;
        live::encodeSubscribe(request, "alpha*");
        ASSERT_TRUE(
            live::writeFully(sub, request.data(), request.size()));
    }
    ASSERT_TRUE(statsEventually(socketPath, "\"subscribers\": 1"));

    // Producer: Hello, two Events frames, Bye.
    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 10; ++i)
        events.push_back(eventNumber(i));
    {
        const int prod = live::connectUnix(socketPath);
        ASSERT_GE(prod, 0);
        std::vector<unsigned char> bytes;
        live::encodeHello(bytes, "alpha", 42, 0);
        live::encodeEvents(bytes, events.data(), 6);
        live::encodeEvents(bytes, events.data() + 6, 4);
        live::encodeBye(bytes);
        ASSERT_TRUE(
            live::writeFully(prod, bytes.data(), bytes.size()));
        ::close(prod);
    }

    // The subscriber receives the delivered stream framed like a
    // producer would send it: Hello, Events*, Bye.
    {
        live::FrameReader reader(sub);
        live::Frame frame;
        ASSERT_TRUE(reader.next(frame)) << reader.error();
        ASSERT_EQ(frame.type, live::FrameType::Hello);
        EXPECT_EQ(frame.tenant, "alpha");
        EXPECT_EQ(frame.seed, 42u);

        std::vector<trace::TraceEvent> received;
        for (;;) {
            ASSERT_TRUE(reader.next(frame)) << reader.error();
            if (frame.type == live::FrameType::Bye)
                break;
            ASSERT_EQ(frame.type, live::FrameType::Events);
            received.insert(received.end(), frame.events.begin(),
                            frame.events.end());
        }
        ASSERT_EQ(received.size(), events.size());
        for (std::size_t i = 0; i < events.size(); ++i)
            EXPECT_EQ(received[i], events[i]);
    }
    ::close(sub);

    // By Bye time the session has drained: the archive is finished
    // (header patched) and carries the seed and every event.
    {
        trace::TraceReader reader(archiveDir + "/alpha.smtr");
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.seed(), 42u);
        EXPECT_EQ(reader.declaredCount(), events.size());
        trace::TraceEvent ev;
        std::size_t at = 0;
        while (reader.next(ev))
            EXPECT_EQ(ev, events[at++]);
        EXPECT_EQ(at, events.size());
    }

    // Runtime-queryable metrics reflect the run.
    const std::string stats = fetchStats(socketPath);
    EXPECT_NE(stats.find("\"events_forwarded\": 10"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"sessions_opened\": 1"),
              std::string::npos)
        << stats;

    // Garbage on a fresh connection is a protocol error; the daemon
    // drops the connection and keeps serving.
    {
        const int bad = live::connectUnix(socketPath);
        ASSERT_GE(bad, 0);
        const unsigned char junk[] = {'Z', 'Z', 'Z', 'Z'};
        live::writeFully(bad, junk, sizeof(junk));
        ::close(bad);
    }
    ASSERT_TRUE(
        statsEventually(socketPath, "\"protocol_errors\": 1"));

    service.requestStop();
    loop.join();
    EXPECT_TRUE(service.ok()) << service.error();
}

TEST(LiveServiceEndToEnd, TcpResumeSessionAcksAndArchives)
{
    const std::string socketPath = test::tempPath("live-tcp.sock");
    const std::string archiveDir = test::tempPath("live-tcp-archive");
    ::mkdir(archiveDir.c_str(), 0700);
    ::unlink((archiveDir + "/gamma.smtr").c_str());

    live::ServiceConfig cfg;
    cfg.socketPath = socketPath;
    cfg.archiveDir = archiveDir;
    cfg.tcpPort = 0; // ephemeral
    cfg.ackIntervalEvents = 4;
    live::LiveService service(cfg);
    ASSERT_TRUE(service.ok()) << service.error();
    const int port = service.tcpListenPort();
    ASSERT_GT(port, 0);
    std::thread loop([&service] { service.run(); });

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 8; ++i)
        events.push_back(eventNumber(i));

    const int fd = live::connectTcp("127.0.0.1",
                                    static_cast<std::uint16_t>(port));
    ASSERT_GE(fd, 0);
    {
        std::vector<unsigned char> bytes;
        // policy byte 1 = Block explicitly (0 = service default).
        live::encodeHelloResume(bytes, "gamma", 99, 1, 0);
        live::encodeSeqEvents(bytes, 1, events.data(),
                              events.size());
        ASSERT_TRUE(
            live::writeFully(fd, bytes.data(), bytes.size()));
    }

    // The handshake ack arrives first (floor 0), then the archive
    // watermark climbs to cover all 8 records.
    live::FrameReader reader(fd);
    live::Frame frame;
    std::uint64_t floor = 0;
    for (int rounds = 0; rounds < 200 && floor < events.size();
         ++rounds) {
        std::vector<unsigned char> ping;
        live::encodePing(ping);
        ASSERT_TRUE(
            live::writeFully(fd, ping.data(), ping.size()));
        ASSERT_TRUE(reader.next(frame)) << reader.error();
        ASSERT_EQ(frame.type, live::FrameType::Ack);
        floor = frame.seq;
    }
    EXPECT_EQ(floor, events.size());

    {
        std::vector<unsigned char> bye;
        live::encodeBye(bye);
        ASSERT_TRUE(live::writeFully(fd, bye.data(), bye.size()));
    }
    ::close(fd);
    ASSERT_TRUE(
        statsEventually(socketPath, "\"sessions_retired\": 1"));

    service.requestStop();
    loop.join();
    EXPECT_TRUE(service.ok()) << service.error();

    const auto loaded = trace::loadTrace(archiveDir + "/gamma.smtr");
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ((*loaded)[i], events[i]);
}

TEST(LiveServiceEndToEnd, FifoCarriesAProducerStream)
{
    const std::string socketPath = test::tempPath("live-fifo.sock");
    const std::string fifoPath = test::tempPath("live-fifo.in");
    const std::string archiveDir = test::tempPath("live-fifo-archive");
    ::mkdir(archiveDir.c_str(), 0700);
    ::unlink((archiveDir + "/feed.smtr").c_str());
    ::unlink(fifoPath.c_str());

    live::ServiceConfig cfg;
    cfg.socketPath = socketPath;
    cfg.fifoPaths.push_back(fifoPath);
    cfg.archiveDir = archiveDir;
    live::LiveService service(cfg);
    ASSERT_TRUE(service.ok()) << service.error();
    std::thread loop([&service] { service.run(); });

    std::vector<trace::TraceEvent> events;
    for (std::uint64_t i = 0; i < 25; ++i)
        events.push_back(eventNumber(i));
    {
        // The daemon holds the fifo O_RDWR, so this open does not
        // block waiting for a reader.
        const int fd = ::open(fifoPath.c_str(), O_WRONLY);
        ASSERT_GE(fd, 0);
        std::vector<unsigned char> bytes;
        live::encodeHello(bytes, "feed", 7, 0);
        live::encodeEvents(bytes, events.data(), events.size());
        live::encodeBye(bytes);
        ASSERT_TRUE(
            live::writeFully(fd, bytes.data(), bytes.size()));
        ::close(fd);
    }

    // The Bye retires the session; the archive header gets patched.
    ASSERT_TRUE(
        statsEventually(socketPath, "\"sessions_retired\": 1"));

    service.requestStop();
    loop.join();
    EXPECT_TRUE(service.ok()) << service.error();

    const auto loaded = trace::loadTrace(archiveDir + "/feed.smtr");
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ((*loaded)[i], events[i]);
}
