/**
 * @file
 * Tests of the hybrid_mon instrumentation layer: intrusion costs per
 * monitoring mode and end-to-end event emission through the display.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "hybrid/instrument.hh"
#include "hybrid/interface.hh"
#include "sim/logging.hh"
#include "suprenum/machine.hh"
#include "suprenum/seven_segment.hh"

using namespace supmon;
using hybrid::Instrumentor;
using hybrid::MonitorMode;
using hybrid::SuprenumInterface;
using suprenum::Machine;
using suprenum::MachineParams;
using suprenum::ProcessEnv;

namespace
{

class InstrumentTest : public ::testing::Test
{
  protected:
    InstrumentTest()
    {
        sim::setQuiet(true);
        params.numClusters = 1;
        params.nodesPerCluster = 2;
        machine = std::make_unique<Machine>(simul, params);
    }

    ~InstrumentTest() override
    {
        sim::setQuiet(false);
    }

    /** Run one process that emits one event in the given mode and
     *  return the simulated time the call took. */
    sim::Tick
    costOfOneEvent(MonitorMode mode)
    {
        sim::Tick cost = 0;
        machine->nodeByIndex(0).spawn(
            "probe", [&, mode](ProcessEnv env) -> sim::Task {
                Instrumentor mon(env, mode);
                const sim::Tick before = env.now();
                co_await mon(0x0101, 42);
                cost = env.now() - before;
            });
        simul.run();
        return cost;
    }

    sim::Simulation simul;
    MachineParams params;
    std::unique_ptr<Machine> machine;
};

} // namespace

TEST_F(InstrumentTest, OffModeCostsNothing)
{
    EXPECT_EQ(costOfOneEvent(MonitorMode::Off), 0u);
}

TEST_F(InstrumentTest, HybridModeCostsAboutHundredMicroseconds)
{
    const sim::Tick cost = costOfOneEvent(MonitorMode::Hybrid);
    EXPECT_EQ(cost, params.hybridMonCost);
}

TEST_F(InstrumentTest, TerminalModeCostsOverTwoPointFourMilliseconds)
{
    const sim::Tick cost = costOfOneEvent(MonitorMode::Terminal);
    EXPECT_GT(cost, sim::microseconds(2400));
}

TEST_F(InstrumentTest, PaperClaim_HybridIsTwentyTimesCheaper)
{
    // "One call of the routine hybrid_mon takes less than one
    // twentieth of the time that would be needed to output an event
    // via the terminal interface."
    const sim::Tick hybrid = costOfOneEvent(MonitorMode::Hybrid);
    // Fresh machine for the second measurement.
    machine = std::make_unique<Machine>(simul, params);
    const sim::Tick terminal = costOfOneEvent(MonitorMode::Terminal);
    EXPECT_LT(hybrid * 20, terminal + 1);
}

TEST_F(InstrumentTest, HybridEmitsThirtyTwoDisplayWrites)
{
    int writes = 0;
    machine->nodeByIndex(0).display().attachObserver(
        [&](std::uint8_t, sim::Tick) { ++writes; });
    costOfOneEvent(MonitorMode::Hybrid);
    EXPECT_EQ(writes, 32);
}

TEST_F(InstrumentTest, DisplayWritesLandAtTheirOwnTicks)
{
    // The observer sees every glyph at its own tick, spread evenly
    // over the call, and the interface's request - which the event
    // recorder stamps with the current simulated time - comes at the
    // tick of the last write.
    std::vector<std::pair<std::uint8_t, sim::Tick>> writes;
    std::vector<sim::Tick> requestedAt;
    SuprenumInterface iface;
    iface.attach(machine->nodeByIndex(0).display(),
                 [&](std::uint64_t, sim::Tick) {
                     requestedAt.push_back(simul.now());
                 });
    machine->nodeByIndex(0).display().attachObserver(
        [&](std::uint8_t glyph, sim::Tick when) {
            writes.emplace_back(glyph, when);
            iface.observe(glyph, when);
        });
    sim::Tick start = 0;
    machine->nodeByIndex(0).spawn(
        "probe", [&](ProcessEnv env) -> sim::Task {
            Instrumentor mon(env, MonitorMode::Hybrid);
            start = env.now();
            co_await mon(0x0505, 0x12345678);
        });
    simul.run();

    const auto seq = hybrid::encodePatternSequence(0x0505, 0x12345678);
    ASSERT_EQ(writes.size(), seq.size());
    const sim::Tick spacing = params.hybridMonCost / (seq.size() + 1);
    ASSERT_GT(spacing, 0u);
    for (std::size_t i = 0; i < writes.size(); ++i) {
        EXPECT_EQ(writes[i].first, suprenum::sevenSegmentFont[seq[i]]);
        EXPECT_EQ(writes[i].second, start + spacing * (i + 1));
        if (i > 0) {
            EXPECT_LT(writes[i - 1].second, writes[i].second);
        }
    }
    ASSERT_EQ(requestedAt.size(), 1u);
    EXPECT_EQ(requestedAt[0], writes.back().second);
}

TEST_F(InstrumentTest, OneHybridCallCostsTwoSchedulerEvents)
{
    // One event drives the whole display sequence and one resumes the
    // caller. The difference spans exactly those two, however the
    // counter treats the event running at each reading.
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    machine->nodeByIndex(0).spawn(
        "probe", [&](ProcessEnv env) -> sim::Task {
            Instrumentor mon(env, MonitorMode::Hybrid);
            before = simul.eventsExecuted();
            co_await mon(0x0101, 42);
            after = simul.eventsExecuted();
        });
    simul.run();
    EXPECT_EQ(after - before, 2u);
}

TEST_F(InstrumentTest, OverlappingDisplaySequencesPanic)
{
    // A context switch shorter than hybrid_mon lets a killed process's
    // successor start its own sequence before the victim's has landed;
    // the kernel refuses instead of interleaving the two on the
    // display.
    MachineParams fast = params;
    fast.contextSwitchCost = sim::microseconds(20);
    ASSERT_LT(fast.contextSwitchCost, fast.hybridMonCost);
    sim::Simulation fastSim;
    Machine fastMachine(fastSim, fast);
    auto &node = fastMachine.nodeByIndex(0);
    const auto emitter = [](ProcessEnv env) -> sim::Task {
        Instrumentor mon(env, MonitorMode::Hybrid);
        co_await mon(0x0101, 1);
    };
    suprenum::Lwp *victim = node.find(node.spawn("victim", emitter).lwp);
    node.spawn("successor", emitter);
    // The victim is dispatched after one context switch and starts its
    // sequence at once; kill it 30 us into the 100 us call.
    fastSim.scheduleAt(fast.contextSwitchCost + sim::microseconds(30),
                       [&node, victim] { node.killLwp(victim); });
    EXPECT_DEATH(fastSim.run(), "display sequence .* starts at");
}

TEST_F(InstrumentTest, EndToEndEventReachesDecoder)
{
    SuprenumInterface iface;
    std::vector<std::uint64_t> events;
    iface.attach(machine->nodeByIndex(0).display(),
                 [&](std::uint64_t data, sim::Tick) {
                     events.push_back(data);
                 });
    machine->nodeByIndex(0).spawn(
        "probe", [&](ProcessEnv env) -> sim::Task {
            Instrumentor mon(env, MonitorMode::Hybrid);
            co_await mon(0x0707, 0xabcdef01);
            co_await mon(0x0708, 2);
        });
    simul.run();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(hybrid::unpack48(events[0]).token, 0x0707);
    EXPECT_EQ(hybrid::unpack48(events[0]).param, 0xabcdef01u);
    EXPECT_EQ(hybrid::unpack48(events[1]).token, 0x0708);
}

TEST_F(InstrumentTest, TerminalEmitsThroughSerialPort)
{
    std::uint64_t seen = 0;
    machine->nodeByIndex(0).serialPort().attachObserver(
        [&](std::uint64_t data, unsigned bits, sim::Tick) {
            seen = data;
            EXPECT_EQ(bits, 48u);
        });
    machine->nodeByIndex(0).spawn(
        "probe", [&](ProcessEnv env) -> sim::Task {
            Instrumentor mon(env, MonitorMode::Terminal);
            co_await mon(0x0011, 0x22334455);
        });
    simul.run();
    EXPECT_EQ(seen, hybrid::pack48(0x0011, 0x22334455));
}

TEST_F(InstrumentTest, ModeNamesAreStable)
{
    EXPECT_STREQ(hybrid::monitorModeName(MonitorMode::Off), "off");
    EXPECT_STREQ(hybrid::monitorModeName(MonitorMode::Hybrid),
                 "hybrid");
    EXPECT_STREQ(hybrid::monitorModeName(MonitorMode::Terminal),
                 "terminal");
}
