/**
 * @file
 * Simulation-kernel throughput: sustained simulator events/second on
 * a pure-scheduler workload (6.5M events of self-rescheduling chains,
 * same-tick bursts and cancelled far-future fodder) through three
 * kernels:
 *
 *  - the ladder-queue kernel (sim::Simulation, the production path);
 *  - the reference binary heap (sim::ReferenceSimulation, the
 *    executable specification with the move-out fix; test-only code
 *    in tests/sim/reference_queue.hh);
 *  - the seed binary heap, reproduced here verbatim including the
 *    per-event `Item item = queue.top();` closure copy the project
 *    started with.
 *
 * All three must execute the identical schedule (same executed count,
 * same final tick) — the bench aborts on any divergence, making it a
 * cheap cross-kernel determinism check on every CI run.
 *
 * Also measured: the full-machine rate (ZM4-recorded trace events per
 * wall second of the scaled-100x scenario, 701 nodes end to end; the
 * scheduler events it took are reported alongside but not gated,
 * because one hybrid_mon() display sequence is a single scheduler
 * event) and the memory footprint of a 1024-node scaled machine
 * (resident bytes per node and the node count that fits in a 512 MB
 * budget).
 *
 * Writes BENCH_sim.json; `--check [baseline.json]` compares the
 * *_events_per_sec rows against the committed baseline and
 * additionally enforces the hard acceptance floor of a 4.5x ladder
 * speedup over the seed kernel.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/reference_queue.hh"
#include "suprenum/machine.hh"
#include "validate/scenarios.hh"

using namespace supmon;

namespace
{

// ---------------------------------------------------------------------
// The seed scheduler, preserved for comparison.
// ---------------------------------------------------------------------

/**
 * The project's original event queue, exactly as seeded: a
 * std::priority_queue whose run() loop *copies* the whole Item —
 * std::function closure and shared_ptr control block included — out
 * of the heap for every event executed. Kept here (and only here) so
 * the bench can quantify what the ladder rewrite bought.
 */
class SeedSimulation
{
  public:
    struct Control
    {
        bool cancelled = false;
    };

    class Handle
    {
      public:
        void
        cancel()
        {
            if (auto ctl = control.lock())
                ctl->cancelled = true;
        }

        std::weak_ptr<Control> control;
    };

    sim::Tick
    now() const
    {
        return curTick;
    }

    Handle
    scheduleAt(sim::Tick when, std::function<void()> fn)
    {
        Item item;
        item.when = when;
        item.seq = seqCounter++;
        item.fn = std::move(fn);
        item.control = std::make_shared<Control>();
        Handle handle;
        handle.control = item.control;
        queue.push(std::move(item));
        return handle;
    }

    Handle
    scheduleAfter(sim::Tick delay, std::function<void()> fn)
    {
        return scheduleAt(curTick + delay, std::move(fn));
    }

    std::uint64_t
    run(sim::Tick limit = sim::maxTick)
    {
        std::uint64_t count = 0;
        while (!queue.empty()) {
            if (queue.top().when > limit)
                break;
            Item item = queue.top(); // the seed's per-event copy
            queue.pop();
            curTick = item.when;
            if (item.control->cancelled)
                continue;
            ++count;
            item.fn();
        }
        return count;
    }

  private:
    struct Item
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
        std::shared_ptr<Control> control;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Item, std::vector<Item>, Later> queue;
    sim::Tick curTick = 0;
    std::uint64_t seqCounter = 0;
};

// ---------------------------------------------------------------------
// Pure-scheduler workload.
// ---------------------------------------------------------------------

constexpr unsigned chainCount = 2000000;
constexpr unsigned chainHops = 2;

/**
 * Mirrors the capture footprint of the machine's transport closures
 * (Machine::routeMessage captures a moved-in Message, ~72-80 bytes):
 * large enough that std::function must heap-allocate it on every
 * schedule *and* on the seed kernel's per-event copy, while the
 * ladder kernel's 88-byte inline buffer keeps it allocation-free.
 */
struct Payload
{
    std::uint64_t words[8];
};

struct SchedulerRun
{
    std::uint64_t executed = 0;
    sim::Tick finalTick = 0;
    std::uint64_t checksum = 0;
    double seconds = 0.0;
};

/**
 * The identical deterministic schedule for every kernel: a standing
 * population of 2M self-rescheduling chains (the pending-set size a
 * 100x-scaled machine sustains; the binary heaps stay ~2M — 21
 * levels — deep), 2 hops each with per-chain LCG delays uniform in
 * 1..1000000 ticks and a message-sized closure payload, plus a
 * 2-event same-tick burst per eighth chain and a cancelled
 * far-future event per 64th chain. 6.5M executed events.
 *
 * Kept out of line, like measureFullMachine(): when the compiler
 * inlined these into their callers, the ladder/seed ratio moved from
 * 5.1-7.1x to 3.8-4.5x on unchanged kernels, so the code layout, not
 * the kernels, decided the gated ratio.
 */
template <typename Sim>
[[gnu::noinline]] SchedulerRun
runSchedulerWorkload()
{
    Sim simul;
    struct Chain
    {
        std::uint64_t state;
        std::uint32_t hopsLeft;
    };
    std::vector<Chain> chains(chainCount);
    std::uint64_t checksum = 0;
    std::function<void(unsigned)> hop = [&](unsigned c) {
        Chain &chain = chains[c];
        if (chain.hopsLeft == 0)
            return;
        --chain.hopsLeft;
        chain.state = chain.state * 6364136223846793005ull +
                      1442695040888963407ull;
        const sim::Tick delay = 1 + ((chain.state >> 33) % 1000000);
        Payload payload;
        for (unsigned w = 0; w < 8; ++w)
            payload.words[w] = chain.state + w;
        simul.scheduleAfter(delay, [&hop, &checksum, c, payload] {
            checksum += payload.words[0];
            hop(c);
        });
        if (chain.hopsLeft == 0 && (c & 7u) == 0) {
            // Delivery fan-out: a same-tick burst carrying the
            // message payload, as the machine model produces on a
            // final hand-off.
            for (int burst = 0; burst < 2; ++burst)
                simul.scheduleAfter(0, [&checksum, payload] {
                    checksum += payload.words[2];
                });
        }
        if (chain.hopsLeft == 0 && (c & 63u) == 0) {
            auto doomed = simul.scheduleAfter(
                10000000 + (chain.state % 100000), [] {});
            doomed.cancel();
        }
    };
    for (unsigned c = 0; c < chainCount; ++c) {
        chains[c].state = 0x9e3779b97f4a7c15ull * (c + 1);
        chains[c].hopsLeft = chainHops;
        simul.scheduleAt(c % 1000, [&hop, c] { hop(c); });
    }

    const auto begin = std::chrono::steady_clock::now();
    SchedulerRun result;
    result.executed = simul.run();
    const auto end = std::chrono::steady_clock::now();
    result.finalTick = simul.now();
    result.checksum = checksum;
    result.seconds =
        std::chrono::duration<double>(end - begin).count();
    return result;
}

/**
 * One timed run in a forked child, so every kernel measures against
 * the same pristine heap. Running the kernels back to back in one
 * process is unfair: each run leaves the malloc arena fragmented, so
 * whichever allocation-heavy kernel runs later sees scattered closure
 * allocations and measures 40-70% slower than it would alone.
 */
template <typename Sim>
SchedulerRun
isolatedSchedulerRun()
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    const pid_t child = fork();
    if (child < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (child == 0) {
        close(fds[0]);
        const SchedulerRun result = runSchedulerWorkload<Sim>();
        const ssize_t put =
            write(fds[1], &result, sizeof(result));
        _exit(put == static_cast<ssize_t>(sizeof(result)) ? 0 : 1);
    }
    close(fds[1]);
    SchedulerRun result;
    const ssize_t got = read(fds[0], &result, sizeof(result));
    close(fds[0]);
    int status = 0;
    waitpid(child, &status, 0);
    if (got != static_cast<ssize_t>(sizeof(result)) ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "benchmark child failed\n");
        std::exit(1);
    }
    return result;
}

/** Measurement rounds; each runs every kernel back to back. */
constexpr int schedulerRounds = 3;

double
medianOf3(double a, double b, double c)
{
    static_assert(schedulerRounds == 3, "medianOf3 wants 3 rounds");
    return a + b + c - std::min({a, b, c}) - std::max({a, b, c});
}

double
eps(std::uint64_t events, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(events) / seconds
                         : 0.0;
}

std::string
mevs(double events_per_sec)
{
    return sim::strprintf("%.2f Mev/s", events_per_sec / 1e6);
}

// ---------------------------------------------------------------------
// Memory footprint.
// ---------------------------------------------------------------------

std::uint64_t
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long total = 0;
    unsigned long long resident = 0;
    const int fields = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (fields != 2)
        return 0;
    return resident *
           static_cast<unsigned long long>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------
// Full machine.
// ---------------------------------------------------------------------

/**
 * The full-machine rate: ZM4-recorded trace events per wall second of
 * scaled-100x, best of five runs (~0.2 s each, long enough to time
 * stably). Trace events, not scheduler events, because the recorded
 * trace is the same for every kernel version while the scheduler
 * events one hybrid_mon() costs are a modelling choice.
 * Out of line for a stable layout (see runSchedulerWorkload()).
 * @return nonzero if the scenario did not complete.
 */
[[gnu::noinline]] int
measureFullMachine(bench::JsonReport &report)
{
    const validate::Scenario *scaled =
        validate::findScenario("scaled-100x");
    if (!scaled) {
        std::fprintf(stderr, "scenario scaled-100x not registered\n");
        return 1;
    }
    double seconds = 0.0;
    par::RunResult run;
    for (int r = 0; r < 5; ++r) {
        const auto begin = std::chrono::steady_clock::now();
        run = validate::runScenario(*scaled);
        const auto end = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(end - begin).count();
        if (r == 0 || s < seconds)
            seconds = s;
    }
    const double machineEps = eps(run.eventsRecorded, seconds);
    std::printf("  %-44s %s (%llu trace events, %llu sim events, "
                "%.2f s wall)\n",
                "full machine, scaled-100x (701 nodes)",
                mevs(machineEps).c_str(),
                static_cast<unsigned long long>(run.eventsRecorded),
                static_cast<unsigned long long>(run.simEventsExecuted),
                seconds);
    report.add("full_machine_scaled100x_trace_events_per_sec",
               machineEps);
    report.add("full_machine_scaled100x_trace_events",
               run.eventsRecorded);
    report.add("full_machine_scaled100x_sim_events",
               run.simEventsExecuted);
    if (!run.completed) {
        std::fprintf(stderr, "scaled-100x did not complete\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath;
    const bool checkMode = bench::parseCheckArg(
        argc, argv, "BENCH_sim.json", baselinePath);
    bench::banner("Simulation kernel",
                  "ladder queue vs binary heaps, full-machine rate, "
                  "memory per node");

    bench::JsonReport report("BENCH_sim.json");

    // ----- memory per node (before any heap churn) --------------------
    // A 64x16 scaled machine: 1024 processing nodes + 64 disk nodes.
    {
        sim::QuietScope quiet;
        const std::uint64_t before = residentBytes();
        sim::Simulation simul;
        suprenum::MachineParams mp;
        mp.numClusters = 64;
        mp.nodesPerCluster = 16;
        const suprenum::Machine machine(simul, mp);
        const std::uint64_t after = residentBytes();
        const unsigned nodes =
            mp.totalProcessingNodes() + mp.numClusters; // + disks
        if (after > before && before > 0) {
            const double perNode =
                static_cast<double>(after - before) / nodes;
            const double nodesAt512 =
                512.0 * 1024 * 1024 / perNode;
            report.add("machine_rss_bytes_per_node", perNode);
            report.add("machine_nodes_at_512mb", nodesAt512);
            std::printf("  %-44s %.1f KiB (%u-node machine)\n",
                        "resident memory per node", perNode / 1024.0,
                        nodes);
            std::printf("  %-44s %.0f\n", "nodes fitting in 512 MB",
                        nodesAt512);
        } else {
            std::printf("  %-44s unavailable\n",
                        "resident memory per node");
        }
    }

    // ----- pure scheduler ---------------------------------------------
    // Three rounds, each running the kernels back to back in forked
    // (pristine-heap) children. Per-kernel rates take the fastest
    // round; the speedups take the *median of per-round ratios* —
    // the kernels of one round run adjacent in time, so slow-host
    // phases hit both sides of a ratio and cancel, where a ratio of
    // two best-of rates from different moments would not.
    SchedulerRun ladderRounds[schedulerRounds];
    SchedulerRun referenceRounds[schedulerRounds];
    SchedulerRun seedRounds[schedulerRounds];
    for (int r = 0; r < schedulerRounds; ++r) {
        ladderRounds[r] = isolatedSchedulerRun<sim::Simulation>();
        referenceRounds[r] =
            isolatedSchedulerRun<sim::ReferenceSimulation>();
        seedRounds[r] = isolatedSchedulerRun<SeedSimulation>();
    }

    SchedulerRun ladder = ladderRounds[0];
    SchedulerRun reference = referenceRounds[0];
    SchedulerRun seed = seedRounds[0];
    for (int r = 0; r < schedulerRounds; ++r) {
        for (const SchedulerRun *run :
             {&ladderRounds[r], &referenceRounds[r], &seedRounds[r]}) {
            if (run->executed != ladder.executed ||
                run->finalTick != ladder.finalTick ||
                run->checksum != ladder.checksum) {
                std::fprintf(
                    stderr,
                    "kernel divergence in round %d: "
                    "%llu@%llu checksum %llu vs %llu@%llu "
                    "checksum %llu\n",
                    r, static_cast<unsigned long long>(run->executed),
                    static_cast<unsigned long long>(run->finalTick),
                    static_cast<unsigned long long>(run->checksum),
                    static_cast<unsigned long long>(ladder.executed),
                    static_cast<unsigned long long>(ladder.finalTick),
                    static_cast<unsigned long long>(ladder.checksum));
                return 1;
            }
        }
        if (ladderRounds[r].seconds < ladder.seconds)
            ladder = ladderRounds[r];
        if (referenceRounds[r].seconds < reference.seconds)
            reference = referenceRounds[r];
        if (seedRounds[r].seconds < seed.seconds)
            seed = seedRounds[r];
    }

    const double ladderEps = eps(ladder.executed, ladder.seconds);
    const double referenceEps =
        eps(reference.executed, reference.seconds);
    const double seedEps = eps(seed.executed, seed.seconds);
    const double speedupVsSeed = medianOf3(
        seedRounds[0].seconds / ladderRounds[0].seconds,
        seedRounds[1].seconds / ladderRounds[1].seconds,
        seedRounds[2].seconds / ladderRounds[2].seconds);
    const double speedupVsReference = medianOf3(
        referenceRounds[0].seconds / ladderRounds[0].seconds,
        referenceRounds[1].seconds / ladderRounds[1].seconds,
        referenceRounds[2].seconds / ladderRounds[2].seconds);

    std::printf("  %-44s %llu events, final tick %llu\n",
                "scheduler workload",
                static_cast<unsigned long long>(ladder.executed),
                static_cast<unsigned long long>(ladder.finalTick));
    std::printf("  %-44s %s\n", "ladder queue",
                mevs(ladderEps).c_str());
    std::printf("  %-44s %s\n", "reference heap (move-out)",
                mevs(referenceEps).c_str());
    std::printf("  %-44s %s\n", "seed heap (per-event copy)",
                mevs(seedEps).c_str());
    std::printf("  %-44s %.2fx vs seed, %.2fx vs reference\n",
                "ladder speedup", speedupVsSeed, speedupVsReference);

    report.add("scheduler_events", ladder.executed);
    report.add("scheduler_ladder_events_per_sec", ladderEps);
    report.add("scheduler_reference_heap_events_per_sec",
               referenceEps);
    report.add("scheduler_seed_heap_events_per_sec", seedEps);
    report.add("speedup_ladder_vs_seed", speedupVsSeed);
    report.add("speedup_ladder_vs_reference", speedupVsReference);

    const int status = measureFullMachine(report);
    std::printf("\n");

    if (checkMode) {
        bool ok =
            bench::checkAgainstBaseline(report, baselinePath);
        // Hard floor, independent of the baseline: the ladder kernel
        // must beat the seed heap ~5x on this schedule (the committed
        // BENCH_sim.json records the measured ratio; the gate allows
        // 10% slack for noisy shared CI runners).
        if (speedupVsSeed < 4.5) {
            std::fprintf(stderr,
                         "check FAIL: ladder speedup vs seed heap "
                         "%.2fx is below the 4.5x floor\n",
                         speedupVsSeed);
            ok = false;
        }
        return ok ? status : 1;
    }
    if (!report.write()) {
        std::fprintf(stderr, "cannot write BENCH_sim.json\n");
        return 1;
    }
    return status;
}
