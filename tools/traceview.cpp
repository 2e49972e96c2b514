/**
 * @file
 * traceview - offline evaluation of saved event traces, in the spirit
 * of the SIMPLE tool environment: statistics, Gantt charts and
 * histograms over a trace file, long after the measurement ran.
 *
 * Usage:
 *   traceview <trace.smtr> [gantt [t0_ms t1_ms] | stats | csv |
 *                           hist <stream> <STATE>]
 *
 * The trace file is produced by trace::saveTrace() and decoded
 * through the shared incremental TraceReader; the ray tracer
 * dictionary is used for interpretation (tokens outside it are
 * counted as unknown).
 *
 * Exit status: 0 ok, 1 unreadable/invalid trace, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "partracer/events.hh"
#include "sim/logging.hh"
#include "trace/gantt.hh"
#include "trace/io.hh"
#include "trace/report.hh"

using namespace supmon;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <trace.smtr> [gantt [t0_ms t1_ms] | "
                 "stats | csv | hist <stream> <STATE>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    trace::TraceReader reader(argv[1]);
    if (!reader.ok()) {
        std::fprintf(stderr, "%s\n", reader.error().c_str());
        return 1;
    }
    std::vector<trace::TraceEvent> events;
    events.reserve(
        static_cast<std::size_t>(reader.declaredCount()));
    trace::TraceEvent record;
    while (reader.next(record))
        events.push_back(record);
    if (!reader.error().empty()) {
        std::fprintf(stderr, "%s\n", reader.error().c_str());
        return 1;
    }

    const trace::EventDictionary dict = par::rayTracerDictionary();
    const auto activity = trace::ActivityMap::build(events, dict);
    const std::string mode = argc > 2 ? argv[2] : "stats";
    if (mode != "gantt" && mode != "csv" && mode != "hist" &&
        mode != "stats")
        return usage(argv[0]);
    if (mode == "hist" && argc <= 4)
        return usage(argv[0]);

    std::printf("trace '%s': %zu events, %zu streams, "
                "%.3f s .. %.3f s%s\n\n",
                argv[1], events.size(), activity.streams().size(),
                sim::toSeconds(activity.traceBegin()),
                sim::toSeconds(activity.traceEnd()),
                trace::isTimeOrdered(events) ? ""
                                             : " (NOT time-ordered!)");

    if (mode == "gantt") {
        sim::Tick t0 = activity.traceBegin();
        sim::Tick t1 = activity.traceEnd();
        if (argc > 4) {
            t0 = sim::milliseconds(
                static_cast<std::uint64_t>(std::atoll(argv[3])));
            t1 = sim::milliseconds(
                static_cast<std::uint64_t>(std::atoll(argv[4])));
        }
        trace::GanttChart chart(activity, dict);
        std::printf("%s\n", chart.render(t0, t1).c_str());
    } else if (mode == "csv") {
        std::printf("%s", trace::eventsCsv(events, dict).c_str());
    } else if (mode == "hist") {
        const unsigned stream =
            static_cast<unsigned>(std::atoi(argv[3]));
        std::printf("%s\n",
                    trace::durationHistogramReport(activity, dict,
                                                   stream, argv[4])
                        .c_str());
    } else {
        std::printf("%s\n",
                    trace::stateStatisticsReport(
                        activity, dict, activity.traceBegin(),
                        activity.traceEnd())
                        .c_str());
        if (activity.unknownTokens()) {
            std::printf("(%llu events with tokens outside the ray "
                        "tracer dictionary)\n",
                        static_cast<unsigned long long>(
                            activity.unknownTokens()));
        }
    }
    return 0;
}
