#include "report.hh"

#include <sstream>

#include "sim/logging.hh"

namespace supmon
{
namespace trace
{

std::string
stateStatisticsReport(const ActivityMap &map, const EventDictionary &dict,
                      sim::Tick t0, sim::Tick t1)
{
    std::ostringstream os;
    os << sim::strprintf(
        "%-14s %-22s %8s %12s %12s %12s %12s %8s\n", "STREAM", "STATE",
        "COUNT", "TOTAL[ms]", "MEAN[ms]", "MIN[ms]", "MAX[ms]",
        "SHARE");
    const auto stats = map.durationStats();
    for (unsigned stream : map.streams()) {
        for (const auto &state : dict.statesInOrder()) {
            auto it = stats.find({stream, state});
            if (it == stats.end())
                continue;
            const auto &s = it->second;
            const double share =
                map.utilization(stream, state, t0, t1);
            os << sim::strprintf(
                "%-14s %-22s %8llu %12.3f %12.3f %12.3f %12.3f %7.2f%%\n",
                dict.streamName(stream).c_str(), state.c_str(),
                static_cast<unsigned long long>(s.count()),
                s.sum() * 1e-6, s.mean() * 1e-6, s.min() * 1e-6,
                s.max() * 1e-6, share * 100.0);
        }
    }
    return os.str();
}

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

std::string
eventsCsv(const std::vector<TraceEvent> &events,
          const EventDictionary &dict)
{
    std::ostringstream os;
    os << "timestamp_ns,stream,token,name,param,flags\n";
    for (const auto &ev : events) {
        const EventDef *def = dict.find(ev.token);
        os << sim::strprintf(
            "%llu,%s,0x%04x,%s,%u,%u\n",
            static_cast<unsigned long long>(ev.timestamp),
            csvField(dict.streamName(ev.stream)).c_str(), ev.token,
            def ? csvField(def->name).c_str() : "?", ev.param,
            ev.flags);
    }
    return os.str();
}

std::string
durationHistogramReport(const ActivityMap &map,
                        const EventDictionary &dict, unsigned stream,
                        const std::string &state, std::size_t bins)
{
    std::ostringstream os;
    const sim::Histogram hist =
        map.durationHistogram(stream, state, bins);
    os << sim::strprintf("%s / %s: %llu intervals\n",
                         dict.streamName(stream).c_str(), state.c_str(),
                         static_cast<unsigned long long>(
                             hist.samples()));
    std::uint64_t peak = 1;
    for (std::size_t b = 0; b < hist.bins(); ++b)
        peak = std::max(peak, hist.binCount(b));
    for (std::size_t b = 0; b < hist.bins(); ++b) {
        const unsigned bar = static_cast<unsigned>(
            50.0 * static_cast<double>(hist.binCount(b)) /
            static_cast<double>(peak));
        os << sim::strprintf("  %10.2f ms |%-50s| %llu\n",
                             hist.binLower(b) * 1e-6,
                             std::string(bar, '#').c_str(),
                             static_cast<unsigned long long>(
                                 hist.binCount(b)));
    }
    return os.str();
}

} // namespace trace
} // namespace supmon
