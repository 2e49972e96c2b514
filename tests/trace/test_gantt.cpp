/**
 * @file
 * Tests of the Gantt chart rendering and the textual/CSV reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "trace/gantt.hh"
#include "trace/report.hh"

using namespace supmon;
using trace::ActivityMap;
using trace::EventDictionary;
using trace::GanttChart;
using trace::TraceEvent;

namespace
{

TraceEvent
ev(sim::Tick ts, std::uint16_t token, unsigned stream)
{
    TraceEvent e;
    e.timestamp = ts;
    e.token = token;
    e.stream = stream;
    return e;
}

struct ChartFixture
{
    EventDictionary dict;
    std::vector<TraceEvent> events;

    ChartFixture()
    {
        dict.defineBegin(1, "Work Begin", "WORK");
        dict.defineBegin(2, "Wait Begin", "WAIT");
        dict.definePoint(3, "Ping");
        dict.nameStream(0, "MASTER");
        dict.nameStream(1, "SERVANT");
        events = {ev(0, 1, 0), ev(sim::milliseconds(50), 2, 0),
                  ev(sim::milliseconds(10), 1, 1),
                  ev(sim::milliseconds(90), 2, 1)};
    }
};

} // namespace

TEST(Gantt, RendersStreamAndStateRows)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    GanttChart chart(map, s.dict);
    const std::string out = chart.renderAll();
    EXPECT_NE(out.find("MASTER"), std::string::npos);
    EXPECT_NE(out.find("SERVANT"), std::string::npos);
    EXPECT_NE(out.find("WORK"), std::string::npos);
    EXPECT_NE(out.find("WAIT"), std::string::npos);
    EXPECT_NE(out.find("TIME"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Gantt, BarPositionsReflectTime)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    GanttChart chart(map, s.dict);
    GanttChart::Options opts;
    opts.width = 10; // 10 ms per bin over [0, 100 ms)
    const std::string out =
        chart.render(0, sim::milliseconds(100), opts);
    // MASTER WORK covers bins 0..4 (0-50 ms): the WORK row must start
    // filled and end empty.
    std::istringstream is(out);
    std::string line;
    std::string master_work;
    bool in_master = false;
    while (std::getline(is, line)) {
        if (line.find("MASTER") != std::string::npos)
            in_master = true;
        else if (line.find("SERVANT") != std::string::npos)
            in_master = false;
        if (in_master && line.find("WORK") != std::string::npos)
            master_work = line;
    }
    ASSERT_FALSE(master_work.empty());
    const auto bar_start = master_work.find('|') + 1;
    EXPECT_EQ(master_work[bar_start], '#');
    EXPECT_EQ(master_work[bar_start + 9], ' ');
}

TEST(Gantt, StreamFilterRestrictsOutput)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    GanttChart chart(map, s.dict);
    GanttChart::Options opts;
    opts.streams = {1};
    const std::string out = chart.renderAll(opts);
    EXPECT_EQ(out.find("MASTER"), std::string::npos);
    EXPECT_NE(out.find("SERVANT"), std::string::npos);
}

TEST(Gantt, MarkersShownOnRequest)
{
    ChartFixture s;
    s.events.push_back(ev(sim::milliseconds(20), 3, 0));
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    GanttChart chart(map, s.dict);
    GanttChart::Options opts;
    opts.showMarkers = true;
    const std::string out = chart.renderAll(opts);
    EXPECT_NE(out.find("Ping"), std::string::npos);
}

TEST(Gantt, EmptyWindowRendersNothing)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    GanttChart chart(map, s.dict);
    EXPECT_TRUE(chart.render(500, 500).empty());
}

// ----------------------------------------------------------------------
// Reports.
// ----------------------------------------------------------------------

TEST(Report, StateStatisticsContainsRowsAndShares)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    const std::string out = trace::stateStatisticsReport(
        map, s.dict, 0, sim::milliseconds(100));
    EXPECT_NE(out.find("MASTER"), std::string::npos);
    EXPECT_NE(out.find("WORK"), std::string::npos);
    EXPECT_NE(out.find("50.00%"), std::string::npos); // MASTER WORK
}

TEST(Report, EventsCsvResolvesNames)
{
    ChartFixture s;
    const std::string csv = trace::eventsCsv(s.events, s.dict);
    EXPECT_NE(csv.find("Work Begin"), std::string::npos);
    EXPECT_NE(csv.find("MASTER"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST(Report, DurationHistogramReportRenders)
{
    ChartFixture s;
    const auto map =
        ActivityMap::build(s.events, s.dict, sim::milliseconds(100));
    const std::string out = trace::durationHistogramReport(
        map, s.dict, 0, "WORK", 8);
    EXPECT_NE(out.find("MASTER / WORK"), std::string::npos);
    EXPECT_NE(out.find("1 intervals"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}
