/**
 * @file
 * Textual and CSV reports over an activity map: per-state duration
 * statistics, utilization tables, and trace export. Together with
 * GanttChart this covers the SIMPLE-style statistical analysis and
 * visualization used in the paper's evaluation.
 */

#ifndef TRACE_REPORT_HH
#define TRACE_REPORT_HH

#include <string>

#include "trace/activity.hh"
#include "trace/dictionary.hh"

namespace supmon
{
namespace trace
{

/**
 * Per (stream, state) table: count, total time, mean/min/max
 * duration, and share of the window [t0, t1).
 */
std::string stateStatisticsReport(const ActivityMap &map,
                                  const EventDictionary &dict,
                                  sim::Tick t0, sim::Tick t1);

/**
 * Quote @p field for CSV if needed (RFC 4180: fields containing a
 * comma, quote, or newline are wrapped in quotes, embedded quotes
 * doubled). Plain fields pass through unchanged.
 */
std::string csvField(const std::string &field);

/** CSV with one row per event. */
std::string eventsCsv(const std::vector<TraceEvent> &events,
                      const EventDictionary &dict);

/**
 * ASCII histogram of the durations of @p state on @p stream
 * (SIMPLE-style distribution plot).
 */
std::string durationHistogramReport(const ActivityMap &map,
                                    const EventDictionary &dict,
                                    unsigned stream,
                                    const std::string &state,
                                    std::size_t bins = 16);

} // namespace trace
} // namespace supmon

#endif // TRACE_REPORT_HH
