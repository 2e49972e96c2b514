/**
 * @file
 * Sharded query execution, the one query executor: split a trace
 * into contiguous per-thread record ranges, run the filter chain and
 * a per-shard partial fold over each range concurrently, then absorb
 * the partials in shard order into one query::ShardMerge, which
 * builds the table. runQuery(), runPhaseQuery() and runQueryFile()
 * are its one-shard runs.
 *
 * The table does not depend on the shard count — the same doubles,
 * not approximately equal, for any @p jobs (see query::ShardMerge
 * for how). The cross-check tests (tests/query/test_crosscheck.cpp,
 * tests/parallel/test_sharded_query.cpp,
 * tests/parallel/test_property_sharded.cpp) lock this contract, and
 * test_property_sharded also checks the one-shard tables against
 * independent oracles (trace::ActivityMap, a direct count map).
 */

#ifndef QUERY_SHARDED_HH
#define QUERY_SHARDED_HH

#include <string>
#include <vector>

#include "query/query.hh"
#include "query/table.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace query
{

/**
 * Run @p query over an in-memory trace on up to @p jobs threads.
 * Result is bit-exact with runQuery() for any @p jobs >= 1.
 * @param range optional evaluation range of the folds that is not a
 *        filter (see runPhaseQuery).
 */
Table runQuerySharded(const std::vector<trace::TraceEvent> &events,
                      const trace::EventDictionary &dict,
                      const Query &query, unsigned jobs,
                      sim::Tick trace_end = 0,
                      const FilterSpec *range = nullptr);

/**
 * Run @p query over a saved trace file on up to @p jobs threads, each
 * shard streaming its own contiguous record range through its own
 * trace::TraceReader. Result is bit-exact with runQueryFile() for any
 * @p jobs >= 1.
 * @return false with @p error set if the file is unreadable or
 *         truncated (the lowest-numbered failing shard's error wins).
 * @param seed_out when non-null, receives the run seed recorded in
 *        the trace header (0 for version-1 files) once the header
 *        has validated — the reproducibility handle tracequery's
 *        JSON output surfaces next to the results.
 */
bool runQueryFileSharded(const std::string &path,
                         const trace::EventDictionary &dict,
                         const Query &query, unsigned jobs, Table &out,
                         std::string &error, sim::Tick trace_end = 0,
                         std::uint64_t *seed_out = nullptr);

} // namespace query
} // namespace supmon

#endif // QUERY_SHARDED_HH
