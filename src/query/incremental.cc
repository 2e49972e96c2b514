#include "incremental.hh"

#include <algorithm>

namespace supmon
{
namespace query
{

IncrementalEngine::IncrementalEngine(
    const Query &query, const trace::EventDictionary &dict,
    RowCallback on_rows, sim::Tick trace_end)
    : spec(query.fold), context(makeFoldContext(query, dict, trace_end)),
      chain(query, dict), merge(makeShardMerge(spec, context)),
      onRows(std::move(on_rows))
{
    const bool fixedWindow =
        query.window && query.window->step == query.window->size;
    live = fixedWindow && (query.fold.kind == FoldKind::Count ||
                           query.fold.kind == FoldKind::Utilization);
}

void
IncrementalEngine::onBatch(const trace::TraceEvent *events,
                           std::size_t n)
{
    accepted.assign(events, events + n);
    const std::size_t kept =
        chain.filterBatch(accepted.data(), accepted.size());
    if (kept == 0)
        return;
    const auto shard = makeShardFold(spec, context);
    shard->reserveHint(kept);
    shard->onBatch(accepted.data(), kept);
    merge->absorb(*shard);
    if (live && onRows) {
        const auto latest = std::max_element(
            accepted.begin(), accepted.begin() + kept,
            [](const trace::TraceEvent &a, const trace::TraceEvent &b) {
                return a.timestamp < b.timestamp;
            });
        merge->sealWindowsBefore(latest->timestamp, onRows);
    }
}

} // namespace query
} // namespace supmon
