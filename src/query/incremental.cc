#include "incremental.hh"

namespace supmon
{
namespace query
{

IncrementalEngine::IncrementalEngine(
    const Query &query, const trace::EventDictionary &dict,
    RowCallback on_rows, sim::Tick trace_end)
    : engine(query, dict, trace_end), onRows(std::move(on_rows))
{
    const bool fixedWindow =
        query.window && query.window->step == query.window->size;
    live = fixedWindow && (query.fold.kind == FoldKind::Count ||
                           query.fold.kind == FoldKind::Utilization);
}

void
IncrementalEngine::onEvent(const trace::TraceEvent &ev)
{
    if (engine.onEvent(ev) && live && onRows)
        engine.sealWindowsBefore(ev.timestamp, onRows);
}

void
IncrementalEngine::onBatch(const trace::TraceEvent *events,
                           std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        onEvent(events[i]);
}

} // namespace query
} // namespace supmon
