#include "sharded.hh"

#include <algorithm>
#include <memory>

#include "parallel/pool.hh"
#include "query/engine.hh"
#include "query/folds.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

namespace
{

/**
 * Balanced split of @p n records into @p shards contiguous ranges:
 * the first n % shards ranges get one extra record.
 */
void
shardRange(std::uint64_t n, unsigned shards, unsigned s,
           std::uint64_t &lo, std::uint64_t &len)
{
    const std::uint64_t base = n / shards;
    const std::uint64_t extra = n % shards;
    lo = base * s + std::min<std::uint64_t>(s, extra);
    len = base + (s < extra ? 1 : 0);
}

/**
 * Run @p body(s) for shards 0..shards-1: inline when there is one
 * shard, otherwise on a leased (cached, reusable) worker pool — the
 * sharded paths never pay thread spawn/join per query once the
 * cached pool exists.
 */
template <typename Body>
void
runShardLoop(unsigned shards, const Body &body)
{
    if (shards <= 1) {
        for (unsigned s = 0; s < shards; ++s)
            body(s);
        return;
    }
    parallel::PoolLease lease(shards);
    parallel::forEachIndex(lease.pool(), shards, shards,
                           [&body](std::size_t s) { body(s); });
}

/** Absorb the partials in shard order, freeing each once absorbed. */
Table
mergePartials(const FoldSpec &spec, const FoldContext &ctx,
              std::vector<std::unique_ptr<ShardFold>> &partials)
{
    const auto merge = makeShardMerge(spec, ctx);
    for (auto &partial : partials) {
        merge->absorb(*partial);
        partial.reset();
    }
    return merge->finish();
}

} // namespace

Table
runQuerySharded(const std::vector<trace::TraceEvent> &events,
                const trace::EventDictionary &dict, const Query &query,
                unsigned jobs, sim::Tick trace_end,
                const FilterSpec *range)
{
    const std::uint64_t n = events.size();
    const unsigned shards = static_cast<unsigned>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(std::max(jobs, 1u), n ? n : 1)));
    const FoldContext ctx =
        makeFoldContext(query, dict, trace_end, range);
    std::vector<std::unique_ptr<ShardFold>> partials(shards);
    runShardLoop(shards, [&](std::size_t s) {
        // Each shard compiles its own filter chain (the chain
        // caches glob results, so it is stateful) and owns its
        // partial fold; nothing mutable is shared across shards
        // (the compiled StateTable in ctx is read-only).
        std::uint64_t lo = 0;
        std::uint64_t len = 0;
        shardRange(n, shards, static_cast<unsigned>(s), lo, len);
        FilterChain chain(query, dict);
        auto fold = makeShardFold(query.fold, ctx);
        fold->reserveHint(len);
        if (chain.empty()) {
            // No filter stages: feed the slice to the fold in one
            // virtual call per block, straight from the caller's
            // vector.
            fold->onBatch(events.data() + lo,
                          static_cast<std::size_t>(len));
        } else {
            // Filter into a scratch block (the shared input is
            // read-only), then batch-feed the survivors.
            std::vector<trace::TraceEvent> scratch(
                static_cast<std::size_t>(
                    std::min<std::uint64_t>(len, 4096)));
            std::size_t kept = 0;
            for (std::uint64_t i = lo; i < lo + len; ++i) {
                if (chain.accepts(events[i])) {
                    scratch[kept++] = events[i];
                    if (kept == scratch.size()) {
                        fold->onBatch(scratch.data(), kept);
                        kept = 0;
                    }
                }
            }
            if (kept)
                fold->onBatch(scratch.data(), kept);
        }
        partials[s] = std::move(fold);
    });
    return mergePartials(query.fold, ctx, partials);
}

bool
runQueryFileSharded(const std::string &path,
                    const trace::EventDictionary &dict,
                    const Query &query, unsigned jobs, Table &out,
                    std::string &error, sim::Tick trace_end,
                    std::uint64_t *seed_out)
{
    // Open (and validate: magic/version/count/record alignment) the
    // file once; every shard preads its record range from the shared
    // descriptor instead of re-opening and re-buffering the header.
    trace::SharedTraceFile file(path);
    if (!file.ok()) {
        error = file.error();
        return false;
    }
    if (seed_out)
        *seed_out = file.seed();
    const std::uint64_t n = file.recordCount();
    const unsigned shards = static_cast<unsigned>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(std::max(jobs, 1u), n ? n : 1)));
    const FoldContext ctx = makeFoldContext(query, dict, trace_end);
    std::vector<std::unique_ptr<ShardFold>> partials(shards);
    std::vector<std::string> shardErrors(shards);
    runShardLoop(shards, [&](std::size_t s) {
        std::uint64_t lo = 0;
        std::uint64_t len = 0;
        shardRange(n, shards, static_cast<unsigned>(s), lo, len);
        trace::TraceReader reader(file, lo, len);
        FilterChain chain(query, dict);
        auto fold = makeShardFold(query.fold, ctx);
        fold->reserveHint(len);
        std::vector<trace::TraceEvent> batch;
        const unsigned char *raw = nullptr;
        std::size_t got;
        while ((got = reader.nextRawBlock(raw)) != 0) {
            if (chain.empty()) {
                // No filter stages: the fold fuses the decode into
                // its own consume loop — records go straight from
                // the read buffer into the aggregation state.
                fold->onRawBatch(raw, got);
                continue;
            }
            // Batch filter stage, fused with the decode: rejected
            // records never reach the batch array, and the fold
            // takes the whole surviving block in one virtual call.
            if (batch.size() < got)
                batch.resize(got);
            const std::size_t kept =
                chain.filterDecodeBatch(raw, got, batch.data());
            fold->onBatch(batch.data(), kept);
        }
        if (!reader.error().empty()) {
            shardErrors[s] = reader.error();
            return;
        }
        partials[s] = std::move(fold);
    });
    // The lowest-numbered shard's error wins, so the message is
    // deterministic regardless of which worker failed first.
    for (const std::string &e : shardErrors) {
        if (!e.empty()) {
            error = e;
            return false;
        }
    }
    out = mergePartials(query.fold, ctx, partials);
    return true;
}

} // namespace query
} // namespace supmon
