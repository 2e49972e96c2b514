/**
 * @file
 * Backpressure policies of the live ingestion service.
 *
 * Every LiveSession owns a bounded delivery buffer between its SPSC
 * ring and its sink — the service-scale reproduction of the ZM4
 * FIFO/drain-rate model (a recorder FIFO that fills faster than the
 * monitor agent drains it must either stall the probe or lose
 * events). The policy decides what happens when the buffer is full:
 *
 *  - Block:      stop draining the ring; the ring fills and the
 *                producer stalls in publish(). Lossless — the
 *                delivered stream is byte-identical to the batch
 *                trace the same run would write.
 *  - ShedNewest: discard the incoming (newest) events; everything
 *                already buffered survives.
 *  - ShedOldest: evict from the front of the buffer (oldest events)
 *                to make room for the incoming ones.
 *
 * Both shedding policies keep exact per-stream drop counts and emit
 * them as first-class accounting tokens (live/tokens.hh) when the
 * session drains, so the validator can prove conservation:
 * delivered + dropped == produced, per stream.
 */

#ifndef LIVE_BACKPRESSURE_HH
#define LIVE_BACKPRESSURE_HH

#include <string>

namespace supmon
{
namespace live
{

enum class Backpressure
{
    Block,
    ShedNewest,
    ShedOldest,
};

/** Parse a policy name; false on anything unknown. */
inline bool
parseBackpressure(const std::string &name, Backpressure &policy)
{
    if (name == "block")
        policy = Backpressure::Block;
    else if (name == "shed-newest")
        policy = Backpressure::ShedNewest;
    else if (name == "shed-oldest")
        policy = Backpressure::ShedOldest;
    else
        return false;
    return true;
}

} // namespace live
} // namespace supmon

#endif // LIVE_BACKPRESSURE_HH
