/**
 * @file
 * The cluster diagnosis node.
 *
 * "Finally, there is one cluster diagnosis node which monitors the
 * clusterbus and maintains statistical records. Only communication
 * activities can be monitored by the diagnosis node." (paper, 2.1)
 *
 * This is the built-in, profiling-style monitoring facility of the
 * machine: it can tell *how much* communication happened, but not
 * *why* a program behaves the way it does. The reproduction keeps it
 * as the comparator for the hybrid monitoring approach (see
 * bench_ablation_intrusion and the quickstart example).
 */

#ifndef SUPRENUM_DIAGNOSIS_HH
#define SUPRENUM_DIAGNOSIS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "sim/stats.hh"
#include "suprenum/bus.hh"

namespace supmon
{
namespace suprenum
{

class DiagnosisNode
{
  public:
    void
    observe(const BusTransfer &t)
    {
        ++total.transfers;
        total.bytes += t.bytes;
        total.busBusy += t.end - t.start;
        transferSize.push(static_cast<double>(t.bytes));
        auto key = std::make_pair(flatOf(t.src), flatOf(t.dst));
        auto &edge = matrix[key];
        ++edge.transfers;
        edge.bytes += t.bytes;
        edge.busBusy += t.end - t.start;
    }

    struct Counters
    {
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        sim::Tick busBusy = 0;
    };

    const Counters &
    totals() const
    {
        return total;
    }

    /** Per (src,dst) traffic matrix, keys are flat node numbers. */
    const std::map<std::pair<unsigned, unsigned>, Counters> &
    trafficMatrix() const
    {
        return matrix;
    }

    /** Render the statistical record as a short report. */
    std::string report() const;

  private:
    static unsigned
    flatOf(NodeId id)
    {
        return static_cast<unsigned>(id.cluster) * 64u + id.node;
    }

    Counters total;
    std::map<std::pair<unsigned, unsigned>, Counters> matrix;
    sim::SummaryStat transferSize;
};

} // namespace suprenum
} // namespace supmon

#endif // SUPRENUM_DIAGNOSIS_HH
