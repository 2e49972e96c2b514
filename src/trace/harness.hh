/**
 * @file
 * The complete ZM4 installation around a simulated SUPRENUM, in one
 * object: probes/interfaces on the monitored nodes' seven segment
 * displays, event recorders (one per four nodes), monitor agents (one
 * per four recorders), the measure tick generator and the control and
 * evaluation computer.
 *
 * This is the top-level convenience API: instrumented programs call
 * hybrid_mon (hybrid::Instrumentor); the harness records everything
 * and harvest() returns the merged, evaluation-ready global trace.
 *
 * @code
 * sim::Simulation simul;
 * suprenum::Machine machine(simul, params);
 * trace::MonitoringHarness zm4(machine, num_nodes);
 * zm4.startMeasurement();
 * ... spawn instrumented processes, machine.runToCompletion() ...
 * auto events = zm4.harvest();
 * @endcode
 */

#ifndef TRACE_HARNESS_HH
#define TRACE_HARNESS_HH

#include <functional>
#include <memory>
#include <vector>

#include "hybrid/interface.hh"
#include "suprenum/machine.hh"
#include "trace/event.hh"
#include "zm4/cec.hh"
#include "zm4/event_recorder.hh"
#include "zm4/monitor_agent.hh"
#include "zm4/mtg.hh"

namespace supmon
{
namespace trace
{

class MonitoringHarness
{
  public:
    /**
     * Attach DPUs to the first @p monitored_nodes processing nodes of
     * @p machine (flat indexing). The machine must outlive the
     * harness. Call startMeasurement() to synchronize the recorder
     * clocks before the run; skip it (and use configureSkew) to study
     * unsynchronized clocks.
     */
    MonitoringHarness(suprenum::Machine &machine,
                      unsigned monitored_nodes,
                      zm4::RecorderParams recorder_params = {});

    MonitoringHarness(const MonitoringHarness &) = delete;
    MonitoringHarness &operator=(const MonitoringHarness &) = delete;

    /** Start the global clock: all recorder clocks synchronized and
     *  kept skew-free by the measure tick generator. */
    void
    startMeasurement()
    {
        mtg.startMeasurement();
    }

    /** Configure a recorder's local clock (for skew experiments). */
    void configureSkew(unsigned recorder_index,
                       sim::TickDelta offset_ns, double drift_ppm);

    /**
     * Collect the local traces from the monitor agents, merge them on
     * the CEC, and convert to evaluation events.
     * @param stream_of optional custom stream mapping; the default
     *        numbers streams by monitored node index.
     */
    std::vector<TraceEvent> harvest(
        const std::function<unsigned(const zm4::RawRecord &)>
            &stream_of = {}) const;

    /** @{ component access */
    unsigned
    recorderCount() const
    {
        return static_cast<unsigned>(recorders.size());
    }

    zm4::EventRecorder &
    recorder(unsigned index)
    {
        return *recorders.at(index);
    }

    /** @} */

    /** @{ capture statistics over all recorders / interfaces */
    std::uint64_t eventsRecorded() const;
    std::uint64_t eventsLost() const;
    std::uint64_t protocolErrors() const;
    /** @} */

    /** Channels per recorder (stream = node = recorder*4+channel). */
    static constexpr unsigned channelsPerRecorder = 4;

  private:
    std::vector<std::unique_ptr<zm4::MonitorAgent>> agents;
    std::vector<std::unique_ptr<zm4::EventRecorder>> recorders;
    std::vector<std::unique_ptr<hybrid::SuprenumInterface>> interfaces;
    zm4::MeasureTickGenerator mtg;
    zm4::ControlEvaluationComputer cec;
};

} // namespace trace
} // namespace supmon

#endif // TRACE_HARNESS_HH
