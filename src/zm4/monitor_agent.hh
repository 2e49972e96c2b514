/**
 * @file
 * The ZM4 monitor agent: a standard PC/AT hosting up to four event
 * recorder boards (DPUs). The FIFO contents of its recorders are
 * written onto its disk; the disk transfer rate limits the sustained
 * event rate to about 10000 events per second (shared between the
 * agent's recorders).
 */

#ifndef ZM4_MONITOR_AGENT_HH
#define ZM4_MONITOR_AGENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "zm4/event_recorder.hh"

namespace supmon
{
namespace zm4
{

class MonitorAgent
{
  public:
    explicit MonitorAgent(std::string agent_name,
                          std::uint64_t disk_events_per_sec = 10000)
        : name(std::move(agent_name)), diskRate(disk_events_per_sec)
    {
    }

    MonitorAgent(const MonitorAgent &) = delete;
    MonitorAgent &operator=(const MonitorAgent &) = delete;

    /** Register a recorder board; at most four fit into one PC/AT. */
    void attachRecorder(EventRecorder &recorder);

    /**
     * Reserve the next disk write slot no earlier than @p earliest.
     * @return completion time of the write.
     */
    sim::Tick
    reserveDiskSlot(sim::Tick earliest)
    {
        const sim::Tick per_event =
            sim::transferTime(1, diskRate) ? sim::transferTime(1, diskRate)
                                           : 1;
        const sim::Tick start = std::max(earliest, diskBusyUntil);
        diskBusyUntil = start + per_event;
        return diskBusyUntil;
    }

    /** A drained record lands in the local trace on the MA's disk. */
    void
    store(RawRecord rec)
    {
        traces[rec.recorderId].push_back(rec);
        ++stored;
    }

    /** Local trace of one recorder, in capture order. */
    const std::vector<RawRecord> &
    localTrace(std::uint16_t recorder_id) const
    {
        static const std::vector<RawRecord> empty;
        auto it = traces.find(recorder_id);
        return it == traces.end() ? empty : it->second;
    }

    /** Ids of recorders with stored traces. */
    std::vector<std::uint16_t> recorderIds() const;

    std::uint64_t
    storedCount() const
    {
        return stored;
    }

    unsigned
    recorderCount() const
    {
        return attached;
    }

  private:
    std::string name;
    std::uint64_t diskRate;
    sim::Tick diskBusyUntil = 0;
    std::map<std::uint16_t, std::vector<RawRecord>> traces;
    std::uint64_t stored = 0;
    unsigned attached = 0;
};

} // namespace zm4
} // namespace supmon

#endif // ZM4_MONITOR_AGENT_HH
