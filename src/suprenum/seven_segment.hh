/**
 * @file
 * The seven segment display on a SUPRENUM processing node's front
 * cover.
 *
 * The display is driven from a gate array on the node board and can
 * show 16 different patterns; under normal operating conditions it
 * displays the internal state of the communication firmware. The
 * hybrid monitoring interface (paper, section 3.2) re-purposes it as a
 * 4-bit-wide measurement output port: the ZM4 probes are plugged into
 * the display socket.
 *
 * We model the electrical interface faithfully: a write stores a
 * 4-bit pattern index, the gate array drives the corresponding
 * 7-segment glyph (segment bitmask), and an attached probe observes
 * every glyph change with its time stamp.
 */

#ifndef SUPRENUM_SEVEN_SEGMENT_HH
#define SUPRENUM_SEVEN_SEGMENT_HH

#include <array>
#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace supmon
{
namespace suprenum
{

/**
 * Glyph (segment bitmask, bits 0..6 = segments a..g) shown for each of
 * the 16 pattern indices: the standard hexadecimal 7-segment font.
 */
constexpr std::uint8_t sevenSegmentFont[16] = {
    0x3f, // 0
    0x06, // 1
    0x5b, // 2
    0x4f, // 3
    0x66, // 4
    0x6d, // 5
    0x7d, // 6
    0x07, // 7
    0x7f, // 8
    0x6f, // 9
    0x77, // A
    0x7c, // b
    0x39, // C
    0x5e, // d
    0x79, // E
    0x71, // F
};

/**
 * The pattern indices of one hybrid_mon() event in display order:
 * T m_0 T m_1 ... T m_15 (paper, section 3.2).
 */
using DisplaySequence = std::array<std::uint8_t, 32>;

/** Map a glyph bitmask back to its pattern index; 0xff if unknown. */
std::uint8_t sevenSegmentPatternOf(std::uint8_t glyph);

class SevenSegmentDisplay
{
  public:
    /** Callback invoked for every glyph driven onto the display. */
    using Observer =
        std::function<void(std::uint8_t glyph, sim::Tick when)>;

    /**
     * Write a 4-bit pattern index to the display.
     * @param pattern index 0..15 into the glyph font.
     * @param when current simulated time.
     * @param firmware true if this write comes from the communication
     *        firmware rather than from the hybrid_mon routine.
     *        Firmware writes are suppressed while the display is
     *        reserved for monitoring.
     */
    void write(std::uint8_t pattern, sim::Tick when,
               bool firmware = false);

    /** Currently displayed glyph bitmask. */
    std::uint8_t
    glyph() const
    {
        return curGlyph;
    }

    /** Attach the ZM4 probe. */
    void
    attachObserver(Observer obs)
    {
        observer = std::move(obs);
    }

    /**
     * Reserve the display for monitoring: firmware writes are dropped,
     * because the triggerword pattern must stay reserved and (T, m_i)
     * pairs must be atomic (paper, section 3.2).
     */
    void
    reserveForMonitoring(bool reserved)
    {
        monitoringReserved = reserved;
    }

    bool
    reservedForMonitoring() const
    {
        return monitoringReserved;
    }

    /** Number of firmware writes suppressed by the reservation. */
    std::uint64_t
    suppressedFirmwareWrites() const
    {
        return suppressed;
    }

  private:
    Observer observer;
    std::uint8_t curGlyph = 0;
    bool monitoringReserved = false;
    std::uint64_t suppressed = 0;
};

} // namespace suprenum
} // namespace supmon

#endif // SUPRENUM_SEVEN_SEGMENT_HH
