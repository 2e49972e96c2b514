/**
 * @file
 * The 48-bit measurement event encoding of the SUPRENUM/ZM4 interface
 * (paper, section 3.2).
 *
 * An event consists of a 16-bit token identifying the event and a
 * 32-bit parameter with additional information. Since the seven
 * segment display can show only 16 different patterns, the 48 bits
 * are output as a sequence of 16 pairs
 *
 *     T m_0  T m_1  ...  T m_15
 *
 * where T is a reserved triggerword pattern and each m_i encodes 3
 * bits of the original data (m_0 carries the most significant bits).
 * Two essential conditions (quoted from the paper) are modelled:
 *
 *  - the triggerword T must be reserved for this application;
 *  - the output of a pair (T, m_i) must be an atomic action.
 *
 * Atomicity holds by construction in the reproduction, because
 * hybrid_mon runs non-preemptively and firmware writes are suppressed
 * while the display is reserved; the decoder nevertheless detects and
 * counts protocol violations so the conditions can be tested.
 */

#ifndef HYBRID_EVENT_CODE_HH
#define HYBRID_EVENT_CODE_HH

#include <array>
#include <cstdint>
#include <optional>

namespace supmon
{
namespace hybrid
{

/** The reserved triggerword pattern index (displayed as 'F'). */
constexpr std::uint8_t triggerPattern = 0x0f;

/** Bits carried per data pattern. */
constexpr unsigned bitsPerPattern = 3;

/** Number of (T, m_i) pairs per event: 48 / 3. */
constexpr unsigned pairsPerEvent = 16;

/** A decoded measurement event. */
struct EventData
{
    /** 16-bit token defining the event. */
    std::uint16_t token = 0;
    /** 32-bit parameter with additional information. */
    std::uint32_t param = 0;

    friend bool
    operator==(const EventData &a, const EventData &b)
    {
        return a.token == b.token && a.param == b.param;
    }
};

/** Pack token and parameter into the 48-bit wire representation. */
constexpr std::uint64_t
pack48(std::uint16_t token, std::uint32_t param)
{
    return (static_cast<std::uint64_t>(token) << 32) | param;
}

/** Split the 48-bit wire representation. */
constexpr EventData
unpack48(std::uint64_t data)
{
    return EventData{static_cast<std::uint16_t>(data >> 32),
                     static_cast<std::uint32_t>(data & 0xffffffffull)};
}

/**
 * Encode an event as the display pattern sequence
 * T m_0 T m_1 ... T m_15 (32 pattern indices).
 */
std::array<std::uint8_t, 2 * pairsPerEvent>
encodePatternSequence(std::uint16_t token, std::uint32_t param);

/**
 * The recognition state machine of the interface's event detector
 * ("realized as a state machine in programmable logic"). Feed it the
 * pattern stream observed on the display; it reconstructs 48-bit
 * events and counts protocol violations.
 */
class PatternDecoder
{
  public:
    /**
     * Process one observed pattern.
     * @return a complete event once the 16th pair is seen.
     */
    std::optional<EventData> feed(std::uint8_t pattern);

    /** Patterns seen outside an event (e.g. firmware noise). */
    std::uint64_t
    strayPatterns() const
    {
        return stray;
    }

    /** Events aborted by protocol violations. */
    std::uint64_t
    protocolErrors() const
    {
        return errors;
    }

    /** Events successfully assembled. */
    std::uint64_t
    eventsAssembled() const
    {
        return assembled;
    }

    /** True while in the middle of assembling an event. */
    bool
    busy() const
    {
        return state != State::Idle || pairsDone != 0;
    }

    /** Drop any partially assembled event. */
    void
    reset()
    {
        state = State::Idle;
        pairsDone = 0;
        acc = 0;
    }

  private:
    enum class State
    {
        /** Waiting for a triggerword. */
        Idle,
        /** Triggerword seen; the next pattern carries 3 data bits. */
        ExpectData,
    };

    State state = State::Idle;
    unsigned pairsDone = 0;
    std::uint64_t acc = 0;
    std::uint64_t stray = 0;
    std::uint64_t errors = 0;
    std::uint64_t assembled = 0;
};

} // namespace hybrid
} // namespace supmon

#endif // HYBRID_EVENT_CODE_HH
