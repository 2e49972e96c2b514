#include "event_code.hh"

namespace supmon
{
namespace hybrid
{

std::array<std::uint8_t, 2 * pairsPerEvent>
encodePatternSequence(std::uint16_t token, std::uint32_t param)
{
    const std::uint64_t data = pack48(token, param);
    std::array<std::uint8_t, 2 * pairsPerEvent> seq;
    // m_0 carries the most significant 3 bits.
    for (unsigned i = 0; i < pairsPerEvent; ++i) {
        const unsigned shift = (pairsPerEvent - 1 - i) * bitsPerPattern;
        seq[2 * i] = triggerPattern;
        seq[2 * i + 1] =
            static_cast<std::uint8_t>((data >> shift) & 0x7u);
    }
    return seq;
}

std::optional<EventData>
PatternDecoder::feed(std::uint8_t pattern)
{
    switch (state) {
      case State::Idle:
        if (pattern == triggerPattern) {
            state = State::ExpectData;
            return std::nullopt;
        }
        if (pairsDone != 0) {
            // Mid-event we expected the next triggerword; anything
            // else aborts the event.
            ++errors;
            pairsDone = 0;
            acc = 0;
        }
        ++stray;
        return std::nullopt;

      case State::ExpectData:
        if (pattern == triggerPattern) {
            // T followed by T violates the protocol: abort and treat
            // the second T as the start of a new event.
            ++errors;
            pairsDone = 0;
            acc = 0;
            return std::nullopt;
        }
        if (pattern >= (1u << bitsPerPattern)) {
            // Patterns 8..14 cannot be data: abort the event.
            ++errors;
            ++stray;
            pairsDone = 0;
            acc = 0;
            state = State::Idle;
            return std::nullopt;
        }
        acc = (acc << bitsPerPattern) | pattern;
        ++pairsDone;
        state = State::Idle;
        if (pairsDone == pairsPerEvent) {
            ++assembled;
            pairsDone = 0;
            const std::uint64_t data = acc;
            acc = 0;
            return unpack48(data);
        }
        return std::nullopt;
    }
    return std::nullopt;
}

} // namespace hybrid
} // namespace supmon
