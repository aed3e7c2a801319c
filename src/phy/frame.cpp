#include "phy/frame.h"

#include "phy/pilot.h"
#include "util/crc.h"
#include "util/obs.h"

namespace anc::phy {

// Every field is a word splice: the pilot and header are whole words, an
// MSB-first field's packed form is its value bit-reversed, and a mirrored
// field is the packed form reversed again.

void build_frame(const Frame_header& header, const Bits& payload, Bits& frame)
{
    const std::uint64_t pilot = pilot_sequence().data()[0];
    const std::uint64_t header_word = encode_header(header);
    const std::uint32_t crc = crc32(payload);
    frame.clear();
    frame.reserve(frame_length(payload.size()));
    frame.append(pilot, 64);
    frame.append(header_word, 64);
    frame.append(reverse_bits(crc, 32), 32);
    frame.append(payload);
    frame.append(crc, 32);
    frame.append(reverse_bits(header_word), 64);
    frame.append(reverse_bits(pilot), 64);
}

std::optional<Parsed_frame> parse_frame_at(const Bits& bits, std::size_t pilot_pos)
{
    const std::size_t header_pos = pilot_pos + pilot_length;
    if (header_pos + header_length + crc_length > bits.size())
        return std::nullopt;
    const auto header = decode_header(bits, header_pos);
    if (!header)
        return std::nullopt;

    const std::size_t crc_pos = header_pos + header_length;
    const std::size_t payload_pos = crc_pos + crc_length;
    if (payload_pos + header->payload_bits > bits.size())
        return std::nullopt;

    Parsed_frame parsed;
    parsed.header = *header;
    parsed.payload_pos = payload_pos;
    const auto crc_read = static_cast<std::uint32_t>(reverse_bits(bits.extract(crc_pos, 32), 32));
    parsed.crc_ok = crc32(bits.data(), payload_pos, header->payload_bits) == crc_read;
    obs::count(parsed.crc_ok ? obs::Counter::crc_pass : obs::Counter::crc_fail);
    return parsed;
}

} // namespace anc::phy
