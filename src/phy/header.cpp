#include "phy/header.h"

#include "util/crc.h"

namespace anc::phy {

namespace {

/// The CRC-16 of a header word's 48 field bits.
std::uint16_t body_crc(std::uint64_t word)
{
    const std::uint64_t words[2] = {word, 0};
    return crc16(words, 0, 48);
}

} // namespace

std::uint64_t encode_header(const Frame_header& header)
{
    const std::uint64_t body = reverse_bits(header.src, 8) | reverse_bits(header.dst, 8) << 8
                               | reverse_bits(header.seq, 16) << 16
                               | reverse_bits(header.payload_bits, 16) << 32;
    return body | reverse_bits(body_crc(body), 16) << 48;
}

std::optional<Frame_header> decode_header(std::uint64_t word)
{
    const auto field = [word](unsigned pos, unsigned width) {
        return reverse_bits(word >> pos, width);
    };
    if (body_crc(word) != field(48, 16))
        return std::nullopt;
    Frame_header header;
    header.src = static_cast<std::uint8_t>(field(0, 8));
    header.dst = static_cast<std::uint8_t>(field(8, 8));
    header.seq = static_cast<std::uint16_t>(field(16, 16));
    header.payload_bits = static_cast<std::uint16_t>(field(32, 16));
    return header;
}

std::optional<Frame_header> decode_header(const Bits& bits, std::size_t pos)
{
    if (pos + header_length > bits.size())
        return std::nullopt;
    return decode_header(bits.extract(pos));
}

} // namespace anc::phy
