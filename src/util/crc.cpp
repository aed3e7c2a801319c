#include "util/crc.h"

#include <array>

namespace anc {

namespace {

/// A reflected CRC: the register shifts right and each bit enters at the
/// bottom, so a packed word's bytes, low byte first, are its bits in
/// sequence order.  The MSB-first CRC-16 is the same computation on the
/// bit-reversed register (its poly reversed, 0x1021 -> 0x8408), reversed
/// back at the end.  Whole words run slice-by-8: table k folds a byte
/// followed by k zero bytes, so the eight lookups of a word are
/// independent.  Both the byte and slice steps are the textbook
/// identities of polynomial division, so the result equals the bit loop
/// exactly (tests/util/crc_test.cpp pins it against bit-serial
/// references).
template <class Reg, Reg poly>
struct Reflected_crc {
    static constexpr auto tables = [] {
        std::array<std::array<Reg, 256>, 8> t{};
        for (unsigned byte = 0; byte < 256; ++byte) {
            Reg crc = static_cast<Reg>(byte);
            for (int k = 0; k < 8; ++k)
                crc = static_cast<Reg>((crc >> 1u) ^ (poly & (0u - (crc & 1u))));
            t[0][byte] = crc;
        }
        for (std::size_t k = 1; k < 8; ++k)
            for (unsigned byte = 0; byte < 256; ++byte)
                t[k][byte] = static_cast<Reg>((t[k - 1][byte] >> 8u) ^ t[0][t[k - 1][byte] & 0xffu]);
        return t;
    }();

    static Reg run(Reg crc, const std::uint64_t* words, std::size_t pos, std::size_t count)
    {
        const auto at = [&](std::size_t i, unsigned width) {
            const std::uint64_t* w = words + ((pos + i) >> 6);
            const unsigned shift = (pos + i) & 63;
            const std::uint64_t v = shift ? (w[0] >> shift) | (w[1] << (64 - shift)) : w[0];
            return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
        };
        std::size_t i = 0;
        for (; i + 64 <= count; i += 64) {
            const std::uint64_t v = at(i, 64) ^ crc;
            Reg next = 0;
            for (unsigned k = 0; k < 8; ++k)
                next ^= tables[7 - k][(v >> (8 * k)) & 0xffu];
            crc = next;
        }
        for (; i + 8 <= count; i += 8)
            crc = static_cast<Reg>((crc >> 8u) ^ tables[0][(crc ^ at(i, 8)) & 0xffu]);
        for (; i < count; ++i) {
            crc = static_cast<Reg>(crc ^ at(i, 1));
            crc = static_cast<Reg>((crc >> 1u) ^ (poly & (0u - (crc & 1u))));
        }
        return crc;
    }
};

} // namespace

std::uint32_t crc32(const std::uint64_t* words, std::size_t pos, std::size_t count)
{
    return ~Reflected_crc<std::uint32_t, 0xedb88320u>::run(0xffffffffu, words, pos, count);
}

std::uint16_t crc16(const std::uint64_t* words, std::size_t pos, std::size_t count)
{
    const std::uint16_t reflected =
        Reflected_crc<std::uint16_t, 0x8408u>::run(0xffffu, words, pos, count);
    return static_cast<std::uint16_t>(reverse_bits(reflected, 16));
}

} // namespace anc
