#include "net/cope.h"

#include <algorithm>

namespace anc::net {

namespace {

/// Word k of a packed sequence, zero past its end (the zero padding of
/// the shorter payload).
std::uint64_t word_or_zero(const Bits& bits, std::size_t k)
{
    return k < bits.word_count() ? bits.data()[k] : 0;
}

} // namespace

Bits cope_encode(const Packet& a, const Packet& b)
{
    const std::size_t body = std::max(a.payload.size(), b.payload.size());
    Bits out;
    out.reserve(2 * phy::header_length + body);
    out.append(phy::encode_header(header_for(a)), 64);
    out.append(phy::encode_header(header_for(b)), 64);
    for (std::size_t i = 0; i < body; i += 64)
        out.append(word_or_zero(a.payload, i / 64) ^ word_or_zero(b.payload, i / 64),
                   static_cast<unsigned>(std::min<std::size_t>(64, body - i)));
    return out;
}

std::optional<Cope_coded> cope_parse(const Bits& payload)
{
    if (payload.size() < 2 * phy::header_length)
        return std::nullopt;
    const auto first = phy::decode_header(payload, 0);
    const auto second = phy::decode_header(payload, phy::header_length);
    if (!first || !second)
        return std::nullopt;

    const std::size_t body = payload.size() - 2 * phy::header_length;
    if (body != std::max<std::size_t>(first->payload_bits, second->payload_bits))
        return std::nullopt;

    Cope_coded coded;
    coded.first = *first;
    coded.second = *second;
    coded.xored.assign(payload, 2 * phy::header_length, body);
    return coded;
}

namespace {

bool same_identity(const phy::Frame_header& x, const phy::Frame_header& y)
{
    return x.src == y.src && x.dst == y.dst && x.seq == y.seq;
}

} // namespace

std::optional<Packet> cope_decode(const Cope_coded& coded,
                                  const phy::Frame_header& known_header,
                                  const Bits& known_payload)
{
    const phy::Frame_header* wanted = nullptr;
    if (same_identity(known_header, coded.first))
        wanted = &coded.second;
    else if (same_identity(known_header, coded.second))
        wanted = &coded.first;
    else
        return std::nullopt;

    Packet packet;
    packet.src = wanted->src;
    packet.dst = wanted->dst;
    packet.seq = wanted->seq;
    const std::size_t length = wanted->payload_bits;
    packet.payload.reserve(length);
    for (std::size_t i = 0; i < length; i += 64)
        packet.payload.append(word_or_zero(known_payload, i / 64) ^ word_or_zero(coded.xored, i / 64),
                              static_cast<unsigned>(std::min<std::size_t>(64, length - i)));
    return packet;
}

} // namespace anc::net
