#include "phy/modem.h"

#include "dsp/workspace.h"
#include "phy/pilot.h"
#include "util/obs.h"

namespace anc::phy {

Modem::Modem(Modem_config config)
    : config_{config}, scrambler_{config.scrambler_seed}
{
}

void Modem::frame_bits(const Frame_header& header, const Bits& payload, Bits& out) const
{
    auto whitened = dsp::Workspace::current().bits();
    *whitened = payload;
    scrambler_.apply(*whitened);
    build_frame(header, *whitened, out);
}

dsp::Signal Modem::modulate(const Bits& frame_bits, double initial_phase) const
{
    dsp::Signal signal;
    modulate_into(frame_bits, initial_phase, signal);
    return signal;
}

void Modem::modulate_into(const Bits& frame_bits, double initial_phase,
                          dsp::Signal& out) const
{
    const obs::Stage_timer timer{obs::Stage::modulate};
    const dsp::Msk_modulator modulator{config_.amplitude, initial_phase,
                                       config_.math_profile};
    modulator.modulate_into(frame_bits, out);
}

dsp::Signal Modem::modulate_frame(const Frame_header& header, const Bits& payload,
                                  double initial_phase) const
{
    auto bits = dsp::Workspace::current().bits();
    frame_bits(header, payload, *bits);
    return modulate(*bits, initial_phase);
}

Bits Modem::demodulate_bits(dsp::Signal_view signal) const
{
    Bits bits;
    demodulate_bits_into(signal, bits);
    return bits;
}

void Modem::demodulate_bits_into(dsp::Signal_view signal, Bits& out) const
{
    const obs::Stage_timer timer{obs::Stage::demodulate};
    demodulator_.demodulate_into(signal, out);
}

void Modem::descramble(Bits& payload) const
{
    scrambler_.apply(payload);
}

std::optional<Received_frame> Modem::receive(dsp::Signal_view signal) const
{
    auto bits = dsp::Workspace::current().bits();
    demodulate_bits_into(signal, *bits);
    return receive_bits(*bits);
}

std::optional<Received_frame> Modem::receive_bits(const Bits& bits) const
{
    const auto match = find_pilot(bits, config_.pilot_max_errors);
    if (!match)
        return std::nullopt;
    const auto parsed = parse_frame_at(bits, match->position);
    if (!parsed || !parsed->crc_ok)
        return std::nullopt;

    Received_frame frame;
    frame.header = parsed->header;
    frame.payload.assign(bits, parsed->payload_pos, parsed->header.payload_bits);
    descramble(frame.payload);
    frame.pilot_errors = match->errors;
    frame.pilot_position = match->position;
    return frame;
}

} // namespace anc::phy
