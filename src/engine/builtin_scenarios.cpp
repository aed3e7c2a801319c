// The builtin scenarios: one table row per (name, topology, fading).
//
// Every row runs sim::run over a net::Topology value; the result's named
// series and scalars pass straight through to the engine.
//
// The *_fading variants run the same topologies over Rayleigh
// block-fading links (Rahimian et al., PAPERS.md): every link gain is
// multiplied by an independent CN(0,1) coefficient per coherence block,
// with the grid's coherence_block / mean_link_gain axes mapped onto the
// channel substrate.  Fading seeds flow from the scenario seed, so
// scheme-collapsed tasks still share channel realizations.

#include <memory>

#include "engine/scenario.h"
#include "sim/simulator.h"

namespace anc::engine {

namespace {

struct Builtin {
    const char* name;
    const net::Topology& (*topology)();
    bool fading;
};

constexpr Builtin builtins[] = {
    {"alice_bob", net::alice_bob, false},
    {"x_topology", net::x_topology, false},
    {"chain", net::chain, false},
    {"alice_bob_fading", net::alice_bob, true},
    {"x_topology_fading", net::x_topology, true},
};

Scenario_result run_builtin(const Builtin& row, const Scenario_config& config,
                            std::uint64_t seed)
{
    sim::Sim_config sim_config;
    sim_config.payload_bits = config.payload_bits;
    sim_config.exchanges = config.exchanges;
    sim_config.snr_db = config.snr_db;
    sim_config.alice_amplitude = config.alice_amplitude;
    sim_config.bob_amplitude = config.bob_amplitude;
    sim_config.receiver = config.receiver;
    sim_config.math_profile = config.math_profile;
    sim_config.seed = seed;
    if (!row.fading)
        return sim::run(row.topology(), config.scheme, sim_config);
    sim_config.fading = {chan::Gain_model::rayleigh_block, config.coherence_block,
                         config.mean_link_gain};
    return sim::run(row.topology(), config.scheme, sim_config);
}

} // namespace

void register_builtin_scenarios(Scenario_registry& registry)
{
    for (const Builtin& row : builtins) {
        registry.add(std::make_unique<Function_scenario>(
            row.name, sim::schemes(row.topology()),
            [&row](const Scenario_config& config, std::uint64_t seed) {
                return run_builtin(row, config, seed);
            }));
    }
}

} // namespace anc::engine
