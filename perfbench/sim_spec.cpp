#include "sim_spec.hpp"

#include <stdexcept>

namespace perfbench {

bool is_sim_workload(const std::string& workload) {
    return workload == "paper_tradeoff" || workload == "flat_gossip_64";
}

bcfl::core::ScenarioSpec load_sim_spec(const std::string& workload,
                                       std::uint64_t seed) {
    if (!is_sim_workload(workload)) {
        throw std::invalid_argument("not a sim workload: " + workload);
    }
    const bool flat = workload == "flat_gossip_64";
    bcfl::core::ScenarioSpec spec = bcfl::core::load_scenario_file(
        flat ? "scenarios/hierarchical_scale_64.json"
             : "scenarios/paper_tradeoff.json");
    if (spec.model != "simple") {
        throw std::invalid_argument(workload + ": expected the simple model");
    }
    // The seed draws the dataset (images, labels, client split). The
    // network and mining randomness keeps the scenario's own seed: it sets
    // how much gossip is in flight at once, and with it the flat point's
    // peak RSS (3.3 to 6.4 GB over three seeds), so varying it would
    // change the work a run measures.
    spec.data.seed = seed;
    spec.threads = 1;
    if (flat) {
        bool found = false;
        for (bcfl::core::SweepAxis& axis : spec.sweep) {
            if (axis.key != "cluster_size") continue;
            axis.values = {bcfl::core::JsonValue(0)};
            found = true;
        }
        if (!found) {
            throw std::invalid_argument(workload + ": no cluster_size axis");
        }
    }
    return spec;
}

}  // namespace perfbench
