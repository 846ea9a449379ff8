// The sim workloads' scenario specs, shared by the benchmark and its
// self-test so both run exactly the same deployment.
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario.hpp"

namespace perfbench {

/// Whether `workload` runs on the deterministic simulation.
[[nodiscard]] bool is_sim_workload(const std::string& workload);

/// Loads the workload's checked-in scenario (paths relative to the
/// checkout root), draws its dataset from `seed`, pins the grid
/// to one worker thread and, for flat_gossip_64, keeps only the flat
/// point (cluster_size 0). Throws on an unknown workload or a bad spec.
[[nodiscard]] bcfl::core::ScenarioSpec load_sim_spec(
    const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
