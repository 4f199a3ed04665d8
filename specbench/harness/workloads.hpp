// The benchmark's four workloads, built only from the simulator's public
// entry points (nbody::run_scenario, runtime::sweep_map).
//
// A workload is a list of simulation cells; one "unit" (the thing
// wall_s/cpu_s time) is one pass over every cell, one simulation at a time.  Every input — initial conditions, network jitter draws, fault
// decisions — derives from the workload seed, so one seed is one input set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nbody/scenario.hpp"
#include "nbody/types.hpp"

namespace specbench {

enum class Workload { Fig8Grid, WideP64, KernelN16k, SpikyFaults };

/// Every workload, in the order `--workload all` runs them.
const std::vector<Workload>& all_workloads();
std::string_view workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

struct Cell {
  std::string label;
  specomp::nbody::NBodyScenario scenario;
};

struct WorkloadSetup {
  Workload workload;
  std::uint64_t seed = 0;
  std::vector<Cell> cells;
  /// Sweep lanes (sweep_map --jobs) of the jobs=nproc check that follows
  /// the timed units; the timed units themselves run one simulation at a
  /// time.
  int lanes = 1;
  /// Largest final-position deviation from nbody::run_serial any cell may
  /// show.  Accepted speculation (error <= theta) and summation order make
  /// the parallel trajectories differ from the serial one; this bounds how
  /// far, at several times the largest deviation seen over many seeds.
  double pos_err_tolerance = 0.0;
};

/// Default seed (the paper testbed's fixed initial-condition seed) and the
/// held-out seed used to confirm a claim on inputs not seen while tuning.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 1994;

/// Host CPUs; fig8-grid's sweep check runs this many lanes.
int host_lanes();

WorkloadSetup make_workload(Workload w, std::uint64_t seed);

}  // namespace specbench
