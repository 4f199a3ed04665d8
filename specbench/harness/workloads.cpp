#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/latency.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault.hpp"

namespace specbench {

namespace {

using namespace specomp;

// Iterations per simulation.  Sized so one unit takes a few host seconds and
// a run of --seconds holds several units to take a median over.
constexpr long kFig8Iterations = 50;
constexpr long kWideIterations = 8;
constexpr long kKernelIterations = 10;
constexpr long kSpikyIterations = 200;
// wide-p64 simulations per unit, from derived seeds (see make_workload).
constexpr std::size_t kWideReplicas = 4;

/// SplitMix64: derives the independent channel and fault seeds from the
/// workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t channel_seed(std::uint64_t seed) { return mix(seed); }
/// Seed of replica i of a workload's cell; replica 0 keeps the workload seed.
std::uint64_t replica_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : mix(seed ^ mix(i));
}
std::uint64_t fault_seed(std::uint64_t seed) { return mix(mix(seed)); }

nbody::NBodyScenario testbed(std::size_t p, long iterations,
                             std::uint64_t seed) {
  nbody::NBodyScenario s =
      nbody::paper_testbed_scenario(p, iterations, channel_seed(seed));
  s.body.seed = seed;
  return s;
}

// The paper's Figure-8 grid: the serial cell plus p x {Fig-7 baseline,
// FW=1, FW=2} on the calibrated shared-medium testbed (as bench_sweep).
std::vector<Cell> fig8_cells(std::uint64_t seed) {
  constexpr std::array<std::size_t, 9> kP = {1, 2, 4, 6, 8, 10, 12, 14, 16};
  std::vector<Cell> cells;
  cells.push_back({"serial", testbed(1, kFig8Iterations, seed)});
  for (const std::size_t p : kP) {
    for (const int fw : {0, 1, 2}) {
      nbody::NBodyScenario s = testbed(p, kFig8Iterations, seed);
      s.algorithm = fw == 0 ? nbody::Algorithm::Fig7Baseline
                            : nbody::Algorithm::Speculative;
      s.forward_window = fw;
      cells.push_back(
          {"p" + std::to_string(p) + (fw == 0 ? "-fig7" : "-fw" + std::to_string(fw)),
           std::move(s)});
    }
  }
  return cells;
}

// bench_scaling's engine cell: 64 homogeneous 2 Mops/s ranks on a switched
// fabric with tree collectives, paper latency, FW=4.
Cell wide_cell(std::uint64_t seed, std::size_t replica) {
  nbody::NBodyScenario s;
  s.body.n = 2048;
  s.body.dt = 0.03;
  s.body.softening2 = 1e-3;
  s.body.seed = seed;
  s.sim.cluster = runtime::Cluster::homogeneous(64, 2e6);
  s.sim.channel = nbody::paper_channel_config(channel_seed(seed));
  s.sim.channel.propagation = des::SimTime::millis(5500);
  s.sim.channel.extra_delay =
      std::make_shared<net::ExponentialJitter>(des::SimTime::millis(600));
  s.sim.send_sw_time = des::SimTime::millis(3);
  s.sim.shared_medium = false;
  s.sim.collective = runtime::CollectiveAlgo::Tree;
  s.iterations = kWideIterations;
  s.algorithm = nbody::Algorithm::Speculative;
  s.forward_window = 4;
  return {"p64-fw4-r" + std::to_string(replica), std::move(s)};
}

// The testbed's 4 fastest machines at N=16384: the force kernel dominates.
Cell kernel_cell(std::uint64_t seed) {
  nbody::NBodyScenario s = testbed(4, kKernelIterations, seed);
  s.body.n = 16384;
  s.forward_window = 1;
  return {"p4-n16384-fw1", std::move(s)};
}

// bench_adaptive_fw's spiky regime at p=16 with both adaptive controllers
// and a 2% drop plan under ARQ recovery and graceful degradation.
Cell spiky_cell(std::uint64_t seed) {
  nbody::NBodyScenario s = testbed(16, kSpikyIterations, seed);
  auto composite = std::make_shared<net::CompositeLatency>();
  composite->add(
      std::make_unique<net::ExponentialJitter>(des::SimTime::millis(600)));
  composite->add(
      std::make_unique<net::RandomSpike>(0.02, des::SimTime::seconds(8)));
  s.sim.channel.extra_delay = composite;
  s.window_policy = "model";
  s.theta_policy = "adaptive";
  runtime::FaultPlanConfig config;
  std::string error;
  if (!runtime::parse_fault_plan("drop:0.02", config, error))
    throw std::logic_error("spiky-faults fault plan: " + error);
  config.seed = fault_seed(seed);
  s.sim.fault = std::make_shared<const runtime::FaultPlan>(std::move(config));
  s.graceful_degradation = true;
  return {"p16-spiky-drop0.02", std::move(s)};
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::Fig8Grid, Workload::WideP64, Workload::KernelN16k,
      Workload::SpikyFaults};
  return kAll;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::Fig8Grid: return "fig8-grid";
    case Workload::WideP64: return "wide-p64";
    case Workload::KernelN16k: return "kernel-n16k";
    case Workload::SpikyFaults: return "spiky-faults";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : all_workloads())
    if (workload_name(w) == name) return w;
  return std::nullopt;
}

int host_lanes() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

WorkloadSetup make_workload(Workload w, std::uint64_t seed) {
  WorkloadSetup setup;
  setup.workload = w;
  setup.seed = seed;
  switch (w) {
    case Workload::Fig8Grid:
      setup.cells = fig8_cells(seed);
      setup.lanes = host_lanes();
      setup.pos_err_tolerance = 0.05;
      break;
    case Workload::WideP64:
      // FW=4 rollback cascades make one simulation's work and makespan swing
      // with its initial conditions; a unit runs replicas from derived seeds
      // so a run's figures average over them.
      for (std::size_t i = 0; i < kWideReplicas; ++i)
        setup.cells.push_back(wide_cell(replica_seed(seed, i), i));
      setup.pos_err_tolerance = 0.01;
      break;
    case Workload::KernelN16k:
      setup.cells.push_back(kernel_cell(seed));
      setup.pos_err_tolerance = 1e-3;
      break;
    case Workload::SpikyFaults:
      setup.cells.push_back(spiky_cell(seed));
      setup.pos_err_tolerance = 0.5;
      break;
  }
  return setup;
}

}  // namespace specbench
