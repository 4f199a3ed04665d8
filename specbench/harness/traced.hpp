// The traced harness: nbody::run_scenario re-assembled from its public
// parts, with the benchmark's own wrappers around runtime::Communicator and
// spec::SyncIterativeApp recording a span at every layer boundary.
//
// The wrappers only observe: they forward every call unchanged and never
// touch virtual time, so a traced run must reproduce run_scenario's virtual
// outputs bit for bit (the benchmark checks that it does).
#pragma once

#include <cstdint>
#include <vector>

#include "nbody/scenario.hpp"
#include "spans.hpp"

namespace specbench {

/// Counters the Communicator wrapper keeps for one rank.
struct CommCounts {
  std::uint64_t send_calls = 0;
  /// recv, recv_any, recv_timeout and try_recv calls.
  std::uint64_t recv_calls = 0;
  /// Virtual seconds this rank spent inside blocking receives and barriers.
  double wait_virtual_s = 0.0;

  void merge(const CommCounts& other) noexcept {
    send_calls += other.send_calls;
    recv_calls += other.recv_calls;
    wait_virtual_s += other.wait_virtual_s;
  }
};

struct TracedRun {
  specomp::nbody::NBodyRunResult result;
  /// One log per rank; each holds a root span "rank" with the engine (or
  /// Fig-7 loop) below it and app.* / comm.* spans below that.
  std::vector<SpanLog> logs;
  CommCounts comm;
  /// Host wall time of the whole run_simulated call.
  std::int64_t sim_wall_ns = 0;
};

/// Same inputs and same virtual outputs as nbody::run_scenario, traced.
TracedRun run_scenario_traced(const specomp::nbody::NBodyScenario& scenario);

}  // namespace specbench
