#include "spec/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "runtime/sim_comm.hpp"
#include "toy_app.hpp"

namespace specomp::spec {
namespace {

using runtime::Cluster;
using runtime::Communicator;
using runtime::SimConfig;
using runtime::SimResult;
using testing::ToyApp;

struct ToyRun {
  std::vector<double> finals;
  std::vector<SpecStats> stats;
  SimResult sim;
};

struct ToyScenario {
  int ranks = 3;
  long iterations = 10;
  int forward_window = 1;
  double threshold = 1e9;  // accept everything unless overridden
  std::string speculator = "linear";
  double coupling = 0.0;
  double drift = 0.5;
  long jump_iteration = -1;
  double jump_size = 0.0;
  double bandwidth = 1e5;  // slow enough that waits actually occur
};

ToyRun run_toy(const ToyScenario& s) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(static_cast<std::size_t>(s.ranks), 1e4);
  config.channel.bandwidth_bytes_per_sec = s.bandwidth;
  config.channel.extra_delay = nullptr;
  config.send_sw_time = des::SimTime::zero();

  ToyRun run;
  run.finals.resize(static_cast<std::size_t>(s.ranks));
  run.stats.resize(static_cast<std::size_t>(s.ranks));
  run.sim = runtime::run_simulated(config, [&](Communicator& comm) {
    ToyApp app(comm.rank(), s.ranks, s.coupling, s.drift, s.jump_iteration,
               s.jump_size);
    EngineConfig engine_config;
    engine_config.forward_window = s.forward_window;
    engine_config.threshold = s.threshold;
    if (s.forward_window > 0)
      engine_config.speculator = make_speculator(s.speculator);
    SpecEngine engine(comm, app, engine_config,
                      ToyApp::initial_blocks(s.ranks));
    run.stats[static_cast<std::size_t>(comm.rank())] =
        engine.run(s.iterations);
    run.finals[static_cast<std::size_t>(comm.rank())] = app.value();
  });
  return run;
}

TEST(SpecEngine, Fw0MatchesSerialRecurrence) {
  // With coupling the exact trajectory is easy to iterate centrally.
  ToyScenario s;
  s.forward_window = 0;
  s.coupling = 0.01;
  s.iterations = 8;
  const ToyRun run = run_toy(s);

  std::vector<double> x(static_cast<std::size_t>(s.ranks));
  for (int r = 0; r < s.ranks; ++r)
    x[static_cast<std::size_t>(r)] = ToyApp::initial_value(r);
  for (long t = 0; t < s.iterations; ++t) {
    double sum = 0.0;
    for (double v : x) sum += v;
    for (auto& v : x) v = v + s.coupling * sum + s.drift;
  }
  for (int r = 0; r < s.ranks; ++r)
    EXPECT_NEAR(run.finals[static_cast<std::size_t>(r)],
                x[static_cast<std::size_t>(r)], 1e-9)
        << "rank " << r;
  // FW = 0 never speculates.
  for (const auto& st : run.stats) {
    EXPECT_EQ(st.blocks_speculated, 0u);
    EXPECT_EQ(st.checks, 0u);
  }
}

TEST(SpecEngine, PerfectSpeculationAcceptedAfterWarmup) {
  // Affine trajectories (coupling 0) are predicted exactly by the linear
  // speculator once two actual values are in history; the very first
  // speculation falls back to hold-last and errs by |drift|.
  ToyScenario s;
  s.threshold = 1e9;
  const ToyRun run = run_toy(s);
  for (const auto& st : run.stats) {
    EXPECT_GT(st.blocks_speculated, 0u);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(st.checks, st.blocks_speculated);
  }
  // Speculated trajectories remain exact.
  for (int r = 0; r < s.ranks; ++r)
    EXPECT_NEAR(run.finals[static_cast<std::size_t>(r)],
                ToyApp::initial_value(r) + s.drift * static_cast<double>(s.iterations),
                1e-9);
}

TEST(SpecEngine, SpeculationErrorsObservedAtFirstStep) {
  ToyScenario s;
  s.drift = 2.0;
  const ToyRun run = run_toy(s);
  for (const auto& st : run.stats) {
    // The warm-up speculation (hold-last fallback) errs by the drift.
    EXPECT_NEAR(st.error.max(), 2.0, 1e-9);
    // Later linear speculations are exact.
    EXPECT_NEAR(st.error.min(), 0.0, 1e-12);
  }
}

TEST(SpecEngine, TightThresholdTriggersRollbackAndStaysExact) {
  // θ = 0 forces every imperfect speculation to be recomputed, so the final
  // values must equal the no-speculation run exactly.
  ToyScenario s;
  s.coupling = 0.02;
  s.threshold = 0.0;
  const ToyRun spec_run = run_toy(s);

  ToyScenario baseline = s;
  baseline.forward_window = 0;
  const ToyRun base_run = run_toy(baseline);

  for (int r = 0; r < s.ranks; ++r)
    EXPECT_DOUBLE_EQ(spec_run.finals[static_cast<std::size_t>(r)],
                     base_run.finals[static_cast<std::size_t>(r)]);
  bool any_replay = false;
  for (const auto& st : spec_run.stats) {
    EXPECT_EQ(st.failures, st.checks);
    if (st.replayed_iterations > 0) any_replay = true;
  }
  EXPECT_TRUE(any_replay);
}

TEST(SpecEngine, ScriptedJumpDetectedAndRepaired) {
  ToyScenario s;
  s.iterations = 12;
  s.jump_iteration = 6;
  s.jump_size = 100.0;
  s.threshold = 1.0;  // jump blows through; smooth drift does not
  const ToyRun spec_run = run_toy(s);

  ToyScenario baseline = s;
  baseline.forward_window = 0;
  const ToyRun base_run = run_toy(baseline);

  std::uint64_t failures = 0;
  for (const auto& st : spec_run.stats) failures += st.failures;
  EXPECT_GT(failures, 0u);
  for (int r = 0; r < s.ranks; ++r)
    EXPECT_NEAR(spec_run.finals[static_cast<std::size_t>(r)],
                base_run.finals[static_cast<std::size_t>(r)], 1e-9);
}

TEST(SpecEngine, SpeculationMasksWaitTime) {
  // With FW = 1 the engine should spend less blocked time than FW = 0 on a
  // slow network, and the makespan should shrink.
  ToyScenario s;
  s.iterations = 20;
  s.bandwidth = 2e4;
  ToyScenario baseline = s;
  baseline.forward_window = 0;

  const ToyRun spec_run = run_toy(s);
  const ToyRun base_run = run_toy(baseline);
  EXPECT_LT(spec_run.sim.makespan_seconds, base_run.sim.makespan_seconds);
}

TEST(SpecEngine, ForwardWindowTwoOutpacesOne) {
  // A transient spike on one path stalls FW = 1 but not FW = 2 (Fig. 4).
  auto with_fw = [](int fw) {
    SimConfig config;
    config.cluster = Cluster::homogeneous(2, 1e4);
    config.channel.bandwidth_bytes_per_sec = 1e6;
    config.send_sw_time = des::SimTime::zero();
    config.channel.extra_delay = std::make_shared<net::TransientSpike>(
        std::vector<net::SpikeRule>{{0, 1, des::SimTime::zero(),
                                     des::SimTime::seconds(0.05),
                                     des::SimTime::seconds(0.2)}});
    double makespan = 0.0;
    runtime::run_simulated(config, [&](Communicator& comm) {
      ToyApp app(comm.rank(), 2, 0.0, 0.5);
      EngineConfig engine_config;
      engine_config.forward_window = fw;
      engine_config.threshold = 1e9;
      engine_config.speculator = make_speculator("linear");
      SpecEngine engine(comm, app, engine_config, ToyApp::initial_blocks(2));
      engine.run(10);
      makespan = std::max(makespan, comm.time_seconds());
    });
    return makespan;
  };
  EXPECT_LT(with_fw(2), with_fw(1));
}

TEST(SpecEngine, StatsCountsAreConsistent) {
  ToyScenario s;
  s.iterations = 15;
  const ToyRun run = run_toy(s);
  for (const auto& st : run.stats) {
    EXPECT_EQ(st.iterations, static_cast<std::uint64_t>(s.iterations));
    // Every speculation is eventually checked (engine drains at the end).
    EXPECT_EQ(st.checks, st.blocks_speculated);
    EXPECT_LE(st.failures, st.checks);
    EXPECT_EQ(st.error.count(), st.checks);
  }
}

TEST(SpecEngine, SingleRankDegeneratesToSerial) {
  ToyScenario s;
  s.ranks = 1;
  s.iterations = 5;
  const ToyRun run = run_toy(s);
  EXPECT_DOUBLE_EQ(run.finals[0], 1.0 + 0.5 * 5.0);
  EXPECT_EQ(run.stats[0].blocks_speculated, 0u);
}

TEST(SpecEngine, HoldLastSpeculatorWorksToo) {
  ToyScenario s;
  s.speculator = "hold-last";
  s.threshold = 1e9;
  const ToyRun run = run_toy(s);
  // hold-last always misses by |drift| on an affine signal.
  for (const auto& st : run.stats)
    EXPECT_NEAR(st.error.max(), 0.5, 1e-9);
}

/// Forwards to a real speculator and logs what each predict call was asked:
/// which history, at which version, how many steps ahead.  A repeated
/// triple is a recomputation: predict is a pure function of (history,
/// steps), so it would write the same values again.
class CountingSpeculator final : public Speculator {
 public:
  struct Call {
    const History* history;
    std::uint64_t version;
    int steps;
    auto operator<=>(const Call&) const = default;
  };

  void predict(const History& history, int steps,
               std::vector<double>& out) const override {
    calls.push_back({&history, history.version(), steps});
    inner_.predict(history, steps, out);
  }
  std::size_t backward_window() const noexcept override {
    return inner_.backward_window();
  }
  double ops_per_variable() const noexcept override {
    return inner_.ops_per_variable();
  }
  std::string_view name() const noexcept override { return inner_.name(); }

  mutable std::vector<Call> calls;

 private:
  LinearSpeculator inner_;
};

TEST(SpecEngine, ReplayPredictsOnlyWhenPeerHistoryAdvanced) {
  // θ = 0 with coupling rejects every imperfect speculation, FW = 3 keeps
  // several iterations in flight and jitter staggers the receipts, so
  // replays re-speculate slots both for peers whose history moved on and
  // for peers whose history did not.
  constexpr int kRanks = 4;
  constexpr long kIterations = 14;
  auto run = [&](std::shared_ptr<Speculator> speculator) {
    SimConfig config;
    config.cluster = Cluster::homogeneous(kRanks, 1e4);
    config.channel.bandwidth_bytes_per_sec = 1e5;
    config.channel.extra_delay =
        std::make_shared<net::ExponentialJitter>(des::SimTime::millis(20));
    config.send_sw_time = des::SimTime::zero();
    config.record_trace = true;
    ToyRun out;
    out.finals.resize(kRanks);
    out.stats.resize(kRanks);
    out.sim = runtime::run_simulated(config, [&](Communicator& comm) {
      ToyApp app(comm.rank(), kRanks, 0.02, 0.5);
      EngineConfig engine_config;
      engine_config.forward_window = 3;
      engine_config.threshold = 0.0;
      engine_config.speculator = speculator;
      SpecEngine engine(comm, app, engine_config,
                        ToyApp::initial_blocks(kRanks));
      out.stats[static_cast<std::size_t>(comm.rank())] =
          engine.run(kIterations);
      out.finals[static_cast<std::size_t>(comm.rank())] = app.value();
    });
    return out;
  };

  const auto counting = std::make_shared<CountingSpeculator>();
  const ToyRun counted = run(counting);
  const ToyRun plain = run(std::make_shared<LinearSpeculator>());

  std::uint64_t speculated = 0;
  std::uint64_t replayed = 0;
  for (const auto& st : counted.stats) {
    speculated += st.blocks_speculated;
    replayed += st.replayed_iterations;
  }
  ASSERT_GT(replayed, 0u);

  // Every speculation charge still happens (virtual time and traces keep
  // them), but identical predictions are never recomputed...
  std::uint64_t speculate_events = 0;
  for (const auto& ev : counted.sim.trace.causal())
    if (ev.kind == des::CausalKind::Speculate) ++speculate_events;
  std::vector<CountingSpeculator::Call> calls = counting->calls;
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(std::adjacent_find(calls.begin(), calls.end()), calls.end());
  // ...while every fresh speculation and every replay whose peer history
  // advanced still predicts, and some replays were skipped.
  EXPECT_GE(calls.size(), speculated);
  EXPECT_GT(calls.size(), speculated) << "no replay re-predicted";
  EXPECT_LT(calls.size(), speculate_events) << "no replay was skipped";

  // The skip is invisible in results: same values, same statistics and the
  // same trace as a run through the plain speculator.
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(counted.finals[i], plain.finals[i]);
    EXPECT_EQ(counted.stats[i].blocks_speculated,
              plain.stats[i].blocks_speculated);
    EXPECT_EQ(counted.stats[i].rollbacks, plain.stats[i].rollbacks);
    EXPECT_EQ(counted.stats[i].replayed_iterations,
              plain.stats[i].replayed_iterations);
  }
  EXPECT_EQ(counted.sim.makespan_seconds, plain.sim.makespan_seconds);
  EXPECT_EQ(counted.sim.trace.causal().size(), plain.sim.trace.causal().size());
}

TEST(SpecEngineDeath, MissingSpeculatorAborts) {
  SimConfig config;
  config.cluster = Cluster::homogeneous(2, 1e4);
  EXPECT_DEATH(
      runtime::run_simulated(config,
                             [&](Communicator& comm) {
                               ToyApp app(comm.rank(), 2, 0.0, 0.5);
                               EngineConfig engine_config;
                               engine_config.forward_window = 1;  // no speculator
                               SpecEngine engine(comm, app, engine_config,
                                                 ToyApp::initial_blocks(2));
                               engine.run(2);
                             }),
      "Precondition");
}

}  // namespace
}  // namespace specomp::spec
