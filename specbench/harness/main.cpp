// specbench: runs one workload for --seconds, checks every simulation's
// outputs, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1).  run.py builds and drives it; see
// specbench/README.md for the metrics and why each workload exists.
//
//   specbench --workload fig8-grid --seed 42 --seconds 10 --trace 0
//             [--commit STR] [--spans-dir DIR] [--setup-only]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// the host record and each metric with its unit.  Exit code 0 when every
// simulation passed its checks, 1 when any failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "host.hpp"
#include "nbody/init.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "nbody/scenario.hpp"
#include "nbody/serial.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "runtime/sweep.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "support/cpu_features.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace specbench;
using namespace specomp;

// ---- Correctness gate ---------------------------------------------------

/// Virtual-time deadlock bound, per iteration: the whole O(N^2) force sum on
/// the cell's slowest machine, plus this much for communication (the worst
/// single delay a workload can draw is an 8 s spike on the 6 s base latency
/// plus 15 s of retransmit backoff).
constexpr double kCommAllowanceSecondsPerIteration = 60.0;
/// Timed units a run takes at least, however long they are.
constexpr int kMinUnits = 3;
/// Passes of the reference work (~14 ms each) before every timed unit.
constexpr int kReferencePassesPerUnit = 5;

struct Args {
  Workload workload = Workload::Fig8Grid;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string commit = "unknown";
  std::string spans_dir;
};

std::optional<Args> parse_args(int argc, char** argv, std::string& error) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) {
          error = "unknown workload \"" + value + "\"";
          return std::nullopt;
        }
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          error = "--trace takes 0 or 1";
          return std::nullopt;
        }
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--spans-dir") {
        args.spans_dir = value;
      } else {
        error = "unknown option " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return std::nullopt;
    }
  }
  if (!have_workload) {
    error = "--workload is required";
    return std::nullopt;
  }
  if (!(args.seconds > 0.0)) {
    error = "--seconds must be positive";
    return std::nullopt;
  }
  return args;
}

// ---- One simulation's checked outcome ---------------------------------

/// Particle sets keyed by the body seed they were made from.
using References = std::map<std::uint64_t, std::vector<nbody::Particle>>;

struct CellOutcome {
  bool ok = true;
  std::string error;
  std::uint64_t digest = 0;
  double pos_err = 0.0;
  double virtual_s_per_iter = 0.0;
  std::size_t ranks = 0;
  long iterations = 0;
  std::uint64_t events = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double delay_sum = 0.0;  // message-weighted, for the grid-wide mean
  runtime::FaultStats fault;
  spec::SpecStats spec;
  double phase_vs[5] = {};  // compute, comm, speculate, check, correct
  // Traced runs only.
  std::vector<SpanLog> logs;
  CommCounts comm;
  std::int64_t sim_wall_ns = 0;
};

/// FNV-1a over every virtual output of a run: makespan, per-rank phase
/// times, network, DES and fault counters, speculation statistics and the
/// final particle state.  Equal digests = bit-identical virtual outputs.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const nbody::NBodyRunResult& r) {
  Digest d;
  d.add(r.sim.makespan_seconds);
  for (const auto& timer : r.sim.timers) {
    for (std::size_t ph = 0; ph < static_cast<std::size_t>(runtime::Phase::kCount);
         ++ph)
      d.add(timer.get(static_cast<runtime::Phase>(ph)).to_seconds());
    d.add(timer.iterations());
  }
  d.add(r.sim.channel_stats.messages);
  d.add(r.sim.channel_stats.bytes);
  d.add(r.sim.channel_stats.delay_seconds.mean());
  d.add(r.sim.kernel_stats.events_executed);
  d.add(r.sim.kernel_stats.queue_peak);
  const runtime::FaultStats& f = r.sim.fault_stats;
  for (const std::uint64_t v :
       {f.injected_drops, f.retransmits, f.messages_lost, f.injected_duplicates,
        f.duplicates_suppressed, f.injected_reorders, f.slowdown_charges,
        f.stalls, f.crashed_ranks})
    d.add(v);
  const spec::SpecStats& s = r.spec;
  for (const std::uint64_t v :
       {s.iterations, s.blocks_received_in_time, s.blocks_speculated, s.checks,
        s.failures, s.incremental_corrections, s.rollbacks,
        s.replayed_iterations, s.degraded_entries, s.degraded_iterations,
        s.theta_adjustments})
    d.add(v);
  d.add(s.max_cascade_depth);
  d.add(s.max_window_used);
  d.add(s.error.mean());
  d.add(s.error.max());
  d.add(s.theta_min_used);
  d.add(s.theta_max_used);
  for (const auto& particle : r.final_particles) {
    d.add(particle.mass);
    d.add(particle.pos.x);
    d.add(particle.pos.y);
    d.add(particle.pos.z);
    d.add(particle.vel.x);
    d.add(particle.vel.y);
    d.add(particle.vel.z);
  }
  return d.value();
}

void fail(CellOutcome& out, const std::string& why) {
  if (out.ok) out.error = why;
  out.ok = false;
}

CellOutcome check(const nbody::NBodyRunResult& r, const Cell& cell,
                  const std::vector<nbody::Particle>& reference,
                  double pos_err_tolerance) {
  CellOutcome out;
  const nbody::NBodyScenario& s = cell.scenario;
  out.digest = digest_of(r);
  out.ranks = s.sim.cluster.size();
  out.iterations = s.iterations;
  out.virtual_s_per_iter = r.time_per_iteration;
  out.events = r.sim.kernel_stats.events_executed;
  out.queue_peak = r.sim.kernel_stats.queue_peak;
  out.messages = r.sim.channel_stats.messages;
  out.bytes = r.sim.channel_stats.bytes;
  out.delay_sum = r.sim.channel_stats.delay_seconds.mean() *
                  static_cast<double>(r.sim.channel_stats.delay_seconds.count());
  out.fault = r.sim.fault_stats;
  out.spec = r.spec;
  out.phase_vs[0] = r.mean_compute_per_iteration;
  out.phase_vs[1] = r.mean_comm_per_iteration;
  out.phase_vs[2] = r.mean_speculate_per_iteration;
  out.phase_vs[3] = r.mean_check_per_iteration;
  out.phase_vs[4] = r.mean_correct_per_iteration;

  if (r.final_particles.size() != reference.size()) {
    fail(out, "final state has " + std::to_string(r.final_particles.size()) +
                  " particles, expected " + std::to_string(reference.size()));
  } else {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const nbody::Vec3 d = r.final_particles[i].pos - reference[i].pos;
      const double err = std::sqrt(d.norm2());
      // A NaN sticks, and fails the tolerance test below.
      if (std::isnan(err) || err > out.pos_err) out.pos_err = err;
    }
    if (!(out.pos_err <= pos_err_tolerance))
      fail(out, "pos_err " + std::to_string(out.pos_err) + " exceeds tolerance");
  }
  if (r.spec.checks != r.spec.blocks_speculated)
    fail(out, "unresolved speculation: " + std::to_string(r.spec.checks) +
                  " checks for " + std::to_string(r.spec.blocks_speculated) +
                  " speculated blocks");
  double slowest = s.sim.cluster.machines().front().ops_per_sec;
  for (const auto& m : s.sim.cluster.machines())
    slowest = std::min(slowest, m.ops_per_sec);
  const double n = static_cast<double>(s.body.n);
  const double bound_per_iteration =
      n * n * nbody::kOpsPerPairForce / slowest +
      kCommAllowanceSecondsPerIteration;
  if (!(r.sim.makespan_seconds <=
        bound_per_iteration * static_cast<double>(s.iterations)))
    fail(out, "virtual makespan " + std::to_string(r.sim.makespan_seconds) +
                  " s exceeds the deadlock bound");
  return out;
}

// ---- Units -------------------------------------------------------------

struct Unit {
  std::vector<CellOutcome> cells;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::int64_t voluntary_switches = 0;
  /// CPU seconds of one Reference pass, median of the passes taken just
  /// before the unit (timed untraced units only).
  double reference_s = 0.0;
};

Unit run_unit(const WorkloadSetup& setup, const References& references,
              int lanes, bool traced) {
  reset_peak_rss();
  const Usage u0 = usage_now();
  const std::int64_t t0 = wall_now_ns();
  Unit unit;
  unit.cells = runtime::sweep_map(setup.cells, lanes, [&](const Cell& cell) {
    const CpuLane lane;
    try {
      const std::vector<nbody::Particle>& reference =
          references.at(cell.scenario.body.seed);
      if (!traced)
        return check(nbody::run_scenario(cell.scenario), cell, reference,
                     setup.pos_err_tolerance);
      TracedRun run = run_scenario_traced(cell.scenario);
      CellOutcome out =
          check(run.result, cell, reference, setup.pos_err_tolerance);
      out.logs = std::move(run.logs);
      out.comm = run.comm;
      out.sim_wall_ns = run.sim_wall_ns;
      return out;
    } catch (const std::exception& e) {
      CellOutcome out;
      fail(out, std::string("threw: ") + e.what());
      return out;
    }
  });
  const std::int64_t t1 = wall_now_ns();
  const Usage u1 = usage_now();
  unit.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  unit.cpu_s = u1.cpu_s - u0.cpu_s;
  unit.peak_rss_mb = peak_rss_mb();
  unit.voluntary_switches = u1.voluntary_switches - u0.voluntary_switches;
  return unit;
}

/// Tallies a unit's simulations into attempted/failed, comparing each
/// cell's digest with the first unit's (`baseline`, filled on first use).
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> baseline;

  void admit(const Unit& unit, const WorkloadSetup& setup, const char* what) {
    if (baseline.empty())
      for (const CellOutcome& c : unit.cells) baseline.push_back(c.digest);
    for (std::size_t i = 0; i < unit.cells.size(); ++i) {
      const CellOutcome& c = unit.cells[i];
      ++attempted;
      std::string why = c.error;
      if (c.ok && c.digest != baseline[i])
        why = std::string("virtual outputs differ from the first run (") +
              what + ")";
      if (!why.empty()) {
        ++failed;
        std::printf("FAIL %s %s: %s\n", what, setup.cells[i].label.c_str(),
                    why.c_str());
      }
    }
  }
};

// ---- Metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double pos_err_max(const Unit& unit) {
  double worst = 0.0;
  for (const CellOutcome& c : unit.cells) worst = std::max(worst, c.pos_err);
  return worst;
}

double mean_over_cells(const Unit& unit, double (*f)(const CellOutcome&)) {
  double sum = 0.0;
  for (const CellOutcome& c : unit.cells) sum += f(c);
  return unit.cells.empty() ? 0.0 : sum / static_cast<double>(unit.cells.size());
}

/// Each unit's CPU time in units of the reference passes taken just before
/// it, so drift in the host's pace between units divides out too.
double cpu_norm(const Unit& u) { return u.cpu_s / u.reference_s; }

std::vector<Metric> end_to_end(const std::vector<Unit>& units, double setup_s) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> reference;
  std::vector<double> norm;
  std::vector<double> rss;
  for (const Unit& u : units) {
    wall.push_back(u.wall_s);
    cpu.push_back(u.cpu_s);
    reference.push_back(u.reference_s);
    norm.push_back(cpu_norm(u));
    rss.push_back(u.peak_rss_mb);
  }
  // wall_s is printed beside the metrics but not reported as one: on a
  // shared host the hypervisor's CPU steal stretches it by up to 2x for
  // minutes at a time, far beyond any usable regression bound.
  std::printf("%-24s %.6g s (median of %zu units; not a gated metric)\n",
              "wall_s", median(wall), units.size());
  // Raw CPU time drifts with the shared host's pace; cpu_norm divides that
  // drift out (see Reference).
  std::printf("%-24s %.6g s (median of %zu units; not a gated metric)\n",
              "cpu_s", median(cpu), units.size());
  std::printf("%-24s %.6g s (median over units of %d passes each)\n",
              "reference_cpu_s", median(reference), kReferencePassesPerUnit);
  return {
      {"cpu_norm", median(norm), "x"},
      {"peak_rss_mb", median(rss), "MB"},
      {"setup_s", setup_s, "s"},
      {"virtual_s_per_iter",
       mean_over_cells(units.front(),
                       [](const CellOutcome& c) { return c.virtual_s_per_iter; }),
       "vs"},
  };
}

struct TraceSample {
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::int64_t voluntary_switches = 0;
  std::map<std::string, LayerTotals> layers;
  CommCounts comm;
  double gap_s = 0.0;
};

TraceSample summarize_trace(const Unit& untraced, const Unit& traced) {
  TraceSample t;
  t.untraced_wall_s = untraced.wall_s;
  t.traced_wall_s = traced.wall_s;
  t.voluntary_switches = untraced.voluntary_switches;
  for (const CellOutcome& c : traced.cells) {
    std::int64_t rank_cpu = 0;
    for (const SpanLog& log : c.logs) {
      accumulate_layers(log.spans(), t.layers);
      for (const Span& s : log.spans())
        if (s.parent < 0) rank_cpu += s.cpu_ns;
    }
    t.gap_s += static_cast<double>(c.sim_wall_ns - rank_cpu) * 1e-9;
    t.comm.merge(c.comm);
  }
  return t;
}

double layer_s(const TraceSample& t, const std::string& name, bool self) {
  const auto it = t.layers.find(name);
  if (it == t.layers.end()) return 0.0;
  return static_cast<double>(self ? it->second.self_wall_ns : it->second.wall_ns) *
         1e-9;
}

std::vector<Metric> per_layer(const WorkloadSetup& setup, const Unit& traced,
                              const std::vector<TraceSample>& samples,
                              double sweep_wall_s, double resume_us,
                              double resume_unpinned_us,
                              const KernelProbe& kernel) {
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const TraceSample& s : samples) v.push_back(f(s));
    return median(v);
  };
  std::uint64_t events = 0, queue_peak = 0, messages = 0, bytes = 0;
  double delay_sum = 0.0;
  runtime::FaultStats fault;
  spec::SpecStats spec;
  for (const CellOutcome& c : traced.cells) {
    events += c.events;
    queue_peak = std::max(queue_peak, c.queue_peak);
    messages += c.messages;
    bytes += c.bytes;
    delay_sum += c.delay_sum;
    fault.merge(c.fault);
    spec.merge(c.spec);
  }
  const TraceSample& first = samples.front();
  const double send_calls = static_cast<double>(first.comm.send_calls);
  const double untraced_wall = med([](const TraceSample& s) { return s.untraced_wall_s; });
  const double speedup = sweep_wall_s > 0.0 ? untraced_wall / sweep_wall_s : 1.0;
  const auto phase = [&](int i) {
    double sum = 0.0;
    for (const CellOutcome& c : traced.cells) sum += c.phase_vs[i];
    return sum / static_cast<double>(traced.cells.size());
  };
  double wait_vs = 0.0;
  for (const CellOutcome& c : traced.cells)
    wait_vs += c.comm.wait_virtual_s /
               (static_cast<double>(c.ranks) * static_cast<double>(c.iterations));
  wait_vs /= static_cast<double>(traced.cells.size());

  return {
      {"wall_s", untraced_wall, "s"},
      {"des.events", static_cast<double>(events), "count"},
      {"des.queue_peak", static_cast<double>(queue_peak), "count"},
      {"des.ctx_switches",
       med([](const TraceSample& s) { return static_cast<double>(s.voluntary_switches); }),
       "count"},
      {"des.resume_us", resume_us, "us"},
      {"des.resume_unpinned_us", resume_unpinned_us, "us"},
      {"des.gap_s", med([](const TraceSample& s) { return s.gap_s; }), "s"},
      {"net.messages", static_cast<double>(messages), "count"},
      {"net.bytes", static_cast<double>(bytes), "bytes"},
      {"net.delay_mean_s",
       messages == 0 ? 0.0 : delay_sum / static_cast<double>(messages), "s"},
      {"comm.send_calls", send_calls, "count"},
      {"comm.recv_calls", static_cast<double>(first.comm.recv_calls), "count"},
      {"comm.send_us",
       med([&](const TraceSample& s) {
         const auto it = s.layers.find("comm.send");
         return it == s.layers.end() || it->second.count == 0
                    ? 0.0
                    : static_cast<double>(it->second.self_cpu_ns) * 1e-3 /
                          static_cast<double>(it->second.count);
       }),
       "us"},
      {"comm.cpu_s",
       med([](const TraceSample& s) {
         std::int64_t ns = 0;
         for (const auto& [name, t] : s.layers)
           if (name.rfind("comm.", 0) == 0) ns += t.cpu_ns;
         return static_cast<double>(ns) * 1e-9;
       }),
       "s"},
      {"comm.wait_vs", wait_vs, "vs"},
      {"fault.drops", static_cast<double>(fault.injected_drops), "count"},
      {"fault.retransmits", static_cast<double>(fault.retransmits), "count"},
      {"fault.dups_suppressed", static_cast<double>(fault.duplicates_suppressed),
       "count"},
      {"sweep.speedup", speedup, "x"},
      {"sweep.lane_eff", speedup / static_cast<double>(setup.lanes), "1"},
      {"spec.speculated", static_cast<double>(spec.blocks_speculated), "count"},
      {"spec.k", spec.failure_fraction(), "1"},
      {"spec.rollbacks", static_cast<double>(spec.rollbacks), "count"},
      {"spec.replay_frac",
       spec.iterations == 0 ? 0.0
                            : static_cast<double>(spec.replayed_iterations) /
                                  static_cast<double>(spec.iterations),
       "1"},
      {"spec.max_cascade", static_cast<double>(spec.max_cascade_depth), "count"},
      {"spec.degraded_iters", static_cast<double>(spec.degraded_iterations),
       "count"},
      {"spec.max_fw_used", static_cast<double>(spec.max_window_used), "count"},
      {"spec.theta_adjustments", static_cast<double>(spec.theta_adjustments),
       "count"},
      {"engine.self_s", med([](const TraceSample& s) { return layer_s(s, "engine.run", true); }),
       "s"},
      {"fig7.self_s", med([](const TraceSample& s) { return layer_s(s, "fig7.run", true); }),
       "s"},
      {"app.compute_s", med([](const TraceSample& s) { return layer_s(s, "app.compute", false); }),
       "s"},
      {"app.snapshot_s",
       med([](const TraceSample& s) { return layer_s(s, "app.snapshot", false); }), "s"},
      {"app.check_s", med([](const TraceSample& s) { return layer_s(s, "app.check", false); }),
       "s"},
      {"app.correct_s",
       med([](const TraceSample& s) { return layer_s(s, "app.correct", false); }), "s"},
      {"kernel.mpairs_per_s", kernel.mpairs_per_s, "Mpairs/s"},
      {"kernel.pairs", kernel.pairs, "count"},
      {"phase.compute_vs", phase(0), "vs"},
      {"phase.comm_vs", phase(1), "vs"},
      {"phase.speculate_vs", phase(2), "vs"},
      {"phase.check_vs", phase(3), "vs"},
      {"phase.correct_vs", phase(4), "vs"},
      {"pos_err_max", pos_err_max(traced), "1"},
      {"trace.overhead_frac",
       med([](const TraceSample& s) { return s.traced_wall_s; }) / untraced_wall, "x"},
  };
}

void write_spans_file(const std::string& dir, const WorkloadSetup& setup,
                      const Unit& traced) {
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + std::string(workload_name(setup.workload)) + ".tsv";
  std::ofstream out(path);
  out << "sim\trank\tindex\tparent\tname\tstart_ns\tend_ns\tcpu_ns\n";
  for (std::size_t sim = 0; sim < traced.cells.size(); ++sim)
    for (const SpanLog& log : traced.cells[sim].logs)
      write_spans(out, static_cast<int>(sim), log.spans());
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  else std::printf("spans: %s\n", path.c_str());
}

void print_result(bool correct, const Gate& gate, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  obs::Json all = obs::Json::object();
  for (const Metric& m : metrics) {
    obs::Json entry = obs::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    all.set(m.name, std::move(entry));
  }
  obs::Json result = obs::Json::object();
  result.set("correct", correct);
  result.set("attempted", gate.attempted);
  result.set("failed", gate.failed);
  result.set("metrics", std::move(all));
  std::printf("%s\n", result.dump().c_str());
}

/// Work a run does before its first timed unit: building the cells and
/// their initial conditions (one set per body seed), starting the kernel
/// pool, CPU feature detection, and one short warm-up simulation.
References set_up(const WorkloadSetup& setup) {
  References initial;
  for (const Cell& cell : setup.cells)
    if (!initial.count(cell.scenario.body.seed))
      initial[cell.scenario.body.seed] =
          nbody::make_initial_conditions(cell.scenario.body);
  (void)support::cpu::features();
  (void)nbody::kernels::kernel_pool();
  nbody::NBodyScenario warm = setup.cells.back().scenario;
  warm.iterations = 1;
  {
    const CpuLane lane;  // confined like every timed simulation
    (void)nbody::run_scenario(warm);
  }
  return initial;
}

/// The serial reference trajectory of every body seed; the cells of a
/// workload share everything else that shapes it.
References serial_references(const WorkloadSetup& setup, References initial) {
  const nbody::NBodyScenario& s = setup.cells.front().scenario;
  for (auto& [seed, particles] : initial)
    particles = nbody::run_serial(std::move(particles), s.body, s.iterations);
  return initial;
}

/// Runs one unit on `setup.lanes` sweep lanes spread over every CPU, after
/// the timed units, and admits it to the gate: the parallel sweep must give
/// the same virtual outputs as the one-lane units.  Returns its wall time.
double sweep_check(const WorkloadSetup& setup, const References& reference,
                   Gate& gate) {
  const AllCpus all;
  const Unit sweep = run_unit(setup, reference, setup.lanes, false);
  gate.admit(sweep, setup, "jobs=nproc");
  return sweep.wall_s;
}

int run(const Args& args) {
  const WorkloadSetup setup = make_workload(args.workload, args.seed);
  References initial = set_up(setup);
  const std::int64_t ready_ns = wall_now_ns();
  // run.py reads this line: the steady clock gives the wall time since it
  // spawned the process, the CPU time since exec is setup_s.
  const double setup_cpu_s = usage_now().cpu_s;
  std::printf("specbench: ready %.9f %.6f\n",
              static_cast<double>(ready_ns) * 1e-9, setup_cpu_s);
  std::fflush(stdout);
  if (args.setup_only) return 0;

  std::printf("host: %s\n", host_record(args.commit).c_str());
  std::printf("workload: %s  seed: %llu (default %llu, held-out %llu)  "
              "cells: %zu  sweep-check lanes: %d  iterations: %ld\n",
              std::string(workload_name(setup.workload)).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), setup.cells.size(),
              setup.lanes, setup.cells.front().scenario.iterations);

  // The benchmark's own reference computation, outside setup_s.
  const References reference = serial_references(setup, std::move(initial));

  Gate gate;
  // Another unit (or traced/untraced pair) starts only if one as long as the
  // last still ends inside --seconds.
  const std::int64_t deadline =
      wall_now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto time_for_another = [deadline](std::int64_t last_start) {
    const std::int64_t now = wall_now_ns();
    return now + (now - last_start) <= deadline;
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<Unit> units;
    Reference pace;
    std::int64_t start = 0;
    do {
      start = wall_now_ns();
      std::vector<double> passes;
      for (int i = 0; i < kReferencePassesPerUnit; ++i) passes.push_back(pace.cpu_s());
      units.push_back(run_unit(setup, reference, 1, false));
      units.back().reference_s = median(passes);
      gate.admit(units.back(), setup, "rerun");
    } while (time_for_another(start) ||
             static_cast<int>(units.size()) < kMinUnits);
    if (setup.lanes > 1) sweep_check(setup, reference, gate);
    metrics = end_to_end(units, setup_cpu_s);
    std::printf("samples: %zu units; wall_s", units.size());
    for (const Unit& u : units) std::printf(" %.4f", u.wall_s);
    std::printf("; cpu_s");
    for (const Unit& u : units) std::printf(" %.4f", u.cpu_s);
    std::printf("; cpu_norm");
    for (const Unit& u : units) std::printf(" %.2f", cpu_norm(u));
    std::printf("; peak_rss_mb");
    for (const Unit& u : units) std::printf(" %.2f", u.peak_rss_mb);
    std::printf("\n");
    std::printf("pos_err_max: %.6g (tolerance %g)\n", pos_err_max(units.front()),
                setup.pos_err_tolerance);
    for (std::size_t i = 0; i < setup.cells.size(); ++i)
      std::printf("cell %-20s virtual_s_per_iter %.6g vs  pos_err %.3g\n",
                  setup.cells[i].label.c_str(),
                  units.front().cells[i].virtual_s_per_iter,
                  units.front().cells[i].pos_err);
  } else {
    std::vector<TraceSample> samples;
    Unit first_traced;
    std::int64_t start = 0;
    do {
      start = wall_now_ns();
      const Unit untraced = run_unit(setup, reference, 1, false);
      gate.admit(untraced, setup, "untraced");
      Unit traced = run_unit(setup, reference, 1, true);
      gate.admit(traced, setup, "traced");
      samples.push_back(summarize_trace(untraced, traced));
      if (samples.size() == 1) first_traced = std::move(traced);
    } while (time_for_another(start));
    const double sweep_wall_s = setup.lanes > 1 ? sweep_check(setup, reference, gate)
                                                : 0.0;
    // The workloads run on one CPU; the unconfined probe shows what a
    // handoff costs when the threads may land on any CPU.
    const double resume_us = handoff_resume_us(20000, 5);
    double resume_unpinned_us = 0.0;
    {
      const AllCpus all;
      resume_unpinned_us = handoff_resume_us(20000, 5);
    }
    const KernelProbe kernel = probe_kernel(setup, 5);
    std::printf("kernel.tier: %s at %zu x %zu\n", kernel.tier.c_str(),
                kernel.targets, kernel.sources);
    metrics = per_layer(setup, first_traced, samples, sweep_wall_s, resume_us,
                        resume_unpinned_us, kernel);
    if (!args.spans_dir.empty()) write_spans_file(args.spans_dir, setup, first_traced);
    std::printf("samples: %zu traced/untraced pairs\n", samples.size());
  }
  std::printf("failed_frac: %.6g (%llu of %llu simulations)\n",
              gate.attempted == 0 ? 0.0
                                  : static_cast<double>(gate.failed) /
                                        static_cast<double>(gate.attempted),
              static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  const bool correct = gate.failed == 0;
  print_result(correct, gate, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> args = parse_args(argc, argv, error);
  if (!args) {
    std::fprintf(stderr, "specbench: %s\n", error.c_str());
    return 2;
  }
  // One CPU and no kernel thread pool: every timed simulation then runs one
  // thread at a time on a single CPU (see confine_to_one_cpu), and Auto
  // resolves to a single-threaded kernel tier.  The pool is sized on first
  // use, so this must precede any kernel call.
  setenv("SPECOMP_POOL_WORKERS", "0", 1);
  confine_to_one_cpu();
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specbench: %s\n", e.what());
    return 1;
  }
}
