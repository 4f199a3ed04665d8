// Micro-benchmarks (google-benchmark) for the primitives whose operation
// counts parameterise the performance model: the pair-force kernel, the
// speculation functions, payload serialisation, the DES kernel's event
// throughput, and the shared-medium channel.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "des/kernel.hpp"
#include "des/process.hpp"
#include "net/channel.hpp"
#include "net/serialization.hpp"
#include "nbody/app.hpp"
#include "nbody/forces.hpp"
#include "nbody/init.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "obs/artifacts.hpp"
#include "runtime/cluster.hpp"
#include "runtime/sim_comm.hpp"
#include "spec/speculator.hpp"
#include "support/cli.hpp"

namespace {

using namespace specomp;

void BM_PairForceKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto particles = nbody::init_plummer(n, 1);
  std::vector<nbody::Vec3> pos(n);
  std::vector<double> mass(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = particles[i].pos;
    mass[i] = particles[i].mass;
  }
  std::vector<nbody::Vec3> acc(n);
  for (auto _ : state) {
    acc.assign(n, {});
    nbody::accumulate_accelerations(pos, pos, mass, 1e-3, 0, acc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_PairForceKernel)->Arg(64)->Arg(256)->Arg(1000);

// Same workload pinned to each kernel variant, bypassing the auto heuristic,
// so regressions in any one implementation are visible in isolation.
void BM_ForceKernel(benchmark::State& state, nbody::kernels::ForceKernel kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto particles = nbody::init_plummer(n, 1);
  std::vector<nbody::Vec3> pos(n);
  std::vector<double> mass(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = particles[i].pos;
    mass[i] = particles[i].mass;
  }
  std::vector<nbody::Vec3> acc(n);
  for (auto _ : state) {
    acc.assign(n, {});
    nbody::kernels::accumulate(kind, pos, pos, mass, 1e-3, 0, acc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK_CAPTURE(BM_ForceKernel, scalar, nbody::kernels::ForceKernel::Scalar)
    ->Arg(256)->Arg(1000)->Arg(4000);
BENCHMARK_CAPTURE(BM_ForceKernel, tiled, nbody::kernels::ForceKernel::Tiled)
    ->Arg(256)->Arg(1000)->Arg(4000);
BENCHMARK_CAPTURE(BM_ForceKernel, tiled_mt,
                  nbody::kernels::ForceKernel::TiledMT)
    ->Arg(256)->Arg(1000)->Arg(4000);

template <typename SpeculatorT>
void BM_Speculator(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  spec::History history(3);
  for (long t = 0; t < 3; ++t) {
    std::vector<double> block(vars);
    for (std::size_t i = 0; i < vars; ++i)
      block[i] = static_cast<double>(i) + 0.1 * static_cast<double>(t);
    history.record(t, block);
  }
  const SpeculatorT speculator;
  std::vector<double> out;  // reused, as the engine reuses a slot's block
  for (auto _ : state) {
    speculator.predict(history, 1, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vars));
}
BENCHMARK_TEMPLATE(BM_Speculator, spec::HoldLastSpeculator)->Arg(600);
BENCHMARK_TEMPLATE(BM_Speculator, spec::LinearSpeculator)->Arg(600);
BENCHMARK_TEMPLATE(BM_Speculator, spec::QuadraticSpeculator)->Arg(600);

void BM_KinematicSpeculator(benchmark::State& state) {
  const auto particles = static_cast<std::size_t>(state.range(0));
  spec::History history(1);
  std::vector<double> block(particles * nbody::kDoublesPerParticle, 1.0);
  history.record(0, block);
  const nbody::KinematicSpeculator speculator(0.03);
  std::vector<double> out;
  for (auto _ : state) {
    speculator.predict(history, 1, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(particles));
}
BENCHMARK(BM_KinematicSpeculator)->Arg(100);

void BM_SerializeDoubles(benchmark::State& state) {
  const std::vector<double> values(static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    net::ByteWriter writer;
    writer.write_vector(values);
    auto bytes = std::move(writer).take();
    net::ByteReader reader(bytes);
    auto back = reader.read_vector<double>();
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)) * 8);
}
BENCHMARK(BM_SerializeDoubles)->Arg(400);

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Kernel kernel;
    const int events = static_cast<int>(state.range(0));
    for (int i = 0; i < events; ++i)
      kernel.schedule_at(des::SimTime::micros(i), [] {});
    const auto stats = kernel.run();
    benchmark::DoNotOptimize(stats.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesEventThroughput)->Arg(10000);

// Steady-state event churn: each event schedules its successor, so the
// arena never grows past one slot and every iteration exercises the
// recycle path (the pattern message delivery produces).
void BM_KernelEvents(benchmark::State& state) {
  const auto chain = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    des::Kernel kernel;
    std::int64_t remaining = chain;
    std::function<void()> step;
    step = [&kernel, &remaining, &step] {
      if (--remaining > 0)
        kernel.schedule_at(kernel.now() + des::SimTime::micros(1), [&] { step(); });
    };
    kernel.schedule_at(des::SimTime::micros(1), [&] { step(); });
    const auto stats = kernel.run();
    benchmark::DoNotOptimize(stats.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * chain);
}
BENCHMARK(BM_KernelEvents)->Arg(100000);

// End-to-end simulated message rate: two ranks ping-pong `round` messages
// through the full stack (serialise → channel → DES delivery → mailbox →
// deserialise).  This is the hot loop of every figure bench, so its
// items/sec is the headline "events per second" number for the PR.
void BM_SimSendRecv(benchmark::State& state) {
  const long rounds = state.range(0);
  runtime::SimConfig config;
  config.cluster = runtime::Cluster::homogeneous(2, 1e9);
  config.channel.bandwidth_bytes_per_sec = 1.25e9;
  config.channel.per_message_overhead_bytes = 0;
  config.channel.propagation = des::SimTime::zero();
  config.send_sw_time = des::SimTime::zero();
  const std::vector<double> block(64, 1.0);
  for (auto _ : state) {
    const auto result =
        runtime::run_simulated(config, [&](runtime::Communicator& comm) {
          if (comm.rank() == 0) {
            for (long i = 0; i < rounds; ++i) {
              comm.send_doubles(1, 1, block);
              benchmark::DoNotOptimize(comm.recv_doubles(1, 2).data());
            }
          } else {
            for (long i = 0; i < rounds; ++i) {
              benchmark::DoNotOptimize(comm.recv_doubles(0, 1).data());
              comm.send_doubles(0, 2, block);
            }
          }
        });
    benchmark::DoNotOptimize(result.kernel_stats.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rounds * 2);
}
BENCHMARK(BM_SimSendRecv)->Arg(2000);

void BM_ProcessContextSwitch(benchmark::State& state) {
  // Two processes hand control back and forth: each wakes its partner and
  // suspends, so every resume event is a real switch into a process body
  // and back (advance() alone would take the try_fast_forward shortcut and
  // never switch).  Items are resume events executed.
  constexpr int kRounds = 1000;
  std::int64_t resumes = 0;
  for (auto _ : state) {
    des::Kernel kernel;
    des::Process* procs[2] = {nullptr, nullptr};
    const auto body = [&procs](int self, des::Process& proc) {
      des::Process* other = procs[1 - self];
      for (int i = 0; i < kRounds; ++i) {
        other->wake();
        proc.suspend();
      }
      other->wake();  // release the partner's last suspend
    };
    procs[0] = kernel.spawn("ping", [&body](des::Process& p) { body(0, p); });
    procs[1] = kernel.spawn("pong", [&body](des::Process& p) { body(1, p); });
    resumes += static_cast<std::int64_t>(kernel.run().events_executed);
  }
  state.SetItemsProcessed(resumes);
}
// Real time: a switch's cost counts wherever it is spent, not only on the
// benchmark thread's CPU clock.
BENCHMARK(BM_ProcessContextSwitch)->UseRealTime();

void BM_SharedMediumPost(benchmark::State& state) {
  net::ChannelConfig config;
  config.bandwidth_bytes_per_sec = 1.25e6;
  net::SharedMediumChannel channel(config);
  net::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload.resize(3000);
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-6;
    benchmark::DoNotOptimize(channel.post(msg, des::SimTime::seconds(now)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SharedMediumPost);

/// True for the telemetry options ArtifactWriter owns; google-benchmark
/// aborts on options it does not recognise, so these are split out of argv
/// before Initialize().
bool is_obs_flag(std::string_view arg) {
  for (const std::string_view name :
       {"--trace-out", "--report-out", "--csv-out"}) {
    if (arg == name || (arg.size() > name.size() && arg.starts_with(name) &&
                        arg[name.size()] == '=')) {
      return true;
    }
  }
  return false;
}

}  // namespace

// Custom main (instead of benchmark_main) so the shared telemetry flags
// work here too: bench_micro --report-out=x.json emits the bench envelope
// while every other flag still reaches google-benchmark.
int main(int argc, char** argv) {
  std::vector<char*> obs_args{argv[0]};
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (is_obs_flag(argv[i])) {
      obs_args.push_back(argv[i]);
      // `--flag value` form: the value travels with the flag.
      const std::string_view arg(argv[i]);
      if (arg.find('=') == std::string_view::npos && i + 1 < argc)
        obs_args.push_back(argv[++i]);
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  const support::Cli cli(static_cast<int>(obs_args.size()), obs_args.data());
  obs::ArtifactWriter artifacts("bench_micro", cli);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data()))
    return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  artifacts.add_entry("benchmarks_run", obs::Json(ran));
  return artifacts.flush() ? 0 : 1;
}
