#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "des/kernel.hpp"
#include "des/process.hpp"
#include "nbody/init.hpp"
#include "nbody/kernels/dispatch.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace specbench {

using namespace specomp;

double handoff_resume_us(long rounds, int trials) {
  std::vector<double> samples;
  for (int trial = 0; trial < trials; ++trial) {
    des::Kernel kernel;
    des::Process* procs[2] = {nullptr, nullptr};
    long resumes = 0;
    const auto body = [&](int self, des::Process& proc) {
      des::Process* other = procs[1 - self];
      while (resumes < rounds) {
        kernel.schedule_in(des::SimTime::zero(), [other] { other->wake(); });
        proc.suspend();
        ++resumes;
      }
      // Release the partner from its last suspend; a wake of a finished
      // process is a no-op.
      kernel.schedule_in(des::SimTime::zero(), [other] { other->wake(); });
    };
    procs[0] = kernel.spawn("ping", [&](des::Process& p) { body(0, p); });
    procs[1] = kernel.spawn("pong", [&](des::Process& p) { body(1, p); });
    const std::int64_t t0 = wall_now_ns();
    kernel.run();
    const std::int64_t t1 = wall_now_ns();
    samples.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                      static_cast<double>(std::max(resumes, 1L)));
  }
  return median(samples);
}

KernelProbe probe_kernel(const WorkloadSetup& setup, int reps) {
  const Cell* widest = &setup.cells.front();
  for (const Cell& cell : setup.cells)
    if (cell.scenario.sim.cluster.size() > widest->scenario.sim.cluster.size())
      widest = &cell;
  const nbody::NBodyScenario& s = widest->scenario;
  const std::vector<nbody::Particle> particles =
      nbody::make_initial_conditions(s.body);
  const std::size_t targets =
      s.sim.cluster.proportional_partition(particles.size()).front();

  std::vector<nbody::Vec3> pos(particles.size());
  std::vector<double> mass(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    pos[i] = particles[i].pos;
    mass[i] = particles[i].mass;
  }
  const std::span<const nbody::Vec3> target_pos(pos.data(), targets);
  std::vector<nbody::Vec3> acc(targets);

  KernelProbe probe;
  probe.targets = targets;
  probe.sources = particles.size();
  probe.pairs =
      static_cast<double>(targets) * static_cast<double>(particles.size());
  probe.tier = std::string(nbody::kernels::force_kernel_name(
      nbody::kernels::resolve_force_kernel(nbody::kernels::ForceKernel::Auto,
                                           targets, particles.size())));
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    std::fill(acc.begin(), acc.end(), nbody::Vec3{});
    const std::int64_t t0 = wall_now_ns();
    nbody::kernels::accumulate(nbody::kernels::ForceKernel::Auto, target_pos,
                               pos, mass, s.body.softening2, 0, acc);
    const std::int64_t t1 = wall_now_ns();
    rates.push_back(probe.pairs / (static_cast<double>(t1 - t0) * 1e-9) / 1e6);
  }
  probe.mpairs_per_s = median(rates);
  return probe;
}

}  // namespace specbench
