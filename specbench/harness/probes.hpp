// Layer probes that time one mechanism in isolation.
#pragma once

#include <cstddef>
#include <string>

#include "workloads.hpp"

namespace specbench {

/// Host microseconds per process resume (kernel -> body -> kernel).  Two
/// des::Process bodies alternate: each schedules a wake of the other and
/// suspends, so every resume is a real handoff, never the advance()
/// fast-forward path.  Median over `trials` trials of `rounds` resumes.
double handoff_resume_us(long rounds, int trials);

struct KernelProbe {
  std::string tier;      ///< what ForceKernel::Auto resolves to at the shape
  std::size_t targets = 0;
  std::size_t sources = 0;
  double pairs = 0.0;    ///< targets x sources, computed
  double mpairs_per_s = 0.0;  ///< median over the repetitions
};

/// Times kernels::accumulate(Auto, ...) at rank 0's targets x sources shape
/// in the workload's largest-p cell, on that cell's initial conditions.
KernelProbe probe_kernel(const WorkloadSetup& setup, int reps);

}  // namespace specbench
