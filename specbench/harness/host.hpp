// Process resource readings and the host record printed with every result.
#pragma once

#include <sched.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace specbench {

struct Usage {
  double cpu_s = 0.0;  ///< user + sys, all threads of the process
  std::int64_t voluntary_switches = 0;
};

Usage usage_now();

/// Peak resident memory (VmHWM) since process start or the last
/// reset_peak_rss(), in MB.  reset_peak_rss() first returns free heap to
/// the system (malloc_trim).
double peak_rss_mb();
void reset_peak_rss();

/// Confines the calling thread, and every thread it creates from then on,
/// to the highest-numbered CPU it may run on (device interrupts usually land
/// on CPU 0).  The harness calls it first thing, so the whole benchmark runs
/// on one CPU: a process whose threads spread over several vCPUs pays for
/// cross-CPU wake-ups and TLB shootdowns in CPU time, and on a shared host
/// that cost swings with the neighbours' load.  Returns false if it could not.
bool confine_to_one_cpu();

/// Lifts confine_to_one_cpu() for the calling thread, and the threads it
/// creates, while the object lives: the jobs=nproc sweep check and the
/// unconfined handoff probe run inside one.
class AllCpus {
 public:
  AllCpus();
  ~AllCpus();
  AllCpus(const AllCpus&) = delete;
  AllCpus& operator=(const AllCpus&) = delete;

 private:
  cpu_set_t confined_{};
  bool lifted_ = false;
};

/// Confines the calling thread, and every thread it creates while the
/// object lives (a simulation's rank threads), to one CPU no other live
/// CpuLane holds; restores the thread's previous affinity on destruction.
/// Does nothing when every allowed CPU is taken.
class CpuLane {
 public:
  CpuLane();
  ~CpuLane();
  CpuLane(const CpuLane&) = delete;
  CpuLane& operator=(const CpuLane&) = delete;

 private:
  int cpu_ = -1;
  cpu_set_t previous_{};
};

/// Fixed reference work that uses nothing of the simulator: a scalar
/// pairwise inverse-cube sum, and condvar handoffs with a partner thread on
/// the same CPU.  Its CPU time follows how fast the shared host runs at the
/// moment, which moved by up to 50% over minutes while this benchmark was
/// tuned, so a unit's CPU time divided by it (cpu_norm) holds much stiller
/// than the CPU time itself.  The partner thread lives as long as the
/// object; create it after confine_to_one_cpu().
class Reference {
 public:
  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// CPU seconds (user + sys, whole process) of one pass of the work.
  double cpu_s();

 private:
  void hand_off();  // one round trip to the partner and back

  std::mutex mutex_;
  std::condition_variable cv_;
  bool partner_turn_ = false;  // guarded by mutex_
  bool stop_ = false;          // guarded by mutex_
  std::vector<double> x_, y_, z_;
  volatile double sink_ = 0.0;  // keeps the sum from being optimised away
  std::thread partner_;
};

/// One-line JSON object: nproc, CPU model, usable ISA tier, compiler, build
/// type and the commit string the caller passes in.
std::string host_record(const std::string& commit);

}  // namespace specbench
