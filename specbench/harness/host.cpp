#include "host.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>

#include <bitset>
#include <cmath>
#include <fstream>
#include <mutex>
#include <thread>

#include "obs/json.hpp"
#include "support/cpu_features.hpp"

#ifndef SPECBENCH_BUILD_TYPE
#define SPECBENCH_BUILD_TYPE "unknown"
#endif

namespace specbench {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      const auto begin = line.find_first_not_of(' ', colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "unknown";
}

std::string isa_tier(const specomp::support::cpu::Features& f) {
  if (f.usable_avx512()) return "avx512";
  if (f.usable_avx2()) return "avx2";
  return "generic";
}

cpu_set_t allowed_at_start;  // written once, before any other thread exists
bool confined = false;

std::mutex lanes_mutex;
std::bitset<CPU_SETSIZE> lanes_taken;  // guarded by lanes_mutex; by CPU

}  // namespace

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  u.voluntary_switches = ru.ru_nvcsw;
  return u;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // the line is in KiB
  return 0.0;
}

void reset_peak_rss() {
  // Hand free heap back first, so a unit's peak counts what it holds, not
  // the fragments earlier units left in the allocator's arenas.
  malloc_trim(0);
  // "5" resets this process's peak-RSS counter (Linux, proc(5)).
  std::ofstream("/proc/self/clear_refs") << "5";
}

bool confine_to_one_cpu() {
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed_at_start,
                             &allowed_at_start) != 0)
    return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed_at_start)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    confined = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
    return confined;
  }
  return false;
}

AllCpus::AllCpus() {
  if (!confined ||
      pthread_getaffinity_np(pthread_self(), sizeof confined_, &confined_) != 0)
    return;
  lifted_ = pthread_setaffinity_np(pthread_self(), sizeof allowed_at_start,
                                   &allowed_at_start) == 0;
}

AllCpus::~AllCpus() {
  if (lifted_) pthread_setaffinity_np(pthread_self(), sizeof confined_, &confined_);
}

CpuLane::CpuLane() {
  if (pthread_getaffinity_np(pthread_self(), sizeof previous_, &previous_) != 0)
    return;
  const std::lock_guard<std::mutex> lock(lanes_mutex);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &previous_) || lanes_taken.test(static_cast<std::size_t>(cpu)))
      continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0) {
      lanes_taken.set(static_cast<std::size_t>(cpu));
      cpu_ = cpu;
    }
    return;
  }
}

CpuLane::~CpuLane() {
  if (cpu_ < 0) return;
  pthread_setaffinity_np(pthread_self(), sizeof previous_, &previous_);
  const std::lock_guard<std::mutex> lock(lanes_mutex);
  lanes_taken.reset(static_cast<std::size_t>(cpu_));
}

namespace {
constexpr int kReferenceBodies = 256;
constexpr int kReferenceSweeps = 30;     // ~2M pair terms, ~8 ms here
constexpr int kReferenceHandoffs = 850;  // ~6 ms here
}  // namespace

Reference::Reference()
    : x_(kReferenceBodies), y_(kReferenceBodies), z_(kReferenceBodies) {
  for (int i = 0; i < kReferenceBodies; ++i) {
    x_[i] = std::sin(0.7 * i);
    y_[i] = std::cos(1.3 * i);
    z_[i] = std::sin(2.1 * i);
  }
  partner_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return partner_turn_ || stop_; });
      if (stop_) return;
      partner_turn_ = false;
      cv_.notify_all();
    }
  });
}

Reference::~Reference() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  partner_.join();
}

void Reference::hand_off() {
  std::unique_lock<std::mutex> lock(mutex_);
  partner_turn_ = true;
  cv_.notify_all();
  cv_.wait(lock, [this] { return !partner_turn_; });
}

double Reference::cpu_s() {
  const double start = usage_now().cpu_s;
  double sum = 0.0;
  for (int sweep = 0; sweep < kReferenceSweeps; ++sweep)
    for (int i = 0; i < kReferenceBodies; ++i)
      for (int j = 0; j < kReferenceBodies; ++j) {
        const double dx = x_[j] - x_[i];
        const double dy = y_[j] - y_[i];
        const double dz = z_[j] - z_[i];
        const double r2 = dx * dx + dy * dy + dz * dz + 1e-3;
        sum += dx / (r2 * std::sqrt(r2));
      }
  sink_ = sink_ + sum;
  for (int i = 0; i < kReferenceHandoffs; ++i) hand_off();
  return usage_now().cpu_s - start;
}

std::string host_record(const std::string& commit) {
  const auto& features = specomp::support::cpu::features();
  specomp::obs::Json host = specomp::obs::Json::object();
  host.set("nproc", static_cast<unsigned>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu_model());
  host.set("isa_tier", isa_tier(features));
  host.set("cpu_features", specomp::support::cpu::describe(features));
  host.set("compiler", std::string("g++ ") + __VERSION__);
  host.set("build_type", SPECBENCH_BUILD_TYPE);
  host.set("commit", commit);
  return host.dump();
}

}  // namespace specbench
