// Persistent worker pool for data-parallel kernels.
//
// One process-wide pool (ThreadPool::shared()) is reused by every kernel
// call site instead of spawning threads per call: thread creation costs
// ~10-50 us, which would dwarf a tiled force pass over a small rank block.
//
// parallel_for(n, grain, fn) splits [0, n) into ceil(n / grain) contiguous
// chunks and runs fn(begin, end) once per chunk, on the workers *and* on the
// calling thread.  Because the caller claims chunks too:
//   * a pool with zero workers (single-core host) degrades to an inline
//     loop with no synchronisation at all, and
//   * concurrent parallel_for calls from many threads (e.g. every
//     ThreadCommunicator rank at once) can never deadlock — each caller
//     makes progress on its own job even if all workers are busy elsewhere.
//
// Chunks are claimed in index order from an atomic cursor, but which thread
// runs a chunk is scheduling-dependent.  Callers that need deterministic
// results must make chunk outputs independent of that assignment; the force
// kernels do so by giving every chunk a disjoint target range, which is why
// their accumulation order — and hence their floating-point output — is
// bit-identical across runs and across pool sizes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace specomp::support {

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn over [0, n) in chunks of `grain` indices (the last chunk may be
  /// shorter); returns once every chunk has finished.  fn must not throw.
  /// Safe to call from multiple threads at once; nested calls from inside fn
  /// are not supported.
  void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

  /// Process-wide pool shared by all kernel call sites: hardware_concurrency
  /// - 1 workers (the calling thread is the remaining lane), overridable via
  /// the SPECOMP_POOL_WORKERS environment variable for tests and benchmarks.
  static ThreadPool& shared();

 private:
  struct Job {
    const RangeFn* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t total_chunks = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::size_t done_chunks = 0;  // guarded by done_mutex
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  void worker_loop();
  static void run_chunk(Job& job, std::size_t index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;  // guarded by mutex_
  bool stop_ = false;       // guarded by mutex_
};

}  // namespace specomp::support
