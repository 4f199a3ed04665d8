#include "support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace specomp::support {

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_chunk(Job& job, std::size_t index) {
  const std::size_t begin = index * job.grain;
  const std::size_t end = std::min(job.n, begin + job.grain);
  (*job.fn)(begin, end);
  {
    const std::lock_guard<std::mutex> lock(job.done_mutex);
    ++job.done_chunks;
    if (job.done_chunks == job.total_chunks) job.done_cv.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Job* job = queue_.front();
    const std::size_t index =
        job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (index >= job->total_chunks) {
      // Every chunk is claimed; retire the job so the next one surfaces.
      queue_.pop_front();
      continue;
    }
    lock.unlock();
    run_chunk(*job, index);
    lock.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const RangeFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  Job job;
  job.fn = &fn;
  job.n = n;
  job.grain = grain;
  job.total_chunks = (n + grain - 1) / grain;

  if (workers_.empty() || job.total_chunks == 1) {
    // Inline fast path: nothing to hand out, so skip the queue entirely.
    for (std::size_t c = 0; c < job.total_chunks; ++c) run_chunk(job, c);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(&job);
  }
  cv_.notify_all();

  // The caller works its own job alongside the pool.
  for (;;) {
    const std::size_t index =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.total_chunks) break;
    run_chunk(job, index);
  }

  {
    // All chunks are claimed; drop the job if no worker retired it yet (the
    // Job lives on this stack frame, so it must leave the queue before we
    // return).
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase(queue_, &job);
  }
  std::unique_lock<std::mutex> lock(job.done_mutex);
  job.done_cv.wait(lock, [&] { return job.done_chunks == job.total_chunks; });
}

namespace {

unsigned default_worker_count() {
  if (const char* env = std::getenv("SPECOMP_POOL_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 0) return static_cast<unsigned>(std::min(v, 256L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_worker_count());
  return pool;
}

}  // namespace specomp::support
