#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace {

using specomp::support::ThreadPool;

// Every index in [0, n) must be visited exactly once, regardless of how
// chunks land on workers vs the caller.
void expect_exact_cover(ThreadPool& pool, std::size_t n, std::size_t grain) {
  std::vector<std::atomic<int>> visits(n);
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i)
      visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  expect_exact_cover(pool, 1000, 7);
  expect_exact_cover(pool, 1000, 1);
  expect_exact_cover(pool, 1000, 1000);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::size_t covered = 0;
  pool.parallel_for(100, 8, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += end - begin;
  });
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(2);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(5, 1000, [&](std::size_t begin, std::size_t end) {
    chunks.fetch_add(1);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 5u);
}

// Many threads driving the same pool at once: each caller participates in
// its own job, so this must complete (no deadlock) with every job covered.
TEST(ThreadPool, ConcurrentCallersAllComplete) {
  ThreadPool pool(2);
  constexpr int kCallers = 6;
  constexpr std::size_t kN = 500;
  std::vector<std::uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sum = sums[static_cast<std::size_t>(c)]] {
      std::atomic<std::uint64_t> local{0};
      pool.parallel_for(kN, 16, [&](std::size_t begin, std::size_t end) {
        std::uint64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        local.fetch_add(s, std::memory_order_relaxed);
      });
      sum = local.load();
    });
  }
  for (auto& t : callers) t.join();
  const std::uint64_t expected = kN * (kN - 1) / 2;
  for (const auto sum : sums) EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, SharedIsASingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  expect_exact_cover(a, 200, 16);
}

}  // namespace
