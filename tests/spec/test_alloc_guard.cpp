// Allocation guard for the speculation hot path.
//
// This binary replaces the global operator new with a counting one, so it
// lives apart from every other test.  It runs the simulated N-body engine at
// two rank counts and two iteration counts and takes the difference: setup
// allocations cancel, leaving the allocations each added rank-iteration
// costs.  Per-message bookkeeping (decoded blocks, predictions, history
// copies, payloads, mailbox streams) makes that cost grow with p, since a
// rank handles p - 1 blocks per iteration; a steady state that recycles its
// storage keeps it flat.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "nbody/scenario.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace specomp::nbody {
namespace {

std::uint64_t allocations_of_run(std::size_t p, long iterations) {
  NBodyScenario scenario = paper_testbed_scenario(p, iterations, 7);
  scenario.body.n = 480;
  scenario.forward_window = 2;
  const std::uint64_t before = g_allocations.load();
  const NBodyRunResult result = run_scenario(scenario);
  const std::uint64_t after = g_allocations.load();
  // The run must actually exercise speculation, checks and repairs.
  EXPECT_GT(result.spec.blocks_speculated, 0u);
  EXPECT_GT(result.spec.checks, 0u);
  return after - before;
}

/// Allocations per added rank-iteration at `p`.
double marginal_per_rank_iteration(std::size_t p) {
  constexpr long kShort = 8;
  constexpr long kLong = 24;
  const std::uint64_t short_run = allocations_of_run(p, kShort);
  const std::uint64_t long_run = allocations_of_run(p, kLong);
  const double marginal = static_cast<double>(long_run) -
                          static_cast<double>(short_run);
  const double per = marginal / static_cast<double>(p * (kLong - kShort));
  std::printf("p=%zu: %llu allocations at %ld iterations, %llu at %ld: "
              "%.2f per added rank-iteration\n",
              p, static_cast<unsigned long long>(short_run), kShort,
              static_cast<unsigned long long>(long_run), kLong, per);
  return per;
}

TEST(AllocationGuard, PerRankIterationCostDoesNotGrowWithP) {
  const double at8 = marginal_per_rank_iteration(8);
  const double at16 = marginal_per_rank_iteration(16);
  // With O(p) allocations per rank-iteration doubling p would roughly
  // double this figure (15 peers against 7).  Allow a little slack for
  // repair work, whose frequency moves with p.
  EXPECT_LE(at16, 1.25 * at8 + 1.0);
}

}  // namespace
}  // namespace specomp::nbody
