#include "runtime/sweep.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace specomp::runtime {

int jobs_from_cli(const support::Cli& cli) {
  const auto jobs = cli.get_int("jobs", 1);
  SPEC_EXPECTS(jobs >= 1);
  return static_cast<int>(jobs);
}

namespace detail_sweep {

void run_indexed(std::size_t n, int jobs,
                 const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // A dedicated pool per sweep (not ThreadPool::shared()): a lane is busy
  // for a whole simulation, whose rank fibers all run on the lane's thread,
  // so sweep lanes must not occupy the compute pool that the force kernels
  // shard work onto.  Grain 1 hands every index
  // to the next free lane; the caller claims chunks too, so lanes == jobs.
  const std::size_t lanes =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
  support::ThreadPool pool(static_cast<unsigned>(lanes - 1));
  pool.parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace detail_sweep

}  // namespace specomp::runtime
