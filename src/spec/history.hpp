// Per-peer history of actually received variable blocks.
//
// The backward window (BW) of the paper: speculation functions extrapolate
// from the last BW received values of a peer's variables.  Only *actual*
// (received) blocks enter the history — speculated values never do, so a
// burst of speculation cannot compound into the prediction baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/contracts.hpp"
#include "support/ring_buffer.hpp"

namespace specomp::spec {

class History {
 public:
  struct Entry {
    long iteration = -1;
    std::vector<double> block;
  };

  explicit History(std::size_t backward_window)
      : entries_(backward_window) {}

  std::size_t capacity() const noexcept { return entries_.capacity(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Newest actually-received iteration, or -1 when empty.
  long newest_iteration() const noexcept {
    return entries_.empty() ? -1 : entries_.back(0).iteration;
  }

  /// Records the actual block for `iteration`.  Out-of-order receipts older
  /// than the newest entry are dropped (they cannot improve extrapolation).
  /// Once the window is full the evicted entry's storage holds the new block.
  void record(long iteration, std::span<const double> block) {
    if (iteration <= newest_iteration()) return;
    Entry& entry = entries_.push_slot();
    entry.iteration = iteration;
    entry.block.assign(block.begin(), block.end());
    ++version_;
  }

  /// Changes whenever the entries do (every accepted record() and clear()),
  /// so a prediction made at one version is still valid at the same one.
  std::uint64_t version() const noexcept { return version_; }

  /// Entry `age` steps back from the newest (age 0 = newest).
  const Entry& back(std::size_t age = 0) const { return entries_.back(age); }

  void clear() noexcept {
    entries_.clear();
    ++version_;
  }

 private:
  support::RingBuffer<Entry> entries_;
  std::uint64_t version_ = 0;
};

}  // namespace specomp::spec
