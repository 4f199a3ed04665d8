// Fixed-capacity ring buffer used to hold per-peer variable history for the
// backward speculation window (BW): the speculation functions extrapolate
// from the last `capacity` received values.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/contracts.hpp"

namespace specomp::support {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    SPEC_EXPECTS(capacity > 0);
    slots_.reserve(capacity);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return slots_.size(); }
  bool empty() const noexcept { return slots_.empty(); }
  bool full() const noexcept { return slots_.size() == capacity_; }

  /// Appends a value; evicts the oldest value when full.
  void push(T value) { push_slot() = std::move(value); }

  /// Appends an element for the caller to overwrite and returns it.  When
  /// full this is the evicted oldest element, still holding its old value,
  /// so its storage (a vector's capacity, say) is reused instead of freed.
  T& push_slot() {
    if (slots_.size() < capacity_) return slots_.emplace_back();
    T& slot = slots_[head_];
    head_ = (head_ + 1) % capacity_;
    return slot;
  }

  /// Element `age` steps back from the most recent: back(0) is the newest,
  /// back(size()-1) the oldest retained.
  const T& back(std::size_t age = 0) const {
    SPEC_EXPECTS(age < slots_.size());
    const std::size_t newest = (head_ + slots_.size() - 1) % slots_.size();
    const std::size_t idx = (newest + slots_.size() - age) % slots_.size();
    return slots_[idx];
  }

  void clear() noexcept {
    slots_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest element once full
  std::vector<T> slots_;
};

}  // namespace specomp::support
