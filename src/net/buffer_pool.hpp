// Recycled payload buffers.
//
// Every message send allocates a payload vector and every receive frees one;
// over a sweep that is millions of identical-size allocations.  BufferPool
// keeps a small free list of retired vectors so steady-state send/recv
// traffic reuses capacity instead of hitting the allocator.
//
// The pool is per-thread (see local()), so it needs no locking: the thread
// backend gives each rank its own pool, while every rank of one simulated
// run shares the pool of the thread running its DES kernel.  Sharing is safe
// because acquire() and release() never yield to another rank mid-call.
// Buffers may migrate between threads (sent by one rank, released by
// another); that only transfers capacity between pools and is harmless.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace specomp::net {

class BufferPool {
 public:
  /// Retired buffers kept per thread; beyond this, release() lets the
  /// vector free normally.  Bounds worst-case retention to a few MB even
  /// for pathological payload sizes.
  static constexpr std::size_t kMaxPooled = 64;

  /// Returns an empty vector, reusing pooled capacity when available.
  std::vector<std::byte> acquire() {
    if (pool_.empty()) return {};
    std::vector<std::byte> buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();
    return buf;
  }

  /// Retires a buffer's storage into the pool.
  void release(std::vector<std::byte>&& buf) noexcept {
    if (buf.capacity() == 0 || pool_.size() >= kMaxPooled) return;
    pool_.push_back(std::move(buf));
  }

  std::size_t pooled() const noexcept { return pool_.size(); }

  /// The calling thread's pool.
  static BufferPool& local();

 private:
  std::vector<std::vector<std::byte>> pool_;
};

}  // namespace specomp::net
