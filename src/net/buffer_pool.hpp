// Recycled payload buffers.
//
// Every message send needs a payload vector and every receive retires one;
// over a sweep that is millions of identical-size allocations.  BufferPool
// keeps a free list of retired vectors so steady-state send/recv traffic
// reuses capacity instead of hitting the allocator.
//
// Ownership: a buffer belongs to the pool while pooled, to the sender from
// acquire() until send() moves it into the message, then to the network and
// the receiver's mailbox, and finally to whoever consumes the message, who
// hands it back with release() once the values have been read (the engine
// copies them into its own reused blocks first; see DESIGN.md §7).
//
// The free list is bounded in bytes of retained capacity (kMaxPooledBytes),
// not in buffers: one simulated rank at p = 64 sends 63 payloads per
// iteration and every rank of a run shares the pool, so a 64-buffer cap
// sized for small runs sends most of a large run's traffic back to malloc,
// while for N = 16384 blocks (196 KB each) the same cap could retain 12 MB.
// Releases past the budget simply free.
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
  /// Bytes of retired capacity kept per thread; a release that would pass
  /// it lets the vector free normally.  1 MiB holds a p = 64 rank's 63-send
  /// burst of ~1.6 KB payloads ten times over.  Measured on the benchmark,
  /// budgets from 1 to 32 MiB cost the same host time, and peak RSS pulls
  /// both ways: each MiB kept is memory the allocator cannot give to other
  /// objects (wide-p64 and fig8-grid peak ~1.1 MB higher at 4 MiB), while
  /// below ~3 MiB kernel-n16k's 196 KB blocks churn through malloc and its
  /// peak grows by 0.6-0.7 MB.  The smaller budget is the smaller cost.
  static constexpr std::size_t kMaxPooledBytes = std::size_t{1} << 20;

  /// Returns an empty vector, reusing pooled capacity when available.
  std::vector<std::byte> acquire() {
    if (pool_.empty()) return {};
    std::vector<std::byte> buf = std::move(pool_.back());
    pool_.pop_back();
    pooled_bytes_ -= buf.capacity();
    buf.clear();
    return buf;
  }

  /// Retires a buffer's storage into the pool.
  void release(std::vector<std::byte>&& buf) noexcept {
    if (buf.capacity() == 0 ||
        buf.capacity() > kMaxPooledBytes - pooled_bytes_)
      return;
    pooled_bytes_ += buf.capacity();
    pool_.push_back(std::move(buf));
  }

  std::size_t pooled() const noexcept { return pool_.size(); }
  /// Total capacity held, never above kMaxPooledBytes.
  std::size_t pooled_bytes() const noexcept { return pooled_bytes_; }

  /// The calling thread's pool.
  static BufferPool& local();

 private:
  std::vector<std::vector<std::byte>> pool_;
  std::size_t pooled_bytes_ = 0;
};

}  // namespace specomp::net
