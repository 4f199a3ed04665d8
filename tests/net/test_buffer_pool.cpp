// Payload-buffer pool: recycled vectors keep their capacity, the pool is
// bounded in bytes, and empty buffers are not worth pooling.
#include "net/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

namespace specomp::net {
namespace {

TEST(BufferPool, RecyclesCapacityAndClearsContent) {
  BufferPool pool;
  std::vector<std::byte> buffer(4096, std::byte{0xAB});
  const std::size_t cap = buffer.capacity();
  pool.release(std::move(buffer));
  EXPECT_EQ(pool.pooled(), 1u);
  const std::vector<std::byte> reused = pool.acquire();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), cap);
}

TEST(BufferPool, AcquireOnEmptyPoolReturnsFreshBuffer) {
  BufferPool pool;
  const std::vector<std::byte> fresh = pool.acquire();
  EXPECT_TRUE(fresh.empty());
}

TEST(BufferPool, IgnoresCapacityFreeBuffers) {
  BufferPool pool;
  pool.release(std::vector<std::byte>{});  // nothing to recycle
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BufferPool, IsBounded) {
  BufferPool pool;
  constexpr std::size_t kSize = 64 * 1024;
  constexpr std::size_t kFit = BufferPool::kMaxPooledBytes / kSize;
  for (std::size_t i = 0; i < 4 * kFit; ++i)
    pool.release(std::vector<std::byte>(kSize));
  EXPECT_EQ(pool.pooled(), kFit);
  EXPECT_LE(pool.pooled_bytes(), BufferPool::kMaxPooledBytes);
}

TEST(BufferPool, BudgetIsInBytesNotBuffers) {
  BufferPool pool;
  // A p = 64 rank's burst of small payloads fits whole...
  for (int i = 0; i < 4 * 63; ++i) pool.release(std::vector<std::byte>(1600));
  EXPECT_EQ(pool.pooled(), 4u * 63u);
  // ...while one buffer larger than the whole budget is never kept.
  pool.release(std::vector<std::byte>(BufferPool::kMaxPooledBytes + 1));
  EXPECT_EQ(pool.pooled(), 4u * 63u);
  const std::size_t before = pool.pooled_bytes();
  const std::vector<std::byte> reused = pool.acquire();
  EXPECT_EQ(pool.pooled_bytes(), before - reused.capacity());
}

TEST(BufferPool, ThreadLocalInstanceIsStable) {
  BufferPool& a = BufferPool::local();
  BufferPool& b = BufferPool::local();
  EXPECT_EQ(&a, &b);
  a.release(std::vector<std::byte>(16));
  EXPECT_GE(b.pooled(), 1u);
  (void)b.acquire();  // leave the shared instance roughly as found
}

}  // namespace
}  // namespace specomp::net
