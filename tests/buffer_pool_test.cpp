// BufferPool / PooledBuffer: size classing, reuse, cache-bound
// exhaustion, counters, and cross-thread recycling.
#include "common/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

namespace hs {
namespace {

TEST(BufferPoolTest, AcquireRoundsUpToPowerOfTwoClass) {
  BufferPool pool;
  for (std::size_t want : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{1000},
                           std::size_t{4096}, std::size_t{100000}}) {
    BufferPool::Slab slab = pool.acquire(want);
    ASSERT_NE(slab.ptr, nullptr);
    EXPECT_GE(slab.capacity, want);
    EXPECT_GE(slab.capacity, BufferPool::kMinClassBytes);
    EXPECT_TRUE(std::has_single_bit(slab.capacity)) << slab.capacity;
    pool.release(slab);
  }
}

TEST(BufferPoolTest, ReleaseThenAcquireReusesSlab) {
  BufferPool pool;
  BufferPool::Slab first = pool.acquire(1024);
  std::uint8_t* ptr = first.ptr;
  pool.release(first);
  BufferPool::Slab second = pool.acquire(1000);  // same 1024-byte class
  EXPECT_EQ(second.ptr, ptr);
  PoolCounters c = pool.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  pool.release(second);
}

TEST(BufferPoolTest, OversizeRequestsAreExactAndNeverCached) {
  BufferPool pool;
  const std::size_t big = BufferPool::kMaxClassBytes + 12345;
  BufferPool::Slab slab = pool.acquire(big);
  ASSERT_NE(slab.ptr, nullptr);
  EXPECT_EQ(slab.capacity, big);
  pool.release(slab);
  EXPECT_EQ(pool.counters().bytes_cached, 0u);
  // A second acquire must be a fresh allocation, not a cache hit.
  BufferPool::Slab again = pool.acquire(big);
  EXPECT_EQ(pool.counters().hits, 0u);
  pool.release(again);
}

TEST(BufferPoolTest, FailedAllocationReturnsAnEmptySlabAndCountsNothing) {
  // The path cudax's pinned pool takes when cudaMallocHost fails; its
  // callers then fall back to pageable memory.
  BufferPool pool(BufferPool::kDefaultMaxCachedBytes,
                  {[](std::size_t) -> void* { return nullptr; },
                   [](void*) { FAIL() << "nothing was allocated"; }});
  const BufferPool::Slab slab = pool.acquire(4096);
  EXPECT_EQ(slab.ptr, nullptr);
  EXPECT_EQ(slab.capacity, 0u);
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.bytes_allocated, 0u);
  EXPECT_EQ(c.bytes_outstanding, 0u);
  pool.release(slab);
}

TEST(BufferPoolTest, CacheBoundEvictsInsteadOfGrowing) {
  BufferPool pool(/*max_cached_bytes=*/4096);
  std::vector<BufferPool::Slab> slabs;
  for (int i = 0; i < 8; ++i) slabs.push_back(pool.acquire(1024));
  for (auto& s : slabs) pool.release(s);
  // Only 4 slabs (4096 bytes) fit under the bound; the rest were freed.
  EXPECT_LE(pool.counters().bytes_cached, 4096u);
  EXPECT_EQ(pool.counters().bytes_outstanding, 0u);
}

TEST(BufferPoolTest, TrimDropsCachedBytes) {
  BufferPool pool;
  BufferPool::Slab slab = pool.acquire(2048);
  pool.release(slab);
  EXPECT_GT(pool.counters().bytes_cached, 0u);
  pool.trim();
  EXPECT_EQ(pool.counters().bytes_cached, 0u);
}

TEST(BufferPoolTest, CountersTrackOutstandingBytes) {
  BufferPool pool;
  BufferPool::Slab a = pool.acquire(100);
  BufferPool::Slab b = pool.acquire(5000);
  PoolCounters c = pool.counters();
  EXPECT_EQ(c.bytes_outstanding, a.capacity + b.capacity);
  pool.release(a);
  pool.release(b);
  c = pool.counters();
  EXPECT_EQ(c.bytes_outstanding, 0u);
  EXPECT_EQ(c.bytes_cached, c.bytes_allocated);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseStaysConsistent) {
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        std::size_t want = 64u << ((i + t) % 6);
        BufferPool::Slab slab = pool.acquire(want);
        ASSERT_NE(slab.ptr, nullptr);
        slab.ptr[0] = static_cast<std::uint8_t>(i);
        slab.ptr[slab.capacity - 1] = static_cast<std::uint8_t>(t);
        pool.release(slab);
      }
    });
  }
  for (auto& th : threads) th.join();
  PoolCounters c = pool.counters();
  EXPECT_EQ(c.bytes_outstanding, 0u);
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(BufferPoolTest, SnapshotWhileWritersRunSeesNoTornValues) {
  // Regression test for counters(): the snapshot is lock-free atomic reads,
  // so a reader polling at full speed while writers churn must only ever see
  // plausible values — never a torn u64 or a counter running backwards.
  // (Under TSan this also proves the counter fields are race-free.)
  BufferPool pool;
  constexpr int kWriters = 4;
  constexpr int kIters = 5000;
  constexpr std::uint64_t kMaxSlab = 2048;  // largest class requested below
  constexpr std::uint64_t kOps =
      static_cast<std::uint64_t>(kWriters) * kIters;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    std::uint64_t last_hits = 0;
    std::uint64_t last_misses = 0;
    while (!done.load(std::memory_order_acquire)) {
      PoolCounters c = pool.counters();
      // Monotonic counters never run backwards between two snapshots.
      EXPECT_GE(c.hits, last_hits);
      EXPECT_GE(c.misses, last_misses);
      last_hits = c.hits;
      last_misses = c.misses;
      // Every field stays within what the workload could possibly produce;
      // a torn 64-bit read would blow straight through these ceilings.
      EXPECT_LE(c.hits + c.misses, kOps);
      EXPECT_LE(c.bytes_allocated, kOps * kMaxSlab);
      EXPECT_LE(c.bytes_cached, kOps * kMaxSlab);
      EXPECT_LE(c.bytes_outstanding,
                static_cast<std::uint64_t>(kWriters) * kMaxSlab);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        BufferPool::Slab slab = pool.acquire(64u << ((i + t) % 6));
        ASSERT_NE(slab.ptr, nullptr);
        slab.ptr[0] = static_cast<std::uint8_t>(i);
        pool.release(slab);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiescent totals are exact.
  PoolCounters c = pool.counters();
  EXPECT_EQ(c.hits + c.misses, kOps);
  EXPECT_EQ(c.bytes_outstanding, 0u);
  EXPECT_EQ(c.bytes_cached, c.bytes_allocated);
}

TEST(PooledBufferTest, VectorLikeBasics) {
  BufferPool pool;
  PooledBuffer buf(&pool);
  EXPECT_TRUE(buf.empty());
  buf.push_back(1);
  buf.push_back(2);
  std::uint8_t tail[] = {3, 4, 5};
  buf.append(tail, 3);
  ASSERT_EQ(buf.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(buf[i], i + 1);
  buf.resize(8);
  EXPECT_EQ(buf[7], 0u);  // zero-filled growth
  buf.resize(2);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(PooledBufferTest, ClearKeepsSlabForReuse) {
  BufferPool pool;
  PooledBuffer buf(&pool);
  buf.resize(1000);
  const std::uint8_t* ptr = buf.data();
  const std::size_t cap = buf.capacity();
  buf.clear();
  EXPECT_EQ(buf.capacity(), cap);
  buf.resize(cap);
  EXPECT_EQ(buf.data(), ptr);  // no round-trip through the pool
}

TEST(PooledBufferTest, CopyIsDeepAndMoveIsPointerStable) {
  BufferPool pool;
  PooledBuffer a(&pool);
  std::uint8_t bytes[] = {9, 8, 7, 6};
  a.assign(bytes);

  PooledBuffer b = a;  // deep copy
  ASSERT_EQ(b.size(), 4u);
  EXPECT_NE(b.data(), a.data());
  EXPECT_TRUE(a == b);
  b[0] = 0;
  EXPECT_EQ(a[0], 9u);
  EXPECT_TRUE(a != b);

  const std::uint8_t* ptr = a.data();
  PooledBuffer c = std::move(a);  // move keeps the heap pointer
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(PooledBufferTest, DestructionRecyclesIntoPool) {
  BufferPool pool;
  const std::uint8_t* ptr = nullptr;
  {
    PooledBuffer buf(&pool);
    buf.resize(512);
    ptr = buf.data();
  }
  BufferPool::Slab slab = pool.acquire(512);
  EXPECT_EQ(slab.ptr, ptr);
  EXPECT_EQ(pool.counters().hits, 1u);
  pool.release(slab);
}

}  // namespace
}  // namespace hs
