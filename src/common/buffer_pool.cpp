#include "common/buffer_pool.hpp"

#include <bit>
#include <new>

namespace hs {
namespace {

constexpr std::size_t kNumClasses = 21;  // 64B (2^6) .. 64MB (2^26)

}  // namespace

SlabAllocator heap_allocator() {
  return {[](std::size_t bytes) { return ::operator new(bytes); },
          [](void* ptr) { ::operator delete(ptr); }};
}

BufferPool::BufferPool(std::size_t max_cached_bytes, SlabAllocator allocator)
    : free_(kNumClasses),
      max_cached_bytes_(max_cached_bytes),
      allocator_(allocator) {}

BufferPool::~BufferPool() { trim(); }

BufferPool& BufferPool::Default() {
  // Leaked singleton: handles may outlive static destruction order.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::size_t BufferPool::class_capacity(std::size_t min_bytes) {
  if (min_bytes <= kMinClassBytes) return kMinClassBytes;
  return std::bit_ceil(min_bytes);
}

std::size_t BufferPool::class_index(std::size_t capacity) {
  // capacity is a power of two in [kMinClassBytes, kMaxClassBytes].
  return static_cast<std::size_t>(std::countr_zero(capacity)) - 6;
}

BufferPool::Slab BufferPool::acquire(std::size_t min_bytes) {
  const std::size_t cap = class_capacity(min_bytes);
  if (cap <= kMaxClassBytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& list = free_[class_index(cap)];
    if (!list.empty()) {
      Slab slab{list.back(), cap};
      list.pop_back();
      counters_.hits.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_cached.fetch_sub(cap, std::memory_order_relaxed);
      counters_.bytes_outstanding.fetch_add(cap, std::memory_order_relaxed);
      return slab;
    }
  }
  // Miss: allocate outside the lock. Oversize requests get the exact size
  // and are never cached.
  const std::size_t alloc = cap <= kMaxClassBytes ? cap : min_bytes;
  Slab slab{static_cast<std::uint8_t*>(allocator_.allocate(alloc)), alloc};
  if (slab.ptr == nullptr) return {};
  counters_.misses.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_allocated.fetch_add(alloc, std::memory_order_relaxed);
  counters_.bytes_outstanding.fetch_add(alloc, std::memory_order_relaxed);
  return slab;
}

void BufferPool::release(Slab slab) {
  if (slab.ptr == nullptr) return;
  counters_.bytes_outstanding.fetch_sub(slab.capacity,
                                        std::memory_order_relaxed);
  if (slab.capacity <= kMaxClassBytes &&
      std::has_single_bit(slab.capacity)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (counters_.bytes_cached.load(std::memory_order_relaxed) +
            slab.capacity <=
        max_cached_bytes_) {
      free_[class_index(slab.capacity)].push_back(slab.ptr);
      counters_.bytes_cached.fetch_add(slab.capacity,
                                       std::memory_order_relaxed);
      return;
    }
  }
  allocator_.deallocate(slab.ptr);
}

void BufferPool::trim() {
  std::vector<std::vector<std::uint8_t*>> drained(kNumClasses);
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(free_);
    counters_.bytes_cached.store(0, std::memory_order_relaxed);
  }
  for (auto& list : drained)
    for (std::uint8_t* ptr : list) allocator_.deallocate(ptr);
}

PoolCounters BufferPool::counters() const { return counters_.snapshot(); }

}  // namespace hs
