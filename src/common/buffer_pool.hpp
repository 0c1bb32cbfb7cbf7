// Thread-safe size-classed buffer pool and its vector-like RAII handle.
//
// The dedup datapath allocates the same handful of buffer shapes once per
// stream item (batch payload, per-block compressed output, GPU staging);
// the paper's lesson is that heterogeneous stream throughput is won or
// lost in exactly this per-item datapath overhead. BufferPool recycles
// those buffers: capacities are rounded up to a power-of-two class and
// released slabs return to the class free list, so a warmed pipeline runs
// allocation-free in the steady state (asserted by tests through the
// alloc_hook counters). A pool draws its slabs from one allocator: the
// heap by default, or pinned host memory for cudax's staging pool.
//
// PooledBuffer is the std::vector<uint8_t>-shaped handle call sites use.
// It deep-copies on copy (stream items must stay copyable) and keeps its
// heap pointer stable across moves, so spans into the buffer survive a
// move of the owning item.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats.hpp"

namespace hs {

/// Where a BufferPool's slabs come from. `allocate` returns null when it
/// cannot supply the bytes.
struct SlabAllocator {
  void* (*allocate)(std::size_t bytes);
  void (*deallocate)(void* ptr);
};

/// ::operator new / ::operator delete.
SlabAllocator heap_allocator();

/// Size-classed recycling arena for byte slabs. All methods are
/// thread-safe; handles hand slabs back from any thread.
class BufferPool {
 public:
  struct Slab {
    std::uint8_t* ptr = nullptr;
    std::size_t capacity = 0;
  };

  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 26;
  static constexpr std::size_t kDefaultMaxCachedBytes = std::size_t{256} << 20;

  /// `max_cached_bytes` bounds the free lists: a release that would exceed
  /// it frees the slab instead of caching it.
  explicit BufferPool(std::size_t max_cached_bytes = kDefaultMaxCachedBytes,
                      SlabAllocator allocator = heap_allocator());
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Process-wide pool used by default-constructed PooledBuffers.
  static BufferPool& Default();

  /// A slab of at least `min_bytes` capacity (power-of-two class; requests
  /// above kMaxClassBytes are exact-size one-offs that are never cached).
  /// An empty slab when the allocator cannot supply it; such a miss is not
  /// counted.
  Slab acquire(std::size_t min_bytes);

  /// Returns a slab to its class free list (or the heap when over the
  /// cache bound / oversized). Accepts default (null) slabs.
  void release(Slab slab);

  /// Frees every cached slab.
  void trim();

  /// Torn-read-safe snapshot (atomic per-field reads; does not take the
  /// pool mutex, so it is cheap to poll from a sampler thread).
  [[nodiscard]] PoolCounters counters() const;

 private:
  static std::size_t class_index(std::size_t capacity);
  static std::size_t class_capacity(std::size_t min_bytes);

  mutable std::mutex mu_;
  std::vector<std::vector<std::uint8_t*>> free_;
  AtomicPoolCounters counters_;
  std::size_t max_cached_bytes_;
  SlabAllocator allocator_;
};

/// A std::vector<uint8_t>-like byte buffer whose storage comes from a
/// BufferPool. Not thread-safe (like vector); destruction returns the slab
/// to the pool. Copy is a deep copy drawing from the same pool.
class PooledBuffer {
 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  PooledBuffer() = default;
  explicit PooledBuffer(BufferPool* pool) : pool_(pool) {}
  ~PooledBuffer() { reset(); }

  PooledBuffer(const PooledBuffer& other) : pool_(other.pool_) {
    assign(other.span());
  }
  PooledBuffer& operator=(const PooledBuffer& other) {
    if (this != &other) assign(other.span());
    return *this;
  }
  PooledBuffer(PooledBuffer&& other) noexcept
      : slab_(other.slab_), size_(other.size_), pool_(other.pool_) {
    other.slab_ = {};
    other.size_ = 0;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      slab_ = other.slab_;
      size_ = other.size_;
      pool_ = other.pool_;
      other.slab_ = {};
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::uint8_t* data() { return slab_.ptr; }
  [[nodiscard]] const std::uint8_t* data() const { return slab_.ptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slab_.capacity; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() { return slab_.ptr; }
  [[nodiscard]] iterator end() { return slab_.ptr + size_; }
  [[nodiscard]] const_iterator begin() const { return slab_.ptr; }
  [[nodiscard]] const_iterator end() const { return slab_.ptr + size_; }

  std::uint8_t& operator[](std::size_t i) { return slab_.ptr[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return slab_.ptr[i]; }

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {slab_.ptr, size_};
  }
  operator std::span<const std::uint8_t>() const { return span(); }
  operator std::span<std::uint8_t>() { return {slab_.ptr, size_}; }

  /// Drops the contents but keeps the slab for reuse.
  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > slab_.capacity) grow(n);
  }

  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::memset(slab_.ptr + size_, 0, n - size_);
    size_ = n;
  }

  void push_back(std::uint8_t b) {
    if (size_ == slab_.capacity) grow(size_ + 1);
    slab_.ptr[size_++] = b;
  }

  void append(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    reserve(size_ + n);
    std::memcpy(slab_.ptr + size_, p, n);
    size_ += n;
  }

  void assign(std::span<const std::uint8_t> bytes) {
    size_ = 0;
    append(bytes.data(), bytes.size());
  }

  /// Returns the slab to the pool and empties the buffer.
  void reset() {
    if (slab_.ptr != nullptr) pool().release(slab_);
    slab_ = {};
    size_ = 0;
  }

  friend bool operator==(const PooledBuffer& a, const PooledBuffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.slab_.ptr, b.slab_.ptr, a.size_) == 0);
  }
  friend bool operator!=(const PooledBuffer& a, const PooledBuffer& b) {
    return !(a == b);
  }

 private:
  BufferPool& pool() const {
    return pool_ != nullptr ? *pool_ : BufferPool::Default();
  }

  void grow(std::size_t min_capacity) {
    std::size_t want = slab_.capacity * 2;
    if (want < min_capacity) want = min_capacity;
    BufferPool::Slab next = pool().acquire(want);
    if (size_ > 0) std::memcpy(next.ptr, slab_.ptr, size_);
    if (slab_.ptr != nullptr) pool().release(slab_);
    slab_ = next;
  }

  BufferPool::Slab slab_;
  std::size_t size_ = 0;
  BufferPool* pool_ = nullptr;  ///< null = BufferPool::Default()
};

}  // namespace hs
