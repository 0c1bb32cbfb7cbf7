// Streaming statistics accumulator (Welford) used to report the paper's
// "arithmetic means and standard deviations over N samples", plus the
// counter block of the recycling allocator (common::BufferPool, whose
// instances are the heap pool and cudax's pinned staging pool).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace hs {

/// Counters of a recycling buffer pool. A hit hands back a cached slab
/// without touching the heap; a miss allocates. bytes_allocated is
/// cumulative (how much the pool ever requested from the allocator);
/// bytes_cached / bytes_outstanding are the current split of that memory
/// between the free lists and live handles.
struct PoolCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_cached = 0;
  std::uint64_t bytes_outstanding = 0;
};

/// The pools' internal bookkeeping form of PoolCounters. Each field is an
/// individually atomic u64 so a snapshot never observes a torn value, no
/// matter which lock (if any) the mutating path holds — a metrics scrape
/// from the telemetry sampler thread reads these at high frequency without
/// contending the pool mutex. Relaxed ordering is sufficient: fields are
/// independent statistics, not a consistency group (a snapshot taken during
/// an acquire may see the hit counted before bytes_cached shrinks).
struct AtomicPoolCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_cached{0};
  std::atomic<std::uint64_t> bytes_outstanding{0};

  /// Torn-read-safe copy for reporting.
  [[nodiscard]] PoolCounters snapshot() const {
    PoolCounters c;
    c.hits = hits.load(std::memory_order_relaxed);
    c.misses = misses.load(std::memory_order_relaxed);
    c.bytes_allocated = bytes_allocated.load(std::memory_order_relaxed);
    c.bytes_cached = bytes_cached.load(std::memory_order_relaxed);
    c.bytes_outstanding = bytes_outstanding.load(std::memory_order_relaxed);
    return c;
  }
};

/// Single-pass mean / variance / min / max accumulator.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  /// Population variance (the paper reports stddev over a fixed sample set).
  [[nodiscard]] double variance() const {
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  /// Sample (Bessel-corrected) variance; 0 when n < 2.
  [[nodiscard]] double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double sample_stddev() const {
    return std::sqrt(sample_variance());
  }

  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    double delta = other.mean_ - mean_;
    std::size_t total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) /
                           static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    n_ = total;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace hs
