// hs::telemetry — low-overhead runtime metrics for the real pipelines.
//
// The modeled DES schedule (des/trace_export) shows where time *should* go;
// this subsystem measures where it actually goes. Three primitives:
//
//   Counter   — monotonic u64, per-thread shards, merged on snapshot.
//   Gauge     — last-written double (or a callback evaluated at snapshot).
//   Histogram — log2-bucketed u64 samples with p50/p95/p99 queries.
//
// Hot-path contract: add()/record()/set() take no locks and perform no heap
// allocation. Each metric owns a fixed array of cache-line-aligned shard
// rows; a thread claims a shard slot on first use (slot ids are recycled at
// thread exit through a free list) and thereafter updates its own row with a
// plain relaxed load+store. Threads beyond the shard budget share one
// overflow slot updated with fetch_add. Snapshots sum all rows with relaxed
// loads — readers never block writers and writers never block readers, so a
// metrics scrape mid-run costs the pipeline nothing.
//
// Registration (Registry::counter() etc.) takes a mutex and may allocate;
// call sites cache the returned pointer, which is stable for the life of the
// Registry. The whole subsystem is compiled in unconditionally and gated at
// runtime by telemetry::set_enabled() — when disabled the instrumented code
// paths reduce to one relaxed bool load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hs {
class BufferPool;
}  // namespace hs

namespace hs::telemetry {

class Registry;
class SpanRecorder;
class QueueDepthSampler;

/// Process-wide runtime gate. Default off: benches and tests that do not opt
/// in pay only a relaxed load per instrumentation point.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Number of shard slots per metric. Slot kSharedSlot is the overflow slot
/// shared (via fetch_add) by threads alive while all owned slots are taken.
inline constexpr std::size_t kShards = 64;
inline constexpr std::size_t kSharedSlot = kShards - 1;

/// The calling thread's shard slot, assigned on first call and released back
/// to a free list when the thread exits. Always < kShards.
[[nodiscard]] std::size_t this_thread_shard();

namespace internal {

struct Cell {
  std::atomic<std::uint64_t> value{0};
};

/// Owned slots are written only by their owning thread, so a relaxed
/// load+store (a plain increment in the generated code) suffices; the
/// overflow slot is shared between threads and needs the RMW.
inline void cell_add(Cell& cell, std::size_t slot, std::uint64_t n) {
  if (slot == kSharedSlot) {
    cell.value.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.value.store(cell.value.load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
  }
}

}  // namespace internal

/// Monotonic counter. add() is wait-free and allocation-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    std::size_t slot = this_thread_shard();
    internal::cell_add(rows_[slot].v, slot, n);
  }

  /// Sum over all shards (relaxed; concurrent adds may or may not be seen).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& r : rows_) {
      total += r.v.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zero all shards (test/bench use; racy vs concurrent writers by design).
  void reset() {
    for (auto& r : rows_) r.v.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Row {
    internal::Cell v;
  };
  std::array<Row, kShards> rows_{};
};

/// Last-written double. A single atomic — gauges are written rarely
/// (pool sizes, sampler depths), so sharding would be wasted memory.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof b);
    return b;
  }
  static double decode(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof v);
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Number of log2 buckets. Bucket 0 holds the value 0; bucket b >= 1 holds
/// values in [2^(b-1), 2^b - 1]; the last bucket also absorbs everything
/// above its lower bound.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index for a sample: bit_width(v) clamped to the last bucket.
[[nodiscard]] std::size_t histogram_bucket(std::uint64_t value);
/// Inclusive upper bound of a bucket (2^b - 1; last bucket is u64 max).
[[nodiscard]] std::uint64_t histogram_bucket_upper(std::size_t bucket);
/// Inclusive lower bound of a bucket (0, then 2^(b-1)).
[[nodiscard]] std::uint64_t histogram_bucket_lower(std::size_t bucket);

/// Merged view of one histogram, with percentile interpolation.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// p in [0,1]. Finds the bucket holding the p-th sample and interpolates
  /// linearly inside its [lower, upper] range; exact to within one bucket
  /// (a factor-of-2 band, which is the resolution log2 bucketing buys).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  [[nodiscard]] double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

/// Log2-bucketed histogram of u64 samples (typically nanoseconds or queue
/// depths). record() is wait-free and allocation-free. Memory: kShards rows
/// of (kHistogramBuckets + 2) u64 cells ≈ 34 KiB per histogram.
class Histogram {
 public:
  void record(std::uint64_t value) {
    std::size_t slot = this_thread_shard();
    Row& row = rows_[slot];
    internal::cell_add(row.buckets[histogram_bucket(value)], slot, 1);
    internal::cell_add(row.count, slot, 1);
    internal::cell_add(row.sum, slot, value);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  // The row, not each cell, is cache-line aligned: only the owning thread
  // writes a row, so intra-row false sharing cannot occur.
  struct alignas(64) Row {
    std::array<internal::Cell, kHistogramBuckets> buckets{};
    internal::Cell count{};
    internal::Cell sum{};
  };
  std::array<Row, kShards> rows_{};
};

/// Point-in-time view of every metric in a Registry, sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Prometheus text exposition (metric names sanitized to [a-zA-Z0-9_:];
  /// histograms emit cumulative _bucket{le=...}, _sum, _count series).
  [[nodiscard]] std::string prometheus_text() const;
  /// JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string json() const;

  /// Lookup helpers for tests/benches; nullptr when absent.
  [[nodiscard]] const CounterValue* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeValue* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view name) const;
};

/// Named metric registry. Lookup/creation is mutex-guarded and returns
/// stable pointers; the hot path never goes through the registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default registry (leaked singleton, safe at exit).
  static Registry& Default();

  /// Find-or-create. The returned pointer is valid for the Registry's life.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Register a gauge whose value is computed at snapshot time (pool sizes,
  /// etc.). Re-registering a name replaces the callback.
  void gauge_callback(std::string_view name, std::function<double()> fn);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Write snapshot to a file: ".json" suffix selects the JSON exporter,
  /// anything else gets Prometheus text.
  [[nodiscard]] Status write_metrics(const std::string& path) const;

  /// Zero every counter/histogram and drop gauge values (registrations and
  /// cached pointers stay valid). Test/bench use.
  void reset_values();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::function<double()>, std::less<>> callbacks_;
};

/// Bundle of instrumentation sinks a pipeline should report into. All-null
/// means "not instrumented". `prefix` namespaces the metric names
/// ("flow.stage0.svc_ns" etc.).
struct StreamInstrumentation {
  Registry* registry = nullptr;
  SpanRecorder* spans = nullptr;
  QueueDepthSampler* sampler = nullptr;
  std::string prefix;

  [[nodiscard]] bool active() const {
    return registry != nullptr || spans != nullptr || sampler != nullptr;
  }
};

/// The default sinks (Registry/SpanRecorder/QueueDepthSampler singletons)
/// when telemetry is enabled; an inactive bundle otherwise. Pipelines call
/// this when no explicit instrumentation was supplied, which is how
/// `--metrics`/`--trace` reach the dedup/mandel pipelines without touching
/// their signatures.
[[nodiscard]] StreamInstrumentation default_instrumentation(
    std::string prefix = "flow");

/// Export `pool`'s counters as gauge callbacks ("<prefix>.hits",
/// ".misses", ".bytes_allocated", ".bytes_cached", ".bytes_outstanding").
/// The pool must outlive the registry's scrapes.
void register_buffer_pool_gauges(Registry& registry, const BufferPool& pool,
                                 const std::string& prefix);

}  // namespace hs::telemetry
