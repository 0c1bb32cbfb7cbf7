#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <mutex>

#include "common/buffer_pool.hpp"
#include "common/format.hpp"
#include "telemetry/queue_sampler.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::telemetry {

namespace {

std::atomic<bool> g_enabled{false};

// Shard slot allocator: a free list of owned slots [0, kSharedSlot).
// Threads that arrive while all owned slots are claimed use the shared
// overflow slot; releasing the shared slot is a no-op.
std::mutex& slot_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::size_t>& slot_free_list() {
  static std::vector<std::size_t>* list = [] {
    auto* l = new std::vector<std::size_t>;
    l->reserve(kSharedSlot);
    // Hand out low slots first: pop_back takes from the end.
    for (std::size_t s = kSharedSlot; s-- > 0;) l->push_back(s);
    return l;
  }();
  return *list;
}

std::size_t acquire_slot() {
  std::lock_guard<std::mutex> lock(slot_mutex());
  auto& free = slot_free_list();
  if (free.empty()) return kSharedSlot;
  std::size_t s = free.back();
  free.pop_back();
  return s;
}

void release_slot(std::size_t slot) {
  if (slot == kSharedSlot) return;
  std::lock_guard<std::mutex> lock(slot_mutex());
  slot_free_list().push_back(slot);
}

struct SlotHolder {
  std::size_t slot = acquire_slot();
  ~SlotHolder() { release_slot(slot); }
};

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names map
// '.' and any other illegal character to '_'.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9' && !out.empty()) || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::size_t this_thread_shard() {
  thread_local SlotHolder holder;
  return holder.slot;
}

std::size_t histogram_bucket(std::uint64_t value) {
  std::size_t b = static_cast<std::size_t>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

std::uint64_t histogram_bucket_upper(std::size_t bucket) {
  if (bucket + 1 >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

std::uint64_t histogram_bucket_lower(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the target sample, 1-based: ceil(p * count), at least 1.
  std::uint64_t rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count) + 0.9999999999);
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cumulative + buckets[b] >= rank) {
      double lo = static_cast<double>(histogram_bucket_lower(b));
      double hi = static_cast<double>(histogram_bucket_upper(b));
      // Position of the target inside this bucket, in (0, 1].
      double frac = static_cast<double>(rank - cumulative) /
                    static_cast<double>(buckets[b]);
      return lo + (hi - lo) * frac;
    }
    cumulative += buckets[b];
  }
  return static_cast<double>(histogram_bucket_upper(kHistogramBuckets - 1));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (const auto& row : rows_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[b] +=
          row.buckets[b].value.load(std::memory_order_relaxed);
    }
    snap.count += row.count.value.load(std::memory_order_relaxed);
    snap.sum += row.sum.value.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() {
  for (auto& row : rows_) {
    for (auto& b : row.buckets) b.value.store(0, std::memory_order_relaxed);
    row.count.value.store(0, std::memory_order_relaxed);
    row.sum.value.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Default() {
  static Registry* instance = new Registry;  // leaked: usable during exit
  return *instance;
}

Counter* Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void Registry::gauge_callback(std::string_view name,
                              std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.insert_or_assign(std::string(name), std::move(fn));
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  // Copy the callback list under the lock but evaluate outside it: a
  // callback may reach back into this registry (or take a pool mutex).
  std::vector<std::pair<std::string, std::function<double()>>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back({name, c->value()});
    }
    snap.gauges.reserve(gauges_.size() + callbacks_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.push_back({name, g->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.push_back({name, h->snapshot()});
    }
    callbacks.reserve(callbacks_.size());
    for (const auto& [name, fn] : callbacks_) callbacks.emplace_back(name, fn);
  }
  for (auto& [name, fn] : callbacks) {
    snap.gauges.push_back({name, fn ? fn() : 0.0});
  }
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->set(0.0);
  for (auto& [name, h] : histograms_) h->reset();
}

Status Registry::write_metrics(const std::string& path) const {
  MetricsSnapshot snap = snapshot();
  bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  return write_file(path, json ? snap.json() : snap.prometheus_text());
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::prometheus_text() const {
  std::string out;
  for (const auto& c : counters) {
    std::string n = prom_name(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + fmt_double(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.hist.buckets[b] == 0) continue;
      cumulative += h.hist.buckets[b];
      out += n + "_bucket{le=\"" +
             std::to_string(histogram_bucket_upper(b)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.hist.count) + "\n";
    out += n + "_sum " + std::to_string(h.hist.sum) + "\n";
    out += n + "_count " + std::to_string(h.hist.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(c.name) + "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(g.name) + "\": " + fmt_double(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(h.name) + "\": {\"count\": " +
           std::to_string(h.hist.count) +
           ", \"sum\": " + std::to_string(h.hist.sum) +
           ", \"p50\": " + fmt_double(h.hist.p50()) +
           ", \"p95\": " + fmt_double(h.hist.p95()) +
           ", \"p99\": " + fmt_double(h.hist.p99()) + ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.hist.buckets[b] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[" + std::to_string(histogram_bucket_upper(b)) + ", " +
             std::to_string(h.hist.buckets[b]) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

StreamInstrumentation default_instrumentation(std::string prefix) {
  StreamInstrumentation instr;
  if (!enabled()) return instr;
  instr.registry = &Registry::Default();
  SpanRecorder& spans = SpanRecorder::Default();
  instr.spans = spans.recording() ? &spans : nullptr;
  instr.sampler = &QueueDepthSampler::Default();
  instr.prefix = std::move(prefix);
  return instr;
}

void register_buffer_pool_gauges(Registry& registry, const BufferPool& pool,
                                 const std::string& prefix) {
  auto field = [&pool](std::uint64_t PoolCounters::* member) {
    return [&pool, member]() {
      return static_cast<double>(pool.counters().*member);
    };
  };
  registry.gauge_callback(prefix + ".hits", field(&PoolCounters::hits));
  registry.gauge_callback(prefix + ".misses", field(&PoolCounters::misses));
  registry.gauge_callback(prefix + ".bytes_allocated",
                          field(&PoolCounters::bytes_allocated));
  registry.gauge_callback(prefix + ".bytes_cached",
                          field(&PoolCounters::bytes_cached));
  registry.gauge_callback(prefix + ".bytes_outstanding",
                          field(&PoolCounters::bytes_outstanding));
}

}  // namespace hs::telemetry
