#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/alloc_hook.hpp"
#include "common/buffer_pool.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

std::optional<double> Samples::percentile(double p) {
  const std::size_t n = values_.size();
  if (n == 0 || !(p > 0.0 && p <= 1.0)) return std::nullopt;
  // k = ceil(p * n); the epsilon keeps a product that lands a rounding error
  // above an integer (0.99 * 1000) on that integer.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const std::size_t k =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
  if (n - k < kMinBeyond) return std::nullopt;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return values_[k - 1];
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Ledger::add(std::string_view phase, double seconds) {
  for (auto& [name, total] : phases_) {
    if (name == phase) {
      total += seconds;
      return;
    }
  }
  phases_.emplace_back(std::string(phase), seconds);
}

double Ledger::phase(std::string_view name) const {
  for (const auto& [phase_name, total] : phases_) {
    if (phase_name == name) return total;
  }
  return 0.0;
}

double Ledger::attributed() const {
  double sum = 0;
  for (const auto& entry : phases_) sum += entry.second;
  return sum;
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::fail(std::string why) { errors_.push_back(std::move(why)); }

double Outcome::require(std::optional<double> value, std::string_view what) {
  if (value.has_value()) return *value;
  fail(std::string(what) + ": percentile refused, fewer than " +
       std::to_string(kMinBeyond) + " samples beyond it");
  return 0.0;
}

std::string Outcome::json() const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // A percentile past the last good sample is +inf (over any limit); JSON
    // has no infinity, so it prints as the largest double.
    const double v = std::isfinite(m.value)
                         ? m.value
                         : std::numeric_limits<double>::max();
    char number[32];
    std::snprintf(number, sizeof number, "%.17g", v);
    if (i != 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void emit_e2e(Outcome& out, double work_per_s, std::optional<double> p50_ms,
              std::optional<double> p99_ms, double max_rate_per_s,
              const std::vector<double>& setup_s, double peak_rss_mb) {
  out.metric("work_per_s", work_per_s, "work/s");
  out.metric("p50_ms", out.require(p50_ms, "p50_ms"), "ms");
  out.metric("p99_ms", out.require(p99_ms, "p99_ms"), "ms");
  out.metric("max_rate_per_s", max_rate_per_s, "1/s");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb, "MiB");
}

std::vector<double> timed_setups(int reps, const std::function<void()>& build,
                                 const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep != 0 && teardown) teardown();
    const auto t0 = Clock::now();
    build();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return seconds;
}

ClosedLoop closed_loop(double seconds, const TimedOp& op, Samples& latency_ms,
                       Outcome& out) {
  ClosedLoop loop;
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  while (ops < kMinOps || seconds_between(start, Clock::now()) < seconds) {
    ++ops;
    if (const std::optional<double> s = op()) {
      ++loop.ok;
      latency_ms.add(*s * 1e3);
    } else {
      latency_ms.add_failed();
    }
  }
  loop.window_s = seconds_between(start, Clock::now());
  out.attempted += ops;
  out.failed += ops - loop.ok;
  if (loop.ok != ops) {
    out.fail(std::to_string(ops - loop.ok) + " ops differ from the reference");
  }
  return loop;
}

SpanSum span_sum(std::string_view name) {
  SpanSum sum;
  const auto json = hs::telemetry::SpanRecorder::Default().chrome_trace_json();
  if (!json.ok()) return sum;
  const std::string& text = json.value();
  const std::string key = "\"name\":\"" + std::string(name) + "\"";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + key.size())) {
    const std::size_t dur = text.find("\"dur\":", at);
    if (dur == std::string::npos) break;
    sum.seconds += std::strtod(text.c_str() + dur + 6, nullptr) / 1e6;
    ++sum.count;
  }
  return sum;
}

TracedWindow traced_window(double seconds, const std::function<bool()>& op) {
  constexpr int kBlockOps = 8;
  hs::telemetry::Registry& registry = hs::telemetry::Registry::Default();
  registry.reset_values();
  const CounterMark mark = mark_counters();
  double on_s = 0;
  double off_s = 0;
  std::uint64_t on_ops = 0;
  std::uint64_t off_ops = 0;
  std::uint64_t failed = 0;
  const auto start = Clock::now();
  for (int block = 0;
       block < 4 || seconds_between(start, Clock::now()) < seconds; ++block) {
    const bool on = block % 2 == 1;
    hs::telemetry::set_enabled(on);
    for (int i = 0; i < kBlockOps; ++i) {
      const auto t0 = Clock::now();
      const bool ok = op();
      const double dt = seconds_between(t0, Clock::now());
      if (!ok) ++failed;
      (on ? on_s : off_s) += dt;
      ++(on ? on_ops : off_ops);
    }
  }
  hs::telemetry::set_enabled(false);

  TracedWindow w;
  w.ops = on_ops + off_ops;
  w.failed = failed;
  w.overhead_pct = 100.0 * ((on_s / static_cast<double>(on_ops)) /
                                (off_s / static_cast<double>(off_ops)) -
                            1.0);
  read_layers(registry.snapshot(), on_s, on_ops, mark, w);
  return w;
}

CounterMark mark_counters() {
  const hs::PoolCounters pool = hs::BufferPool::Default().counters();
  return {hs::heap_alloc_count(), pool.hits, pool.misses};
}

void read_layers(const hs::telemetry::MetricsSnapshot& snap,
                 double busy_wall_s, std::uint64_t telemetry_ops,
                 const CounterMark& mark, TracedWindow& w) {
  for (const auto& h : snap.histograms) {
    if (h.name.ends_with(".svc_ns")) {
      w.busy_share_max =
          std::max(w.busy_share_max,
                   static_cast<double>(h.hist.sum) / 1e9 / busy_wall_s);
    }
  }
  std::uint64_t queue_full = 0;
  for (const auto& c : snap.counters) {
    if (c.name.ends_with(".queue_full")) queue_full += c.value;
  }
  w.queue_full_per_op =
      static_cast<double>(queue_full) / static_cast<double>(telemetry_ops);
  w.heap_per_op = static_cast<double>(hs::heap_alloc_count() - mark.allocs) /
                  static_cast<double>(w.ops);
  const hs::PoolCounters pool = hs::BufferPool::Default().counters();
  const double hits = static_cast<double>(pool.hits - mark.pool_hits);
  const double misses = static_cast<double>(pool.misses - mark.pool_misses);
  w.pool_miss_ratio = hits + misses > 0 ? misses / (hits + misses) : 0.0;
}

void emit_generic(const TracedWindow& w, double unattributed_pct,
                  Outcome& out) {
  out.attempted += w.ops;
  out.failed += w.failed;
  if (w.failed != 0) {
    out.fail(std::to_string(w.failed) + " traced ops failed verification");
  }
  out.metric("unattributed_pct", unattributed_pct, "%");
  out.metric("telemetry.overhead_pct", w.overhead_pct, "%");
  out.metric("flow.busy_share_max", w.busy_share_max, "ratio");
  out.metric("flow.queue_full_per_op", w.queue_full_per_op, "count");
  out.metric("alloc.heap_per_op", w.heap_per_op, "count");
  out.metric("buffer_pool.miss_ratio", w.pool_miss_ratio, "ratio");
}

}  // namespace perfbench
