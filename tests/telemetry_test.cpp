// Tests for hs::telemetry: histogram bucket math, sharded counters under
// concurrent writers, percentile queries against a sorted-vector oracle,
// Chrome-trace export schema (parsed back with a minimal JSON reader),
// queue-depth sampler lifecycle, and the zero-allocation hot-path contract.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "flow/adapters.hpp"
#include "flow/pipeline.hpp"
#include "telemetry/queue_sampler.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HS_TEST_SANITIZED 1
#endif
#endif
#ifndef HS_TEST_SANITIZED
#define HS_TEST_SANITIZED 0
#endif

namespace hs::telemetry {
namespace {

// ---- minimal JSON reader (enough to parse back exported documents) --------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;

  [[nodiscard]] const JsonObject* object() const {
    return std::get_if<JsonObject>(&v);
  }
  [[nodiscard]] const JsonArray* array() const {
    return std::get_if<JsonArray>(&v);
  }
  [[nodiscard]] const std::string* str() const {
    return std::get_if<std::string>(&v);
  }
  [[nodiscard]] const double* number() const {
    return std::get_if<double>(&v);
  }
  [[nodiscard]] const JsonValue* field(const std::string& key) const {
    const JsonObject* o = object();
    if (o == nullptr) return nullptr;
    auto it = o->find(key);
    return it == o->end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  std::optional<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (!v.has_value() || pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return std::nullopt;
            pos_ += 4;  // schema tests don't need the code point itself
            out += '?';
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return out;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      JsonObject obj;
      skip_ws();
      if (consume('}')) return JsonValue{obj};
      while (true) {
        auto key = string();
        if (!key.has_value() || !consume(':')) return std::nullopt;
        auto val = value();
        if (!val.has_value()) return std::nullopt;
        obj.emplace(std::move(*key), std::move(*val));
        if (consume(',')) continue;
        if (consume('}')) return JsonValue{std::move(obj)};
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      JsonArray arr;
      skip_ws();
      if (consume(']')) return JsonValue{arr};
      while (true) {
        auto val = value();
        if (!val.has_value()) return std::nullopt;
        arr.push_back(std::move(*val));
        if (consume(',')) continue;
        if (consume(']')) return JsonValue{std::move(arr)};
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = string();
      if (!s.has_value()) return std::nullopt;
      return JsonValue{std::move(*s)};
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue{true};
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue{false};
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{nullptr};
    }
    // number
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    try {
      return JsonValue{std::stod(std::string(s_.substr(start, pos_ - start)))};
    } catch (...) {
      return std::nullopt;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// ---- histogram bucket boundaries ------------------------------------------

TEST(HistogramBucketTest, ZeroAndOne) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket_lower(0), 0u);
  EXPECT_EQ(histogram_bucket_upper(0), 0u);
  EXPECT_EQ(histogram_bucket_lower(1), 1u);
  EXPECT_EQ(histogram_bucket_upper(1), 1u);
}

TEST(HistogramBucketTest, PowerOfTwoBoundaries) {
  for (std::size_t b = 1; b < kHistogramBuckets; ++b) {
    const std::uint64_t lo = histogram_bucket_lower(b);
    const std::uint64_t hi = histogram_bucket_upper(b);
    EXPECT_LE(lo, hi);
    EXPECT_EQ(histogram_bucket(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(histogram_bucket(hi), b) << "upper bound of bucket " << b;
    if (b + 1 < kHistogramBuckets) {
      EXPECT_EQ(histogram_bucket(hi + 1), b + 1)
          << "first value past bucket " << b;
    }
  }
  // The last bucket absorbs everything above its lower bound.
  EXPECT_EQ(histogram_bucket(~0ull), kHistogramBuckets - 1);
}

TEST(HistogramBucketTest, BucketsPartitionTheRange) {
  // Consecutive buckets tile [0, 2^63) without gaps or overlap.
  for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    EXPECT_EQ(histogram_bucket_upper(b) + 1, histogram_bucket_lower(b + 1));
  }
}

// ---- counters: sharding and merge -----------------------------------------

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentWritersMergeExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(CounterTest, MoreThreadsThanShardsSpillToSharedSlot) {
  // Hold > kShards threads alive at once so at least some must use the
  // shared overflow slot; no increment may be lost.
  Counter c;
  constexpr int kThreads = static_cast<int>(kShards) + 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      c.add();  // claims this thread's slot (or the shared one)
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 999; ++i) c.add();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * 1000);
}

TEST(HistogramTest, ConcurrentWritersMergeExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// ---- percentiles vs sorted-vector oracle ----------------------------------

TEST(HistogramTest, PercentilesMatchOracleWithinBucketResolution) {
  // Deterministic pseudo-random samples spanning several buckets.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % 1000000);
  }
  Histogram h;
  for (std::uint64_t v : values) h.record(v);
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double p : {0.50, 0.90, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    const std::uint64_t oracle = sorted[rank - 1];
    const double est = snap.percentile(p);
    // Log2 bucketing is exact to the bucket: the estimate must land in the
    // same power-of-two band as the oracle sample of the same rank.
    EXPECT_EQ(histogram_bucket(static_cast<std::uint64_t>(est)),
              histogram_bucket(oracle))
        << "p=" << p << " est=" << est << " oracle=" << oracle;
  }
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.snapshot().percentile(0.5), 0.0);  // empty
  h.record(42);
  HistogramSnapshot one = h.snapshot();
  // A single sample: every percentile lands in its bucket.
  EXPECT_EQ(histogram_bucket(static_cast<std::uint64_t>(one.p50())),
            histogram_bucket(42));
  EXPECT_EQ(one.mean(), 42.0);
}

// ---- gauges and registry ---------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  Registry reg;
  Counter* c = reg.counter("x.items");
  EXPECT_EQ(reg.counter("x.items"), c);
  Gauge* g = reg.gauge("x.level");
  g->set(2.5);
  EXPECT_EQ(reg.gauge("x.level"), g);
  EXPECT_EQ(g->value(), 2.5);
}

TEST(RegistryTest, SnapshotAndExporters) {
  Registry reg;
  reg.counter("a.items")->add(7);
  reg.gauge("a.level")->set(1.5);
  reg.gauge_callback("a.cb", [] { return 9.0; });
  Histogram* h = reg.histogram("a.lat_ns");
  h->record(100);
  h->record(200);

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("a.items"), nullptr);
  EXPECT_EQ(snap.find_counter("a.items")->value, 7u);
  ASSERT_NE(snap.find_gauge("a.cb"), nullptr);
  EXPECT_EQ(snap.find_gauge("a.cb")->value, 9.0);
  ASSERT_NE(snap.find_histogram("a.lat_ns"), nullptr);
  EXPECT_EQ(snap.find_histogram("a.lat_ns")->hist.count, 2u);
  EXPECT_EQ(snap.find_counter("missing"), nullptr);

  const std::string prom = snap.prometheus_text();
  EXPECT_NE(prom.find("a_items 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE a_lat_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("a_lat_ns_count 2"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  auto doc = JsonReader(snap.json()).parse();
  ASSERT_TRUE(doc.has_value()) << "metrics JSON does not parse";
  const JsonValue* counters = doc->field("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* items = counters->field("a.items");
  ASSERT_NE(items, nullptr);
  ASSERT_NE(items->number(), nullptr);
  EXPECT_EQ(*items->number(), 7.0);
  const JsonValue* hists = doc->field("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_NE(hists->field("a.lat_ns"), nullptr);
  ASSERT_NE(hists->field("a.lat_ns")->field("p99"), nullptr);
}

TEST(RegistryTest, ResetValuesKeepsRegistrations) {
  Registry reg;
  Counter* c = reg.counter("r.items");
  c->add(5);
  reg.reset_values();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.counter("r.items"), c);
}

// ---- enable gate -----------------------------------------------------------

TEST(EnableGateTest, DefaultInstrumentationFollowsTheGate) {
  ASSERT_FALSE(enabled()) << "telemetry must default off";
  EXPECT_FALSE(default_instrumentation().active());
  EXPECT_EQ(tracer(), nullptr);

  set_enabled(true);
  StreamInstrumentation instr = default_instrumentation("test");
  EXPECT_TRUE(instr.active());
  EXPECT_EQ(instr.registry, &Registry::Default());
  EXPECT_EQ(instr.prefix, "test");
  // Spans only flow when the recorder is also recording.
  EXPECT_EQ(instr.spans, nullptr);
  EXPECT_EQ(tracer(), nullptr);
  SpanRecorder::Default().set_recording(true);
  EXPECT_EQ(default_instrumentation().spans, &SpanRecorder::Default());
  EXPECT_EQ(tracer(), &SpanRecorder::Default());
  SpanRecorder::Default().set_recording(false);
  set_enabled(false);
  EXPECT_FALSE(default_instrumentation().active());
}

// ---- span recorder ---------------------------------------------------------

TEST(SpanRecorderTest, RequiresRecordedSpans) {
  SpanRecorder rec;
  EXPECT_EQ(rec.chrome_trace_json().status().code(),
            ErrorCode::kFailedPrecondition);
  rec.record("ignored", 0, 10);  // recording off: dropped silently
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(SpanRecorderTest, ChromeTraceParsesBackWithSchema) {
  SpanRecorder rec;
  rec.set_recording(true);
  rec.set_thread_name("main");
  const char* h2d = rec.intern("gpu.h2d");
  rec.record(h2d, 1000, 2500);
  rec.record("stage \"x\"", 3000, 4000);  // quote must be escaped
  std::thread worker([&rec] {
    rec.set_thread_name("w0");
    rec.record("gpu.kernel", 5000, 9000);
  });
  worker.join();

  auto json = rec.chrome_trace_json();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  auto doc = JsonReader(json.value()).parse();
  ASSERT_TRUE(doc.has_value()) << "trace JSON does not parse";

  const JsonValue* events = doc->field("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonArray* arr = events->array();
  ASSERT_NE(arr, nullptr);

  int meta = 0;
  int complete = 0;
  bool saw_kernel = false;
  for (const JsonValue& e : *arr) {
    const JsonValue* ph = e.field("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ph->str(), nullptr);
    ASSERT_NE(e.field("pid"), nullptr);
    ASSERT_NE(e.field("tid"), nullptr);
    if (*ph->str() == "M") {
      ++meta;
      ASSERT_NE(e.field("name")->str(), nullptr);
      EXPECT_EQ(*e.field("name")->str(), "thread_name");
      ASSERT_NE(e.field("args"), nullptr);
      ASSERT_NE(e.field("args")->field("name"), nullptr);
    } else {
      EXPECT_EQ(*ph->str(), "X");
      ++complete;
      ASSERT_NE(e.field("ts"), nullptr);
      ASSERT_NE(e.field("dur"), nullptr);
      ASSERT_NE(e.field("ts")->number(), nullptr);
      ASSERT_NE(e.field("dur")->number(), nullptr);
      const std::string& name = *e.field("name")->str();
      if (name == "gpu.kernel") {
        saw_kernel = true;
        EXPECT_EQ(*e.field("ts")->number(), 5.0);   // 5000 ns -> 5 us
        EXPECT_EQ(*e.field("dur")->number(), 4.0);  // 4000 ns -> 4 us
      }
    }
  }
  EXPECT_EQ(meta, 2);      // one track per thread
  EXPECT_EQ(complete, 3);  // all recorded spans exported
  EXPECT_TRUE(saw_kernel);
  EXPECT_NE(json.value().find("stage \\\"x\\\""), std::string::npos);
}

TEST(SpanRecorderTest, RingWrapCountsDropped) {
  SpanRecorder rec(/*ring_capacity=*/8);
  rec.set_recording(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record("s", i * 10000, i * 10000 + 5000);  // span i starts at i*10 us
  }
  EXPECT_EQ(rec.span_count(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  auto json = rec.chrome_trace_json();
  ASSERT_TRUE(json.ok());
  // Only the newest 8 spans survive; the oldest surviving starts at 120 us.
  EXPECT_EQ(json.value().find("\"ts\":110.000,"), std::string::npos);
  EXPECT_NE(json.value().find("\"ts\":120.000,"), std::string::npos);
}

TEST(SpanRecorderTest, ResetDropsSpansAndReEpochs) {
  SpanRecorder rec;
  rec.set_recording(true);
  rec.record("s", 0, 10);
  EXPECT_EQ(rec.span_count(), 1u);
  rec.reset();
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.chrome_trace_json().status().code(),
            ErrorCode::kFailedPrecondition);
}

// ---- queue depth sampler ---------------------------------------------------

TEST(QueueDepthSamplerTest, StartStopLifecycle) {
  Registry reg;
  QueueDepthSampler sampler(&reg);
  std::atomic<std::size_t> depth{3};
  const std::uint64_t id = sampler.add_queue(
      "q0", [&depth] { return depth.load(); }, /*capacity=*/12);
  EXPECT_EQ(sampler.queue_count(), 1u);

  ASSERT_TRUE(sampler.start(std::chrono::microseconds(100)).ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_EQ(sampler.start().code(), ErrorCode::kFailedPrecondition)
      << "double start must be rejected";
  const std::uint64_t before = sampler.sweeps();
  while (sampler.sweeps() < before + 3) std::this_thread::yield();
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_histogram("q0.depth"), nullptr);
  EXPECT_GE(snap.find_histogram("q0.depth")->hist.count, 3u);
  ASSERT_NE(snap.find_gauge("q0.depth_now"), nullptr);
  EXPECT_EQ(snap.find_gauge("q0.depth_now")->value, 3.0);
  ASSERT_NE(snap.find_gauge("q0.utilization"), nullptr);
  EXPECT_NEAR(snap.find_gauge("q0.utilization")->value, 0.25, 1e-9);

  // Restart after stop, then unregister while constructed samplers and
  // registries stay alive — no thread leaks (the fixture would hang).
  ASSERT_TRUE(sampler.start(std::chrono::microseconds(100)).ok());
  sampler.remove_queue(id);
  EXPECT_EQ(sampler.queue_count(), 0u);
  sampler.stop();
}

TEST(QueueDepthSamplerTest, NeverSampledQueueEmitsNoSeries) {
  Registry reg;
  QueueDepthSampler sampler(&reg);
  // Registered but never swept: a sampler started before any pipeline
  // registers stages (or never started at all) must not pollute the
  // registry with empty-series gauges/histograms.
  const std::uint64_t id =
      sampler.add_queue("ghost", [] { return std::size_t{0}; },
                        /*capacity=*/8);
  sampler.remove_queue(id);

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_histogram("ghost.depth"), nullptr);
  EXPECT_EQ(snap.find_gauge("ghost.depth_now"), nullptr);
  EXPECT_EQ(snap.find_gauge("ghost.utilization"), nullptr);

  // A queue that IS swept still materializes its series lazily.
  sampler.add_queue("live", [] { return std::size_t{2}; }, /*capacity=*/8);
  ASSERT_TRUE(sampler.start(std::chrono::microseconds(100)).ok());
  const std::uint64_t before = sampler.sweeps();
  while (sampler.sweeps() < before + 2) std::this_thread::yield();
  sampler.stop();
  snap = reg.snapshot();
  ASSERT_NE(snap.find_histogram("live.depth"), nullptr);
  ASSERT_NE(snap.find_gauge("live.depth_now"), nullptr);
  EXPECT_EQ(snap.find_gauge("live.depth_now")->value, 2.0);
  EXPECT_EQ(snap.find_histogram("ghost.depth"), nullptr)
      << "removing before any sweep must leave no trace";
}

TEST(QueueDepthSamplerTest, DestructorStopsRunningThread) {
  Registry reg;
  {
    QueueDepthSampler sampler(&reg);
    sampler.add_queue("q", [] { return std::size_t{1}; });
    ASSERT_TRUE(sampler.start(std::chrono::microseconds(100)).ok());
  }  // destructor must join without deadlock
  SUCCEED();
}

// ---- zero-allocation hot path ---------------------------------------------

TEST(HotPathTest, NoHeapAllocationsAfterWarmup) {
  if (HS_TEST_SANITIZED) {
    GTEST_SKIP() << "allocator interposed by sanitizer";
  }
  Registry reg;
  Counter* c = reg.counter("hot.items");
  Histogram* h = reg.histogram("hot.lat");
  Gauge* g = reg.gauge("hot.level");
  // Warmup: claim this thread's shard slot.
  c->add();
  h->record(1);
  g->set(0);

  const std::uint64_t before = heap_alloc_count();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    c->add();
    h->record(i);
    g->set(static_cast<double>(i));
  }
  EXPECT_EQ(heap_alloc_count() - before, 0u)
      << "metric hot path must not allocate";
}

TEST(HotPathTest, SpanRecordDoesNotAllocateAfterRingRegistration) {
  if (HS_TEST_SANITIZED) {
    GTEST_SKIP() << "allocator interposed by sanitizer";
  }
  SpanRecorder rec;
  rec.set_recording(true);
  rec.record("warm", 0, 1);  // registers this thread's ring
  const std::uint64_t before = heap_alloc_count();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    rec.record("warm", i, i + 1);
  }
  EXPECT_EQ(heap_alloc_count() - before, 0u)
      << "span hot path must not allocate";
}

// ---- end-to-end: a real flow pipeline reports into explicit sinks ----------

TEST(PipelineIntegrationTest, FlowPipelineReportsMetricsAndSpans) {
  Registry reg;
  SpanRecorder rec;
  rec.set_recording(true);
  QueueDepthSampler sampler(&reg);
  ASSERT_TRUE(sampler.start(std::chrono::microseconds(100)).ok());

  constexpr int kItems = 200;
  flow::PipelineOptions opts;
  opts.telemetry = {&reg, &rec, &sampler, "it"};
  flow::Pipeline pipe(opts);
  // The run's channels are registered before the source first runs. Hold
  // the first item until two more sweeps have started, so at least one full
  // sweep samples them even when the run would fit in one sampler period.
  pipe.add_stage(flow::make_source<int>(
                     [i = 0, &sampler]() mutable -> std::optional<int> {
                       if (i == 0) {
                         const std::uint64_t start = sampler.sweeps();
                         while (sampler.sweeps() < start + 2) {
                           std::this_thread::yield();
                         }
                       }
                       return i < kItems ? std::optional<int>(i++)
                                         : std::nullopt;
                     }),
                 "src");
  pipe.add_farm(flow::stage_factory<int, int>([](int v) { return v * 2; }),
                2, "work");
  long long sum = 0;
  pipe.add_stage(flow::make_sink<int>([&sum](int v) { sum += v; }), "sink");
  ASSERT_TRUE(pipe.run_and_wait().ok());
  sampler.stop();

  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1));

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("it.src.items"), nullptr);
  EXPECT_EQ(snap.find_counter("it.src.items")->value,
            static_cast<std::uint64_t>(kItems));
  const auto* w0 = snap.find_counter("it.work.w0.items");
  const auto* w1 = snap.find_counter("it.work.w1.items");
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w0->value + w1->value, static_cast<std::uint64_t>(kItems));
  ASSERT_NE(snap.find_histogram("it.src.svc_ns"), nullptr);
  // Every svc() call is timed, including the final one returning EOS.
  EXPECT_GE(snap.find_histogram("it.src.svc_ns")->hist.count,
            static_cast<std::uint64_t>(kItems));
  // The pipeline registered its channels with the sampler and removed them
  // on teardown.
  EXPECT_EQ(sampler.queue_count(), 0u);
  ASSERT_NE(snap.find_histogram("it.work.in.depth"), nullptr);

  auto json = rec.chrome_trace_json();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // Span names are the (prefix-free) unit names; worker threads also name
  // their tracks after the stage.
  EXPECT_NE(json.value().find("\"name\":\"src\""), std::string::npos);
  EXPECT_NE(json.value().find("\"name\":\"sink\""), std::string::npos);
  EXPECT_NE(json.value().find("work.w0"), std::string::npos);
}

}  // namespace
}  // namespace hs::telemetry
