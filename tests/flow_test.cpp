// Tests for the flow runtime: SPSC queue (including a concurrent FIFO
// property test), Item type erasure, pipelines, farms (ordered/unordered),
// scheduling policies, emit(), and error propagation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "flow/adapters.hpp"
#include "flow/item.hpp"
#include "flow/pipeline.hpp"
#include "flow/spsc_queue.hpp"

namespace hs::flow {
namespace {

// ---- SpscQueue ---------------------------------------------------------------

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int(i)));
  int spill = 99;
  EXPECT_FALSE(q.try_push(std::move(spill)));
  for (int i = 0; i < 4; ++i) {
    int v = -1;
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(q.try_pop(v));
}

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  SpscQueue<int> q1(1);
  EXPECT_EQ(q1.capacity(), 2u);
}

TEST(SpscQueueTest, MoveOnlyElements) {
  SpscQueue<std::unique_ptr<int>> q(8);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(5)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 5);
}

TEST(SpscQueueTest, DestructorReleasesQueuedElements) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    explicit Probe(std::shared_ptr<int> counter) : c(std::move(counter)) {}
    Probe(Probe&& o) noexcept : c(std::move(o.c)) {}
    Probe& operator=(Probe&& o) noexcept {
      c = std::move(o.c);
      return *this;
    }
    ~Probe() {
      if (c) ++*c;  // counts only destructions of live (unmoved) values
    }
  };
  {
    SpscQueue<Probe> q(8);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.try_push(Probe{counter}));
    }
  }
  EXPECT_EQ(*counter, 3);
}

TEST(SpscQueueTest, PeekDoesNotConsume) {
  SpscQueue<int> q(4);
  ASSERT_TRUE(q.try_push(42));
  int* p = nullptr;
  ASSERT_TRUE(q.try_peek(p));
  EXPECT_EQ(*p, 42);
  int v;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 42);
}

// Property: FIFO order and no loss/duplication under concurrent use.
TEST(SpscQueueTest, ConcurrentFifoProperty) {
  constexpr int kCount = 200000;
  SpscQueue<int> q(128);
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  long long sum = 0;
  int expected = 0;
  bool ordered = true;
  for (int received = 0; received < kCount;) {
    int v;
    if (q.try_pop(v)) {
      ordered = ordered && (v == expected);
      ++expected;
      sum += v;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(SpscQueueTest, CopyPushDoesNotTouchValueWhenFull) {
  SpscQueue<std::vector<int>> q(2);
  const std::vector<int> payload = {1, 2, 3};
  ASSERT_TRUE(q.try_push(payload));
  ASSERT_TRUE(q.try_push(payload));
  // Queue full: the const& overload must leave the argument untouched and
  // perform no construction.
  EXPECT_FALSE(q.try_push(payload));
  EXPECT_EQ(payload.size(), 3u);
  std::vector<int> out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, payload);
}

TEST(SpscQueueTest, BatchPushPopRoundTrip) {
  SpscQueue<int> q(8);
  int in[5] = {10, 11, 12, 13, 14};
  EXPECT_EQ(q.try_push_n(in, 5), 5u);
  int out[8] = {};
  EXPECT_EQ(q.try_pop_n(out, 8), 5u);  // pops only what is there
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], 10 + i);
  EXPECT_EQ(q.try_pop_n(out, 8), 0u);
}

TEST(SpscQueueTest, BatchPushIsPartialWhenNearlyFull) {
  SpscQueue<int> q(4);
  int a[3] = {1, 2, 3};
  EXPECT_EQ(q.try_push_n(a, 3), 3u);
  int b[4] = {4, 5, 6, 7};
  EXPECT_EQ(q.try_push_n(b, 4), 1u);  // one slot left
  EXPECT_EQ(b[1], 5);                 // items past the cut are untouched
  int full[2] = {8, 9};
  EXPECT_EQ(q.try_push_n(full, 2), 0u);
  int out[4];
  EXPECT_EQ(q.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(SpscQueueTest, BatchOpsAcrossWraparound) {
  SpscQueue<int> q(4);  // indices wrap every 4 operations
  int next = 0, expected = 0;
  for (int round = 0; round < 16; ++round) {
    int in[3];
    for (int& v : in) v = next++;
    ASSERT_EQ(q.try_push_n(in, 3), 3u);
    int out[3];
    ASSERT_EQ(q.try_pop_n(out, 3), 3u);
    for (int v : out) ASSERT_EQ(v, expected++);
  }
}

TEST(SpscQueueTest, BatchOpsMoveOnlyElements) {
  SpscQueue<std::unique_ptr<int>> q(8);
  std::unique_ptr<int> in[3];
  for (int i = 0; i < 3; ++i) in[i] = std::make_unique<int>(i);
  EXPECT_EQ(q.try_push_n(in, 3), 3u);
  for (const auto& p : in) EXPECT_EQ(p, nullptr);  // moved out
  std::unique_ptr<int> out[3];
  EXPECT_EQ(q.try_pop_n(out, 3), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*out[i], i);
}

// Property: batch producer against single-item consumer (and vice versa)
// preserves FIFO order with no loss or duplication.
TEST(SpscQueueTest, ConcurrentBatchFifoProperty) {
  constexpr int kCount = 100000;
  SpscQueue<int> q(64);
  std::thread producer([&] {
    int buf[16];
    int next = 0;
    while (next < kCount) {
      int want = std::min(16, kCount - next);
      for (int i = 0; i < want; ++i) buf[i] = next + i;
      std::size_t n = q.try_push_n(buf, static_cast<std::size_t>(want));
      if (n == 0) std::this_thread::yield();
      next += static_cast<int>(n);
    }
  });
  int expected = 0;
  int out[16];
  while (expected < kCount) {
    std::size_t n = q.try_pop_n(out, 16);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
}

TEST(SpscQueueTest, CapacityRoundingClampsAtOverflowBoundary) {
  // The round-up loop (`cap <<= 1`) used to wrap to 0 and spin forever for
  // requests above SIZE_MAX/2 + 1. The helper must clamp instead.
  constexpr std::size_t kMax = SpscQueue<int>::kMaxCapacity;
  static_assert(kMax == (std::numeric_limits<std::size_t>::max() >> 1) + 1);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(0), 2u);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(2), 2u);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(kMax), kMax);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(kMax - 1), kMax);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(kMax + 1), kMax);
  EXPECT_EQ(SpscQueue<int>::rounded_capacity(
                std::numeric_limits<std::size_t>::max()),
            kMax);
}

TEST(SpscQueueTest, SizeApproxNeverUnderflowsAgainstConcurrentPop) {
  // Regression: size_approx() loaded tail_ before head_, so a pop advancing
  // head between the two loads made `tail - head` wrap to a near-2^64 value
  // (seen by QueueDepthSampler as an absurd queue depth). Hammer pops against
  // a sampling thread; any sample above capacity() is the bug.
  constexpr int kCount = 200000;
  SpscQueue<int> q(16);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> worst{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::size_t depth = q.size_approx();
      std::size_t prev = worst.load(std::memory_order_relaxed);
      while (depth > prev &&
             !worst.compare_exchange_weak(prev, depth,
                                          std::memory_order_relaxed)) {
      }
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (q.try_push(int{i})) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int out = 0;
  for (int popped = 0; popped < kCount;) {
    if (q.try_pop(out)) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_LE(worst.load(), q.capacity());
}

// ---- Item ---------------------------------------------------------------------

TEST(ItemTest, EmptyByDefault) {
  Item item;
  EXPECT_FALSE(item.has_value());
}

TEST(ItemTest, StoresAndCasts) {
  Item item = Item::of<std::string>("hello");
  EXPECT_TRUE(item.is<std::string>());
  EXPECT_FALSE(item.is<int>());
  EXPECT_EQ(item.as<std::string>(), "hello");
}

TEST(ItemTest, TakeMovesOut) {
  Item item = Item::of<std::vector<int>>({1, 2, 3});
  std::vector<int> v = item.take<std::vector<int>>();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(item.has_value());
}

TEST(ItemTest, MakeInPlace) {
  Item item = Item::make<std::vector<int>>(5, 7);  // five sevens
  EXPECT_EQ(item.as<std::vector<int>>().size(), 5u);
  EXPECT_EQ(item.as<std::vector<int>>()[0], 7);
}

TEST(ItemTest, MoveTransfersOwnership) {
  Item a = Item::of<int>(3);
  Item b = std::move(a);
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.as<int>(), 3);
}

// ---- Pipeline ------------------------------------------------------------------

/// Source emitting 0..n-1.
std::unique_ptr<Node> counting_source(int n) {
  return make_source<int>([i = 0, n]() mutable -> std::optional<int> {
    return i < n ? std::optional<int>(i++) : std::nullopt;
  });
}

TEST(PipelineTest, SourceToSink) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(100), "src");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(PipelineTest, ThreeStageTransform) {
  Pipeline p;
  long long sum = 0;
  p.add_stage(counting_source(1000), "src");
  p.add_stage(make_stage<int, long long>([](int v) {
    return static_cast<long long>(v) * 2;
  }), "double");
  p.add_stage(make_sink<long long>([&](long long v) { sum += v; }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(sum, 999LL * 1000);
}

TEST(PipelineTest, ValidationErrors) {
  {
    Pipeline p;
    p.add_stage(counting_source(1), "only");
    EXPECT_EQ(p.run_and_wait().code(), ErrorCode::kInvalidArgument);
  }
  {
    Pipeline p;
    p.add_farm(stage_factory<int, int>([](int v) { return v; }),
               FarmOptions{.replicas = 2});
    p.add_stage(make_sink<int>([](int) {}), "sink");
    EXPECT_EQ(p.run_and_wait().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(PipelineTest, SecondRunRejected) {
  Pipeline p;
  p.add_stage(counting_source(1), "src");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(p.run_and_wait().code(), ErrorCode::kFailedPrecondition);
}

TEST(PipelineTest, StageExceptionPropagatesAsError) {
  Pipeline p;
  p.add_stage(counting_source(100000), "src");
  p.add_stage(make_stage<int, int>([](int v) -> int {
    if (v == 37) throw std::runtime_error("boom at 37");
    return v;
  }), "thrower");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  Status s = p.run_and_wait();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  EXPECT_NE(s.message().find("boom at 37"), std::string::npos);
}

TEST(PipelineTest, EmptyStreamFlushesCleanly) {
  Pipeline p;
  int count = 0;
  p.add_stage(counting_source(0), "src");
  p.add_stage(make_sink<int>([&](int) { ++count; }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(count, 0);
}

TEST(PipelineTest, SmallQueueCapacityStillCorrect) {
  PipelineOptions opts;
  opts.queue_capacity = 2;
  Pipeline p(opts);
  std::vector<int> got;
  p.add_stage(counting_source(5000), "src");
  p.add_stage(make_stage<int, int>([](int v) { return v + 1; }), "inc");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
}

TEST(PipelineTest, BlockingWaitModeWorks) {
  PipelineOptions opts;
  opts.wait_mode = WaitMode::kBlocking;
  opts.queue_capacity = 4;  // force both full and empty waits
  Pipeline p(opts);
  std::vector<int> got;
  p.add_stage(counting_source(3000), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v + 1; }),
             FarmOptions{.replicas = 3, .ordered = true}, "farm");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 3000u);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(PipelineTest, SourceEmitMultiplePerSvc) {
  // A source can emit() several items then return GoOn/Eos.
  class BurstSource final : public Node {
   public:
    SvcResult svc(Item) override {
      if (round_ == 3) return SvcResult::Eos();
      ++round_;
      for (int i = 0; i < 10; ++i) emit(Item::of<int>(round_ * 100 + i));
      return SvcResult::GoOn();
    }
   private:
    int round_ = 0;
  };
  Pipeline p;
  std::vector<int> got;
  p.add_stage(std::make_unique<BurstSource>(), "burst");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(got.size(), 30u);
  EXPECT_EQ(got.front(), 100);
  EXPECT_EQ(got.back(), 309);
}

/// Options that instrument a run into `registry` under the prefix "p".
PipelineOptions instrumented(telemetry::Registry& registry) {
  PipelineOptions opts;
  opts.telemetry.registry = &registry;
  opts.telemetry.prefix = "p";
  return opts;
}

/// The "<prefix>.<unit>.pinned_cpu" gauges in `registry`.
std::vector<telemetry::MetricsSnapshot::GaugeValue> pinned_cpu_gauges(
    const telemetry::Registry& registry) {
  std::vector<telemetry::MetricsSnapshot::GaugeValue> out;
  for (const auto& g : registry.snapshot().gauges) {
    if (g.name.ends_with(".pinned_cpu")) out.push_back(g);
  }
  return out;
}

TEST(PipelineTest, ReportsCountItems) {
  telemetry::Registry reg;
  Pipeline p(instrumented(reg));
  p.add_stage(counting_source(500), "src");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  // The source counts the items it sends, the sink the items it receives.
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  for (const char* name : {"p.src.items", "p.sink.items"}) {
    const auto* items = snap.find_counter(name);
    ASSERT_NE(items, nullptr) << name;
    EXPECT_EQ(items->value, 500u) << name;
  }
}

// ---- Farm ----------------------------------------------------------------------

TEST(FarmTest, UnorderedFarmProcessesAll) {
  Pipeline p;
  std::multiset<int> got;
  p.add_stage(counting_source(3000), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v * 3; }),
             FarmOptions{.replicas = 4}, "triple");
  p.add_stage(make_sink<int>([&](int v) { got.insert(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 3000u);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(got.count(i * 3), 1u);
}

TEST(FarmTest, OrderedFarmPreservesSequence) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(5000), "src");
  p.add_farm(stage_factory<int, int>([](int v) {
               // Uneven work so replicas genuinely race.
               volatile int spin = (v % 7) * 50;
               while (spin > 0) { spin = spin - 1; }
               return v;
             }),
             FarmOptions{.replicas = 5, .ordered = true}, "id");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(FarmTest, LeastLoadedFarmProcessesAll) {
  Pipeline p;
  std::multiset<int> got;
  p.add_stage(counting_source(3000), "src");
  p.add_farm(stage_factory<int, int>([](int v) {
               // One item class is slow, so the shallowest-queue choice
               // genuinely varies between pushes.
               if (v % 11 == 0) {
                 volatile int spin = 400;
                 while (spin > 0) { spin = spin - 1; }
               }
               return v;
             }),
             FarmOptions{.replicas = 4, .policy = SchedPolicy::kLeastLoaded},
             "ll");
  p.add_stage(make_sink<int>([&](int v) { got.insert(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 3000u);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(got.count(i), 1u);
}

TEST(FarmTest, LeastLoadedOrderedFarmPreservesSequence) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(4000), "src");
  p.add_farm(stage_factory<int, int>([](int v) {
               volatile int spin = (v % 5) * 60;
               while (spin > 0) { spin = spin - 1; }
               return v;
             }),
             FarmOptions{.replicas = 4,
                         .ordered = true,
                         .policy = SchedPolicy::kLeastLoaded},
             "ll");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 4000u);
  for (int i = 0; i < 4000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

/// True once `flag` is set, false if `limit` passed first.
bool wait_for_flag(const std::atomic<bool>& flag,
                   std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Farm worker whose replica 0 holds its first item until `release` is set
/// (bounded), raising `serving` while it holds.
class HoldFirstOnReplicaZero final : public Node {
 public:
  HoldFirstOnReplicaZero(std::atomic<bool>* serving,
                         const std::atomic<bool>* release,
                         std::atomic<bool>* timed_out)
      : serving_(serving), release_(release), timed_out_(timed_out) {}
  void on_init(int replica_id) override { replica_ = replica_id; }
  SvcResult svc(Item in) override {
    if (replica_ == 0 && !held_) {
      held_ = true;
      serving_->store(true, std::memory_order_release);
      if (!wait_for_flag(*release_, std::chrono::milliseconds(5000))) {
        timed_out_->store(true);
      }
    }
    return SvcResult::Out(std::move(in));
  }

 private:
  std::atomic<bool>* serving_;
  const std::atomic<bool>* release_;
  std::atomic<bool>* timed_out_;
  int replica_ = -1;
  bool held_ = false;
};

TEST(FarmTest, LeastLoadedRoutesAroundAWorkerStillServing) {
  // Item 0 goes to replica 0, which holds it until the sink has item 1;
  // the source emits item 1 only once replica 0 is serving, with its queue
  // empty. Balancing on queue depth alone ties both workers at 0 and feeds
  // replica 0 again, so item 1 waits behind the hold until it times out.
  std::atomic<bool> serving{false};
  std::atomic<bool> second_done{false};
  std::atomic<bool> timed_out{false};
  Pipeline p;
  p.add_stage(make_source<int>([&, i = 0]() mutable -> std::optional<int> {
                if (i == 1 && !wait_for_flag(serving,
                                             std::chrono::milliseconds(5000))) {
                  timed_out.store(true);
                }
                if (i == 2) return std::nullopt;
                return i++;
              }),
              "src");
  p.add_farm(
      [&] {
        return std::make_unique<HoldFirstOnReplicaZero>(&serving, &second_done,
                                                        &timed_out);
      },
      FarmOptions{.replicas = 2, .policy = SchedPolicy::kLeastLoaded}, "ll");
  std::multiset<int> got;
  p.add_stage(make_sink<int>([&](int v) {
                got.insert(v);
                if (v == 1) second_done.store(true, std::memory_order_release);
              }),
              "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(got, (std::multiset<int>{0, 1}));
}

/// Farm worker that tallies per-replica item counts into a shared array.
class ReplicaTally final : public Node {
 public:
  explicit ReplicaTally(std::array<std::atomic<int>, 8>* counts)
      : counts_(counts) {}
  void on_init(int replica_id) override { replica_ = replica_id; }
  SvcResult svc(Item in) override {
    (*counts_)[static_cast<std::size_t>(replica_)].fetch_add(
        1, std::memory_order_relaxed);
    return SvcResult::Out(std::move(in));
  }

 private:
  std::array<std::atomic<int>, 8>* counts_;
  int replica_ = 0;
};

TEST(FarmTest, ControllerClampsAndBindsToReplicaCount) {
  FarmController ctl;
  ctl.set_active(10);  // unbound: only floored at 1
  EXPECT_GE(ctl.active(), 10);
  Pipeline p;
  p.add_stage(counting_source(10), "src");
  FarmOptions opts;
  opts.replicas = 4;
  opts.controller = &ctl;
  p.add_farm(stage_factory<int, int>([](int v) { return v; }), opts, "farm");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  EXPECT_EQ(ctl.replicas(), 4);
  EXPECT_EQ(ctl.active(), 4);  // bound + clamped
  ctl.set_active(0);
  EXPECT_EQ(ctl.active(), 1);  // floor
  ctl.set_active(99);
  EXPECT_EQ(ctl.active(), 4);  // ceiling
  ASSERT_TRUE(p.run_and_wait().ok());
}

TEST(FarmTest, ControllerAtOneFeedsOnlyReplicaZero) {
  std::array<std::atomic<int>, 8> counts{};
  FarmController ctl;
  Pipeline p;
  p.add_stage(counting_source(2000), "src");
  FarmOptions opts;
  opts.replicas = 4;
  opts.policy = SchedPolicy::kLeastLoaded;
  opts.controller = &ctl;
  p.add_farm([&counts] { return std::make_unique<ReplicaTally>(&counts); },
             opts, "farm");
  int got = 0;
  p.add_stage(make_sink<int>([&](int) { ++got; }), "sink");
  ctl.set_active(1);
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(got, 2000);
  EXPECT_EQ(counts[0].load(), 2000);
  for (std::size_t w = 1; w < 4; ++w) EXPECT_EQ(counts[w].load(), 0) << w;
}

TEST(FarmTest, ControllerResizeMidRunLosesNothing) {
  std::array<std::atomic<int>, 8> counts{};
  FarmController ctl;
  PipelineOptions popts;
  popts.queue_capacity = 8;  // keep the emitter honest under resizes
  Pipeline p(popts);
  constexpr int kItems = 20000;
  p.add_stage(counting_source(kItems), "src");
  FarmOptions opts;
  opts.replicas = 4;
  opts.policy = SchedPolicy::kLeastLoaded;
  opts.controller = &ctl;
  p.add_farm([&counts] { return std::make_unique<ReplicaTally>(&counts); },
             opts, "farm");
  std::multiset<int> got;
  p.add_stage(make_sink<int>([&](int v) { got.insert(v); }), "sink");
  ctl.set_active(1);
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    int n = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ctl.set_active(1 + (n++ % 4));  // oscillate 2,3,4,1,...
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Status s = p.run_and_wait();
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got.count(i), 1u);
  int total = 0;
  for (auto& c : counts) total += c.load();
  EXPECT_EQ(total, kItems);
  // The grown phases must actually have engaged extra replicas.
  EXPECT_GT(counts[1].load() + counts[2].load() + counts[3].load(), 0);
}

TEST(PipelineTest, PinPolicyReportsPinnedCores) {
  telemetry::Registry reg;
  PipelineOptions opts = instrumented(reg);
  opts.pin = true;
  Pipeline p(opts);
  std::vector<int> got;
  p.add_stage(counting_source(200), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v + 1; }),
             FarmOptions{.replicas = 2, .ordered = true}, "farm");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 200u);
  // One gauge per runtime thread: source, emitter, two workers, collector
  // and sink.
  const auto gauges = pinned_cpu_gauges(reg);
  EXPECT_EQ(static_cast<int>(gauges.size()), p.thread_count());
#if defined(__linux__)
  const int ncores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const auto& g : gauges) {
    EXPECT_GE(g.value, 0) << g.name;
    EXPECT_LT(g.value, ncores) << g.name;
  }
#endif
}

TEST(PipelineTest, UnpinnedRunReportsNoAffinity) {
  telemetry::Registry reg;
  Pipeline p(instrumented(reg));
  p.add_stage(counting_source(10), "src");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_TRUE(pinned_cpu_gauges(reg).empty());
}

TEST(FarmTest, OrderedFarmWithFilteringHoles) {
  // Dropped items must not stall the ordered collector.
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(1000), "src");
  p.add_farm(
      [] {
        return make_filter_stage<int, int>([](int v) -> std::optional<int> {
          if (v % 3 == 0) return std::nullopt;
          return v;
        });
      },
      FarmOptions{.replicas = 3, .ordered = true}, "drop3");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  std::vector<int> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
}

TEST(FarmTest, SingleReplicaOrderedFarm) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(100), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v; }),
             FarmOptions{.replicas = 1, .ordered = true}, "one");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 100u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(FarmTest, TwoFarmsBackToBack) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(1000), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v + 1; }),
             FarmOptions{.replicas = 2, .ordered = true}, "f1");
  p.add_farm(stage_factory<int, int>([](int v) { return v * 2; }),
             FarmOptions{.replicas = 3, .ordered = true}, "f2");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], (i + 1) * 2);
  }
}

TEST(FarmTest, WorkerExceptionAborts) {
  Pipeline p;
  p.add_stage(counting_source(10000), "src");
  p.add_farm(stage_factory<int, int>([](int v) -> int {
               if (v == 123) throw std::runtime_error("worker died");
               return v;
             }),
             FarmOptions{.replicas = 4, .ordered = true}, "dying");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  Status s = p.run_and_wait();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("worker died"), std::string::npos);
}

TEST(FarmTest, AbortUnderBackpressureDoesNotDeadlock) {
  // Regression guard: a worker throws while every queue is saturated (the
  // sink is slow and capacities are tiny); the abort must unwind all
  // threads rather than leaving producers blocked on full queues.
  PipelineOptions opts;
  opts.queue_capacity = 2;
  Pipeline p(opts);
  p.add_stage(counting_source(100000), "src");
  p.add_farm(stage_factory<int, int>([](int v) -> int {
               if (v == 5000) throw std::runtime_error("late failure");
               return v;
             }),
             FarmOptions{.replicas = 3, .ordered = true}, "farm");
  p.add_stage(make_sink<int>([](int v) {
                volatile int spin = 50;  // slow sink builds backpressure
                while (spin > 0) { spin = spin - 1; }
                (void)v;
              }),
              "slow-sink");
  Status s = p.run_and_wait();  // must return, not hang
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("late failure"), std::string::npos);
}

TEST(FarmTest, ReplicaIdsAreDistinct) {
  class IdRecorder final : public Node {
   public:
    explicit IdRecorder(std::set<int>* ids, std::mutex* mu)
        : ids_(ids), mu_(mu) {}
    void on_init(int replica_id) override {
      std::lock_guard<std::mutex> lock(*mu_);
      ids_->insert(replica_id);
    }
    SvcResult svc(Item in) override { return SvcResult::Out(std::move(in)); }
   private:
    std::set<int>* ids_;
    std::mutex* mu_;
  };
  std::set<int> ids;
  std::mutex mu;
  Pipeline p;
  p.add_stage(counting_source(10), "src");
  p.add_farm([&] { return std::make_unique<IdRecorder>(&ids, &mu); },
             FarmOptions{.replicas = 4}, "ids");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(ids, (std::set<int>{0, 1, 2, 3}));
}

TEST(FarmTest, ThreadCountFormula) {
  Pipeline p;
  p.add_stage(counting_source(1), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v; }),
             FarmOptions{.replicas = 5}, "farm");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  // source + sink + 5 workers + emitter + collector
  EXPECT_EQ(p.thread_count(), 9);
}

// Parameterized sweep: ordered farms preserve order for any replica count
// and queue capacity combination.
class OrderedFarmSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OrderedFarmSweep, PreservesOrder) {
  auto [replicas, capacity] = GetParam();
  PipelineOptions opts;
  opts.queue_capacity = static_cast<std::size_t>(capacity);
  Pipeline p(opts);
  std::vector<int> got;
  p.add_stage(counting_source(1200), "src");
  p.add_farm(stage_factory<int, int>([](int v) { return v; }),
             FarmOptions{.replicas = replicas, .ordered = true}, "id");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 1200u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got.front(), 0);
  EXPECT_EQ(got.back(), 1199);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderedFarmSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(2, 16, 256)));

// ---- failure paths & watchdog -----------------------------------------------------

/// A farm worker throwing mid-stream must drain and return an error under
/// every wait mode: no deadlock, no lost end-of-stream sentinel.
class FarmFailureSweep : public ::testing::TestWithParam<WaitMode> {};

TEST_P(FarmFailureSweep, ThrowingWorkerDrainsAndErrors) {
  PipelineOptions opts;
  opts.wait_mode = GetParam();
  opts.queue_capacity = 8;
  Pipeline p(opts);
  std::atomic<int> sunk{0};
  p.add_stage(counting_source(20000), "src");
  p.add_farm(stage_factory<int, int>([](int v) -> int {
               if (v == 777) throw std::runtime_error("mid-stream failure");
               return v;
             }),
             FarmOptions{.replicas = 4, .ordered = true}, "farm");
  p.add_stage(make_sink<int>([&](int) { sunk.fetch_add(1); }), "sink");
  Status s = p.run_and_wait();  // must return, not hang
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  EXPECT_NE(s.message().find("mid-stream failure"), std::string::npos);
  // The structured report names the failing farm stage.
  ASSERT_FALSE(p.failure_report().ok());
  EXPECT_NE(p.failure_report().failures.front().stage.find("farm"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllWaitModes, FarmFailureSweep,
                         ::testing::Values(WaitMode::kBackoff,
                                           WaitMode::kBlocking));

TEST(FailureReportTest, RecordsEveryFailingStage) {
  Pipeline p;
  p.add_stage(counting_source(50000), "src");
  p.add_stage(make_stage<int, int>([](int v) -> int {
                if (v == 10) throw std::runtime_error("first to die");
                return v;
              }),
              "stage-a");
  p.add_stage(make_stage<int, int>([](int v) -> int {
                if (v == 5) throw std::runtime_error("second to die");
                return v;
              }),
              "stage-b");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  Status s = p.run_and_wait();
  ASSERT_FALSE(s.ok());
  const FailureReport& report = p.failure_report();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.failures.size(), 1u);
  // run_and_wait returns exactly the first recorded failure.
  EXPECT_EQ(s.message(), report.first().message());
  EXPECT_NE(report.ToString().find(report.failures.front().stage),
            std::string::npos);
}

TEST(WatchdogTest, HungStageAbortsWithStageName) {
  PipelineOptions opts;
  opts.stall_timeout_seconds = 0.3;
  Pipeline p(opts);
  p.add_stage(counting_source(100), "src");
  p.add_stage(make_stage<int, int>([](int v) -> int {
                if (v == 7) {  // simulate a wedged device call
                  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
                }
                return v;
              }),
              "wedged");
  p.add_stage(make_sink<int>([](int) {}), "sink");
  auto start = std::chrono::steady_clock::now();
  Status s = p.run_and_wait();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kAborted);
  EXPECT_NE(s.message().find("wedged"), std::string::npos);
  EXPECT_NE(s.message().find("stalled"), std::string::npos);
  // Fires within the timeout plus the one-timeout grace period (generous
  // slack for loaded CI machines).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(5000));
}

// A stage still wedged when the watchdog aborts run_and_wait() must be
// joined by the Pipeline destructor once it unwinds within the grace
// period — not detached immediately. (Node callables routinely capture
// references to caller stack state declared before the Pipeline; the
// destructor reaper runs before that state dies.)
TEST(WatchdogTest, StragglerThatUnwindsIsJoinedByDestructor) {
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto finished = std::make_shared<std::atomic<bool>>(false);
  {
    PipelineOptions opts;
    opts.stall_timeout_seconds = 0.2;
    Pipeline p(opts);
    p.add_stage(counting_source(100), "src");
    p.add_stage(make_stage<int, int>([release, finished](int v) -> int {
                  if (v == 3) {  // wedge until the test releases us
                    while (!release->load()) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    }
                    finished->store(true);
                  }
                  return v;
                }),
                "wedged");
    p.add_stage(make_sink<int>([](int) {}), "sink");
    Status s = p.run_and_wait();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kAborted);
    EXPECT_FALSE(finished->load());  // returned while the stage is wedged
    release->store(true);
    // ~Pipeline runs here: the straggler now unwinds promptly and must be
    // joined inside the destructor's grace period.
  }
  EXPECT_TRUE(finished->load());
}

TEST(WatchdogTest, SlowButProgressingStreamIsNotAborted) {
  PipelineOptions opts;
  opts.stall_timeout_seconds = 0.25;
  Pipeline p(opts);
  std::vector<int> got;
  p.add_stage(counting_source(20), "src");
  p.add_stage(make_stage<int, int>([](int v) -> int {
                // Each item takes ~40 ms — well under the per-progress
                // timeout even though the whole stream takes ~800 ms.
                std::this_thread::sleep_for(std::chrono::milliseconds(40));
                return v;
              }),
              "slow");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(got.size(), 20u);
}

TEST(WatchdogTest, DisabledByDefault) {
  Pipeline p;  // stall_timeout_seconds == 0
  std::vector<int> got;
  p.add_stage(counting_source(10), "src");
  p.add_stage(make_stage<int, int>([](int v) -> int {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return v;
              }),
              "leisurely");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  EXPECT_EQ(got.size(), 10u);
}

// ---- deadline budgets --------------------------------------------------------

namespace {

/// Source emitting `n` ints; odd indices carry an already-expired deadline,
/// even indices a far-future one.
class DeadlineSource final : public Node {
 public:
  explicit DeadlineSource(int n) : n_(n) {}
  SvcResult svc(Item) override {
    if (i_ >= n_) return SvcResult::Eos();
    Item item = Item::of<int>(i_);
    const std::uint64_t now = deadline_clock_now();
    item.set_deadline_ns(i_ % 2 == 1 ? now - 1
                                     : now + 60ull * 1000 * 1000 * 1000);
    ++i_;
    return SvcResult::Out(std::move(item));
  }

 private:
  int i_ = 0;
  int n_;
};

}  // namespace

TEST(DeadlineTest, ExpiredItemsSkipStagesButReachTheSink) {
  telemetry::Registry reg;
  PipelineOptions opts;
  opts.telemetry.registry = &reg;
  opts.telemetry.prefix = "dl";
  Pipeline p(opts);
  std::atomic<int> serviced{0};
  std::vector<std::pair<int, bool>> got;  // (value, expired-at-sink)
  p.add_stage(std::make_unique<DeadlineSource>(10), "src");
  p.add_farm(
      [&serviced] {
        return make_stage<int, int>([&serviced](int v) -> int {
          ++serviced;
          return v;
        });
      },
      FarmOptions{.replicas = 2, .ordered = true}, "work");
  // Raw-node sink so the deadline flag is observable per item.
  class FlagSink final : public Node {
   public:
    explicit FlagSink(std::vector<std::pair<int, bool>>* out) : out_(out) {}
    SvcResult svc(Item in) override {
      out_->emplace_back(in.as<int>(), in.deadline_expired());
      return SvcResult::GoOn();
    }
   private:
    std::vector<std::pair<int, bool>>* out_;
  };
  p.add_stage(std::make_unique<FlagSink>(&got), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());

  // Every item reached the sink, in order (expired ones still hold their
  // sequence slot in the ordered farm).
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].first, i);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].second, i % 2 == 1)
        << "item " << i;
  }
  // The workers never serviced the expired half, and the drops were counted
  // exactly once each.
  EXPECT_EQ(serviced.load(), 5);
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("dl.deadline_drops"), nullptr);
  EXPECT_EQ(snap.find_counter("dl.deadline_drops")->value, 5u);
}

TEST(DeadlineTest, UnarmedItemsAreNeverDropped) {
  Pipeline p;
  std::vector<int> got;
  p.add_stage(counting_source(50), "src");
  p.add_stage(make_stage<int, int>([](int v) { return v + 1; }), "inc");
  p.add_stage(make_sink<int>([&](int v) { got.push_back(v); }), "sink");
  ASSERT_TRUE(p.run_and_wait().ok());
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(got.front(), 1);
  EXPECT_EQ(got.back(), 50);
}

}  // namespace
}  // namespace hs::flow
