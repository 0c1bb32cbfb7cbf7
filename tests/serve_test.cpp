// Tests for the serve layer: decorrelated-jitter backoff, per-device
// circuit breakers, and the multi-tenant Service (admission control,
// deadline budgets, breaker-gated execution, bit-exact results on every
// rung of the degradation ladder).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/stages.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault_plan.hpp"
#include "kernels/mandel.hpp"
#include "mandel/iteration_map.hpp"
#include "serve/breaker.hpp"
#include "serve/jobs.hpp"
#include "serve/scale.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wrr.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::serve {
namespace {

// ---- CircuitBreaker ----------------------------------------------------------

BreakerConfig fast_breaker() {
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown = std::chrono::microseconds(1000);
  cfg.half_open_successes = 2;
  return cfg;
}

TEST(BreakerTest, TripsAfterConsecutiveFailuresAndRecovers) {
  CircuitBreaker breaker(fast_breaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // Two failures + success resets the streak.
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();
  ASSERT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // Three consecutive failures trip it.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());
  // After the cooldown one probe is admitted; siblings stay rejected until
  // the probe's verdict.
  std::this_thread::sleep_for(std::chrono::microseconds(1500));
  ASSERT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow());
  breaker.on_success();
  ASSERT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerTest, FailedProbeReopensWithFreshCooldown) {
  CircuitBreaker breaker(fast_breaker());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.on_failure();
  }
  std::this_thread::sleep_for(std::chrono::microseconds(1500));
  ASSERT_TRUE(breaker.allow());
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow());
}

TEST(BreakerTest, ForceOpenTripsImmediately) {
  CircuitBreaker breaker(fast_breaker());
  breaker.force_open();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(BreakerTest, BoardPublishesGauges) {
  telemetry::Registry reg;
  BreakerBoard board(2, fast_breaker(), &reg, "serve");
  board.device(0).force_open();
  board.publish();
  auto snap = reg.snapshot();
  const auto* state = snap.find_gauge("serve.breaker.state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->value, 1.0);
  const auto* d0 = snap.find_gauge("serve.breaker.d0.state");
  ASSERT_NE(d0, nullptr);
  EXPECT_EQ(d0->value, 2.0);  // BreakerState::kOpen
  const auto* trips = snap.find_gauge("serve.breaker.trips");
  ASSERT_NE(trips, nullptr);
  EXPECT_EQ(trips->value, 1.0);
}

// ---- Service -----------------------------------------------------------------

JobRequest mandel_job(int dim = 32, int niter = 200) {
  JobRequest req;
  req.kind = JobKind::kMandel;
  req.mandel.dim = dim;
  req.mandel.niter = niter;
  return req;
}

JobRequest dedup_job(std::uint64_t seed = 1) {
  JobRequest req;
  req.kind = JobKind::kDedup;
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 64 * 1024;
  spec.seed = seed;
  req.payload = datagen::generate(spec);
  req.dedup.batch_size = 16 * 1024;
  return req;
}

std::uint64_t mandel_reference_checksum(const kernels::MandelParams& p) {
  std::vector<std::uint8_t> image(static_cast<std::size_t>(p.dim) *
                                  static_cast<std::size_t>(p.dim));
  for (int i = 0; i < p.dim; ++i) {
    kernels::mandel_line(
        p, i,
        std::span<std::uint8_t>(
            image.data() +
                static_cast<std::size_t>(i) * static_cast<std::size_t>(p.dim),
            static_cast<std::size_t>(p.dim)));
  }
  return mandel::image_checksum(image);
}

std::uint64_t dedup_reference_checksum(const JobRequest& req) {
  auto batches = dedup::fragment_input(
      std::span<const std::uint8_t>(req.payload.data(), req.payload.size()),
      req.dedup);
  dedup::DupCache cache;
  for (auto& b : batches) {
    dedup::hash_blocks(b);
    cache.check(b);
  }
  return dedup_job_checksum(batches);
}

TEST(ServiceTest, JobsCompleteBitExactOnGpu) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = &reg;
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());

  const JobRequest mjob = mandel_job();
  const JobRequest djob = dedup_job();
  auto m = service.submit("tenant-a", mjob);
  auto d = service.submit("tenant-b", djob);
  ASSERT_TRUE(m.accepted());
  ASSERT_TRUE(d.accepted());
  JobResult mr = m.result.get();
  JobResult dr = d.result.get();
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();

  ASSERT_TRUE(mr.status.ok()) << mr.status.ToString();
  ASSERT_TRUE(dr.status.ok()) << dr.status.ToString();
  EXPECT_FALSE(mr.cpu_path);
  EXPECT_GE(mr.device, 0);
  EXPECT_EQ(mr.checksum, mandel_reference_checksum(mjob.mandel));
  EXPECT_EQ(dr.checksum, dedup_reference_checksum(djob));
  EXPECT_FALSE(mr.deadline_missed);
  EXPECT_GT(mr.latency_ns, 0u);

  auto stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_miss, 0u);
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("serve.completed"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.completed")->value, 2u);
  // Each tenant's slice counts its own submissions only.
  ASSERT_NE(snap.find_counter("serve.tenant.tenant-a.accepted"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.tenant.tenant-a.accepted")->value, 1u);
  EXPECT_EQ(snap.find_counter("serve.tenant.tenant-b.accepted")->value, 1u);
  EXPECT_EQ(snap.find_counter("serve.tenant.tenant-a.shed")->value, 0u);
}

TEST(ServiceTest, CpuOnlyServiceMatchesGpuChecksums) {
  Service service(nullptr, {});
  ASSERT_TRUE(service.start().ok());
  const JobRequest mjob = mandel_job();
  auto m = service.submit("t", mjob);
  ASSERT_TRUE(m.accepted());
  JobResult mr = m.result.get();
  ASSERT_TRUE(service.stop().ok());
  ASSERT_TRUE(mr.status.ok());
  EXPECT_TRUE(mr.cpu_path);
  EXPECT_EQ(mr.device, -1);
  EXPECT_EQ(mr.checksum, mandel_reference_checksum(mjob.mandel));
}

TEST(ServiceTest, OverloadShedsWithExplicitRejection) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.tenant_queue_capacity = 2;
  cfg.shed_watermark = 1.0;  // hard bound only, deterministic
  cfg.registry = &reg;
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());

  // Burst far past the queue bound; the single worker cannot drain 64
  // frames before the burst finishes submitting.
  int rejected = 0;
  for (int i = 0; i < 64; ++i) {
    auto r = service.submit("bursty", mandel_job(48, 500),
                            /*want_result=*/false);
    if (!r.accepted()) {
      ++rejected;
      EXPECT_EQ(r.rejected->code, RejectCode::kOverload);
    }
  }
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();

  auto stats = service.stats();
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.accepted + stats.shed, stats.submitted);
  EXPECT_EQ(stats.completed, stats.accepted);  // accepted work always drains
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("serve.shed"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.shed")->value, stats.shed);
  // The burst came from one tenant, so its slice owns every shed and
  // every acceptance.
  ASSERT_NE(snap.find_counter("serve.tenant.bursty.shed"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.tenant.bursty.shed")->value, stats.shed);
  EXPECT_EQ(snap.find_counter("serve.tenant.bursty.accepted")->value,
            stats.accepted);
}

TEST(ServiceTest, P99WatermarkShedsAndReopensWithTheWindow) {
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.tenant_queue_capacity = 1024;  // keep queue-depth shedding out of play
  cfg.shed_watermark = 1.0;
  cfg.p99_shed_budget_ns = 1;  // any real completion exceeds 1 ns
  cfg.admission_refresh = 1;   // re-evaluate on every submit
  cfg.registry = &reg;
  Service slow(nullptr, cfg);
  ASSERT_TRUE(slow.start().ok());

  // Pollute one refresh window with >=16 over-budget completions: submit a
  // burst (each inter-submit window sees at most a couple of completions,
  // far short of the 16-sample floor), then let everything finish.
  std::vector<std::future<JobResult>> pending;
  for (int i = 0; i < 24; ++i) {
    auto r = slow.submit("t", mandel_job(32, 2000));
    ASSERT_TRUE(r.accepted()) << i;
    pending.push_back(std::move(r.result));
  }
  for (auto& f : pending) (void)f.get();

  // The next refresh sees all 24 samples in its window and sheds.
  auto shed = slow.submit("t", mandel_job(32, 2000), /*want_result=*/false);
  ASSERT_FALSE(shed.accepted());
  EXPECT_EQ(shed.rejected->code, RejectCode::kOverload);
  EXPECT_EQ(shed.rejected->detail, "p99 latency over budget");

  // The gate is windowed, not cumulative: no fresh completions since the
  // shed refresh, so the next window has count < 16 and the gate reopens.
  auto reopened = slow.submit("t", mandel_job(32, 2000));
  ASSERT_TRUE(reopened.accepted());
  (void)reopened.result.get();
  ASSERT_TRUE(slow.stop().ok());
  EXPECT_GT(slow.stats().shed, 0u);
}

TEST(ServiceTest, SubmitAfterStopIsRejectedAsShutdown) {
  Service service(nullptr, {});
  ASSERT_TRUE(service.start().ok());
  ASSERT_TRUE(service.stop().ok());
  auto r = service.submit("t", mandel_job());
  ASSERT_FALSE(r.accepted());
  EXPECT_EQ(r.rejected->code, RejectCode::kShuttingDown);
}

TEST(ServiceTest, ExpiredDeadlinesNeverOccupyTheGpu) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.default_deadline_ns = 1;  // expires before any stage can run
  cfg.registry = &reg;
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i) {
    auto r = service.submit("t", mandel_job());
    ASSERT_TRUE(r.accepted());
    futures.push_back(std::move(r.result));
  }
  for (auto& f : futures) {
    JobResult jr = f.get();
    EXPECT_TRUE(jr.deadline_missed);
    EXPECT_EQ(jr.status.code(), ErrorCode::kAborted);
    EXPECT_EQ(jr.checksum, 0u);  // never executed
  }
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();
  auto stats = service.stats();
  EXPECT_EQ(stats.deadline_miss, 8u);
  // The GPU never saw the work: no kernels, no job attempts.
  EXPECT_EQ(machine->device(0).counters().kernels_launched, 0u);
  EXPECT_EQ(service.retry_stats().attempts.load(), 0u);
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("serve.deadline_miss"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.deadline_miss")->value, 8u);
  // The flow runtime counted the stage-boundary drops too.
  ASSERT_NE(snap.find_counter("serve.deadline_drops"), nullptr);
  EXPECT_GT(snap.find_counter("serve.deadline_drops")->value, 0u);
  // All eight misses land on the submitting tenant's slice.
  ASSERT_NE(snap.find_counter("serve.tenant.t.deadline_miss"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.tenant.t.deadline_miss")->value, 8u);
}

TEST(ServiceTest, BreakerTripsUnderFaultsAndJobsStayBitExact) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  // Every launch fails transiently: retries exhaust, the breaker trips, and
  // jobs complete on the bit-exact CPU rung.
  auto plan = gpusim::FaultPlan::Parse("seed=11,launch.p=1.0");
  ASSERT_TRUE(plan.ok());
  machine->device(0).set_fault_plan(std::move(plan).value());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = &reg;
  cfg.retry.base_delay = std::chrono::microseconds(1);
  cfg.retry.max_delay = std::chrono::microseconds(10);
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());
  const JobRequest mjob = mandel_job();
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 12; ++i) {
    auto r = service.submit("t", mjob);
    ASSERT_TRUE(r.accepted());
    futures.push_back(std::move(r.result));
  }
  const std::uint64_t want = mandel_reference_checksum(mjob.mandel);
  for (auto& f : futures) {
    JobResult jr = f.get();
    ASSERT_TRUE(jr.status.ok());
    EXPECT_EQ(jr.checksum, want);
  }
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();
  auto stats = service.stats();
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GT(stats.cpu_jobs, 0u);
  EXPECT_EQ(stats.completed, 12u);
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_gauge("serve.breaker.trips"), nullptr);
  EXPECT_GE(snap.find_gauge("serve.breaker.trips")->value, 1.0);
}

TEST(ServiceTest, AdaptiveSchedSurvivesDeviceLossBitExactly) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  gpusim::FaultPlan plan;
  plan.lose_device_at(10);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.sched = sched::SchedMode::kAdaptive;
  cfg.retry.base_delay = std::chrono::microseconds(1);
  cfg.retry.max_delay = std::chrono::microseconds(10);
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());
  const JobRequest mjob = mandel_job();
  const std::uint64_t want = mandel_reference_checksum(mjob.mandel);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 24; ++i) {
    auto r = service.submit("t", mjob);
    ASSERT_TRUE(r.accepted());
    futures.push_back(std::move(r.result));
  }
  for (auto& f : futures) {
    JobResult jr = f.get();
    ASSERT_TRUE(jr.status.ok());
    EXPECT_EQ(jr.checksum, want);
  }
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();
  EXPECT_TRUE(machine->device(0).lost());
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 24u);
}

// ---- Weighted round-robin drain ---------------------------------------------

TEST(WrrQueuesTest, DefaultWeightOneIsPlainRoundRobin) {
  WrrQueues<int> q(nullptr);
  for (int v : {1, 2, 3}) q.push("a", v);
  for (int v : {10, 20, 30}) q.push("b", v);
  std::vector<int> order;
  int out = 0;
  while (q.pop(out)) order.push_back(out);
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 20, 3, 30}));
}

TEST(WrrQueuesTest, WeightedBurstsServeConsecutiveItems) {
  const std::map<std::string, int, std::less<>> weights{{"heavy", 2}};
  WrrQueues<int> q(&weights);
  for (int v : {1, 2, 3, 4}) q.push("heavy", v);
  for (int v : {10, 20, 30, 40}) q.push("light", v);
  std::vector<int> order;
  int out = 0;
  while (q.pop(out)) order.push_back(out);
  // heavy gets bursts of 2 per rotation turn, light 1; the tail drains
  // light once heavy is exhausted.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 3, 4, 20, 30, 40}));
}

TEST(WrrQueuesTest, WeightsClampToOneAndBurstEndsOnEmptyQueue) {
  const std::map<std::string, int, std::less<>> weights{{"a", 0}, {"c", 3}};
  WrrQueues<int> q(&weights);
  EXPECT_EQ(q.weight_of("a"), 1);  // < 1 clamps to 1
  EXPECT_EQ(q.weight_of("c"), 3);
  EXPECT_EQ(q.weight_of("unknown"), 1);
  q.push("a", 1);
  for (int v : {10, 20}) q.push("c", v);
  std::vector<int> order;
  int out = 0;
  while (q.pop(out)) order.push_back(out);
  // c's burst of 3 ends early when its queue runs dry after 2 pops.
  EXPECT_EQ(order, (std::vector<int>{1, 10, 20}));
}

TEST(ServiceTest, TenantWeightsDrainEverythingAndExportGauges) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.registry = &reg;
  cfg.tenant_weights = {{"heavy", 3}, {"zero", 0}};
  Service service(machine.get(), cfg);
  ASSERT_TRUE(service.start().ok());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    for (const char* tenant : {"heavy", "light", "zero"}) {
      auto r = service.submit(tenant, mandel_job());
      ASSERT_TRUE(r.accepted());
      futures.push_back(std::move(r.result));
    }
  }
  for (auto& f : futures) {
    JobResult jr = f.get();
    ASSERT_TRUE(jr.status.ok()) << jr.status.ToString();
  }
  ASSERT_TRUE(service.stop().ok());
  cudax::unbind_machine();
  EXPECT_EQ(service.stats().completed, 18u);
  auto snap = reg.snapshot();
  const auto* heavy = snap.find_gauge("serve.tenant.heavy.weight");
  const auto* light = snap.find_gauge("serve.tenant.light.weight");
  const auto* zero = snap.find_gauge("serve.tenant.zero.weight");
  ASSERT_NE(heavy, nullptr);
  ASSERT_NE(light, nullptr);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(heavy->value, 3.0);
  EXPECT_EQ(light->value, 1.0);   // unlisted tenants default to 1
  EXPECT_EQ(zero->value, 1.0);    // configured 0 clamps to 1
}

// ---- WRR rotation regressions ------------------------------------------------

TEST(WrrQueuesTest, TenantArrivingMidBurstDoesNotStealTheBurst) {
  // Regression for the index-based rotation: a tenant keyed *before* the
  // one mid-burst used to shift the rotation index onto itself, inheriting
  // the in-progress burst credit and truncating the original burst.
  const std::map<std::string, int, std::less<>> weights{{"m", 3}};
  WrrQueues<int> q(&weights);
  for (int v : {1, 2, 3}) q.push("m", v);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);  // burst of 3 in progress on "m"
  q.push("a", 100);   // sorts before "m" — must not steal the rotation
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);  // burst continues on "m"...
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);  // ...to its full weight
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 100);  // then the newcomer gets its turn
  EXPECT_FALSE(q.pop(out));
}

TEST(WrrQueuesTest, FairSharesWithinOneItemUnderTenantChurn) {
  const std::map<std::string, int, std::less<>> weights{
      {"a", 3}, {"b", 2}, {"c", 1}};
  WrrQueues<std::string> q(&weights);
  const auto feed = [&q](const char* tenant, int n) {
    for (int i = 0; i < n; ++i) q.push(tenant, tenant);
  };
  std::map<std::string, int> share;
  const auto drain = [&](int n) {
    share.clear();
    std::string out;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(q.pop(out)) << "pop " << i;
      ++share[out];
    }
  };
  // Phase 1: only a and c exist; 16 pops = 4 cycles of (3a, 1c).
  feed("a", 100);
  feed("c", 100);
  drain(16);
  EXPECT_LE(std::abs(share["a"] - 12), 1);
  EXPECT_LE(std::abs(share["c"] - 4), 1);
  // Phase 2: b arrives mid-stream. Any 48-pop window over the periodic
  // (3a, 2b, 1c) rotation holds 8 cycles, so shares match the 3:2:1
  // weights within one item regardless of where the rotation stood.
  feed("b", 100);
  drain(48);
  EXPECT_LE(std::abs(share["a"] - 24), 1);
  EXPECT_LE(std::abs(share["b"] - 16), 1);
  EXPECT_LE(std::abs(share["c"] - 8), 1);
  // Phase 3: everyone departs (drained dry), then a and c return — the
  // survivors' shares still track the weight ratio.
  std::string out;
  while (q.pop(out)) {
  }
  feed("a", 100);
  feed("c", 100);
  drain(16);
  EXPECT_LE(std::abs(share["a"] - 12), 1);
  EXPECT_LE(std::abs(share["c"] - 4), 1);
}

TEST(WrrQueuesTest, LongEmptyQueuesArePrunedWithoutDisturbingRotation) {
  WrrQueues<int> q(nullptr, /*prune_after=*/8);
  q.push("ghost", 7);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);  // ghost's queue is now empty but still resident
  EXPECT_EQ(q.tenant_count(), 1u);
  // Keep the structure busy: every pop scans past ghost's empty queue and
  // the live tenant's items still come out in order.
  for (int i = 0; i < 12; ++i) {
    q.push("live", i);
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.tenant_count(), 1u);  // ghost was pruned along the way
  EXPECT_EQ(q.depth("ghost"), 0u);  // pruned reads as empty, not an error
  EXPECT_EQ(q.depth("live"), 0u);
  // A pruned tenant that returns is simply re-created.
  q.push("ghost", 8);
  EXPECT_EQ(q.tenant_count(), 2u);
  EXPECT_EQ(q.depth("ghost"), 1u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
}

TEST(WrrQueuesTest, PruningDisabledWithZeroKeepsEmptyQueues) {
  WrrQueues<int> q(nullptr, /*prune_after=*/0);
  q.push("once", 1);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  for (int i = 0; i < 64; ++i) {
    q.push("live", i);
    ASSERT_TRUE(q.pop(out));
  }
  EXPECT_EQ(q.tenant_count(), 2u);
}

// ---- ScaleDecider hysteresis -------------------------------------------------

ScalePolicy test_scale_policy() {
  ScalePolicy p;
  p.min_workers = 1;
  p.max_workers = 4;
  p.scale_up_watermark = 8;
  p.sample_window = std::chrono::milliseconds(50);
  p.scale_down_idle_window = std::chrono::milliseconds(200);
  p.cooldown = std::chrono::milliseconds(100);
  return p;
}

TEST(ScaleDeciderTest, GrowsOnlyAfterSustainedPressureAndCooldown) {
  const ScalePolicy p = test_scale_policy();
  const auto t0 = ScaleDecider::Clock::time_point{};
  ScaleDecider d(p, /*initial=*/2, t0);
  const auto ms = [&](int m) { return t0 + std::chrono::milliseconds(m); };
  // Pressure must persist a full sample window before the first grow.
  EXPECT_EQ(d.observe(ms(0), 10, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(49), 10, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(50), 10, false), std::optional<int>(3));
  // The next step needs a fresh window AND the cooldown to elapse.
  EXPECT_EQ(d.observe(ms(100), 10, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(150), 10, false), std::optional<int>(4));
  // Clamped at the ceiling.
  EXPECT_EQ(d.observe(ms(260), 10, false), std::nullopt);
  EXPECT_EQ(d.active(), 4);
}

TEST(ScaleDeciderTest, ShrinksAfterIdleWindowAndClampsAtFloor) {
  const ScalePolicy p = test_scale_policy();
  const auto t0 = ScaleDecider::Clock::time_point{};
  ScaleDecider d(p, /*initial=*/4, t0);
  const auto ms = [&](int m) { return t0 + std::chrono::milliseconds(m); };
  EXPECT_EQ(d.observe(ms(0), 0, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(199), 0, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(200), 0, false), std::optional<int>(3));
  // A nonzero (below-watermark) backlog re-arms the idle window.
  EXPECT_EQ(d.observe(ms(300), 3, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(350), 0, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(500), 0, false), std::nullopt);  // 150ms idle only
  EXPECT_EQ(d.observe(ms(550), 0, false), std::optional<int>(2));
  EXPECT_EQ(d.observe(ms(750), 0, false), std::optional<int>(1));
  // Never below the floor.
  EXPECT_EQ(d.observe(ms(950), 0, false), std::nullopt);
  EXPECT_EQ(d.active(), 1);
}

TEST(ScaleDeciderTest, LatencyOverloadIsPressureOnlyWithWorkQueued) {
  const ScalePolicy p = test_scale_policy();
  const auto t0 = ScaleDecider::Clock::time_point{};
  ScaleDecider d(p, /*initial=*/1, t0);
  const auto ms = [&](int m) { return t0 + std::chrono::milliseconds(m); };
  // An over-budget p99 with an empty queue means the damage is done — more
  // workers cannot help, so it is not pressure.
  EXPECT_EQ(d.observe(ms(0), 0, true), std::nullopt);
  EXPECT_EQ(d.observe(ms(60), 0, true), std::nullopt);
  // With even one job queued it is: grow after a full window.
  EXPECT_EQ(d.observe(ms(100), 1, true), std::nullopt);
  EXPECT_EQ(d.observe(ms(150), 1, true), std::optional<int>(2));
  // A below-watermark backlog without the latency signal is not pressure.
  EXPECT_EQ(d.observe(ms(200), 7, false), std::nullopt);
  EXPECT_EQ(d.observe(ms(300), 7, false), std::nullopt);
  EXPECT_EQ(d.active(), 2);
}

// ---- Quotas, stop race, elastic service --------------------------------------

JobRequest synthetic_job(std::uint64_t ns) {
  JobRequest req;
  req.kind = JobKind::kSynthetic;
  req.synthetic_ns = ns;
  return req;
}

// Waits until the source has popped everything queued (the backlog gauge
// counts queued-not-yet-popped jobs), so queue-depth checks after this are
// deterministic.
void wait_for_empty_backlog(Service& service) {
  for (int i = 0; i < 2000 && service.backlog() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.backlog(), 0u);
}

TEST(ServiceTest, QueuedQuotaRejectsBeforeSharedCapacity) {
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.tenant_queue_capacity = 64;
  cfg.shed_watermark = 1.0;
  cfg.tenant_quota_queued = 2;
  cfg.registry = &reg;
  Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  // Park the single worker on a long job so later submissions stay queued.
  auto blocker = service.submit("hog", synthetic_job(150'000'000));
  ASSERT_TRUE(blocker.accepted());
  wait_for_empty_backlog(service);
  // Two queued jobs fill the quota; the third is a quota reject — a
  // distinct code from overload, with plenty of shared capacity left.
  ASSERT_TRUE(service.submit("hog", synthetic_job(1000), false).accepted());
  ASSERT_TRUE(service.submit("hog", synthetic_job(1000), false).accepted());
  auto over = service.submit("hog", synthetic_job(1000), false);
  ASSERT_FALSE(over.accepted());
  EXPECT_EQ(over.rejected->code, RejectCode::kQuota);
  EXPECT_EQ(reject_code_name(over.rejected->code), "quota");
  // The cap is per tenant: another tenant is still admitted.
  ASSERT_TRUE(service.submit("mouse", synthetic_job(1000), false).accepted());
  (void)blocker.result.get();
  ASSERT_TRUE(service.stop().ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.quota_rejects, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, stats.accepted);
  auto snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("serve.quota_rejects"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.quota_rejects")->value, 1u);
  ASSERT_NE(snap.find_counter("serve.tenant.hog.quota_rejects"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.tenant.hog.quota_rejects")->value, 1u);
  ASSERT_NE(snap.find_counter("serve.tenant.mouse.quota_rejects"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.tenant.mouse.quota_rejects")->value, 0u);
}

TEST(ServiceTest, InflightQuotaCountsQueuedPlusExecuting) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.shed_watermark = 1.0;
  cfg.tenant_quota_inflight = 2;
  Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  auto blocker = service.submit("t", synthetic_job(150'000'000));
  ASSERT_TRUE(blocker.accepted());
  wait_for_empty_backlog(service);
  // One executing + one queued hits the in-flight cap even though the
  // tenant's *queue* holds a single job.
  ASSERT_TRUE(service.submit("t", synthetic_job(1000), false).accepted());
  auto over = service.submit("t", synthetic_job(1000), false);
  ASSERT_FALSE(over.accepted());
  EXPECT_EQ(over.rejected->code, RejectCode::kQuota);
  // Completions release slots: once the blocker finishes the tenant gets
  // back under quota and is admitted again.
  (void)blocker.result.get();
  bool admitted = false;
  for (int i = 0; i < 2000 && !admitted; ++i) {
    admitted = service.submit("t", synthetic_job(1000), false).accepted();
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(admitted);
  ASSERT_TRUE(service.stop().ok());
  EXPECT_GE(service.stats().quota_rejects, 1u);
  EXPECT_EQ(service.stats().completed, service.stats().accepted);
}

TEST(ServiceTest, ConcurrentSubmitAndStopResolvesEveryAcceptedJob) {
  // Regression for the submit-vs-stop race: a ticket accepted while stop()
  // runs used to slip into the queue after the source went EOS, leaving
  // its future unresolved forever. Hammer the window from several threads.
  for (int iter = 0; iter < 16; ++iter) {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.tenant_queue_capacity = 256;
    cfg.shed_watermark = 1.0;
    Service service(nullptr, cfg);
    ASSERT_TRUE(service.start().ok());
    constexpr int kThreads = 3;
    std::atomic<std::uint64_t> accepted{0};
    std::array<std::vector<std::future<JobResult>>, kThreads> futures;
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&service, &accepted, &futures, t] {
        const std::string tenant = "t" + std::to_string(t);
        for (;;) {
          auto r = service.submit(tenant, synthetic_job(200'000));
          if (!r.accepted()) {
            if (r.rejected->code == RejectCode::kShuttingDown) return;
            std::this_thread::yield();
            continue;
          }
          accepted.fetch_add(1, std::memory_order_relaxed);
          futures[static_cast<std::size_t>(t)].push_back(std::move(r.result));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + iter % 4));
    ASSERT_TRUE(service.stop().ok());
    for (auto& th : submitters) th.join();
    // stop() may not return before every accepted job is resolved — each
    // future must already be ready (completed or explicitly cancelled).
    std::uint64_t resolved = 0;
    for (auto& vec : futures) {
      for (auto& f : vec) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "iteration " << iter;
        const JobResult jr = f.get();
        EXPECT_TRUE(jr.status.ok() ||
                    jr.status.code() == ErrorCode::kAborted)
            << jr.status.ToString();
        ++resolved;
      }
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.accepted, accepted.load()) << "iteration " << iter;
    EXPECT_EQ(resolved, accepted.load()) << "iteration " << iter;
    EXPECT_EQ(stats.completed, stats.accepted) << "iteration " << iter;
    EXPECT_LE(stats.cancelled, stats.completed) << "iteration " << iter;
  }
}

TEST(ServiceTest, ElasticFarmGrowsUnderBacklogAndShrinksWhenIdle) {
  telemetry::Registry reg;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.scale.min_workers = 1;
  cfg.scale.max_workers = 4;
  cfg.scale.scale_up_watermark = 4;
  cfg.scale.sample_interval = std::chrono::milliseconds(1);
  cfg.scale.sample_window = std::chrono::milliseconds(4);
  cfg.scale.scale_down_idle_window = std::chrono::milliseconds(15);
  cfg.scale.cooldown = std::chrono::milliseconds(4);
  cfg.tenant_queue_capacity = 256;
  cfg.shed_watermark = 1.0;
  // Tiny flow channels so backpressure reaches the tenant queues at once:
  // the decider watches the *queued* backlog, not in-channel buffering.
  cfg.queue_capacity = 2;
  cfg.registry = &reg;
  Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  EXPECT_EQ(service.stats().workers_active, 1);
  // Flood with sleep-bound jobs: the backlog pins above the watermark
  // until the controller walks the farm up to the ceiling.
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(
        service.submit("t", synthetic_job(10'000'000), false).accepted());
  }
  int peak = 1;
  for (int i = 0; i < 4000 && peak < cfg.scale.max_workers; ++i) {
    peak = std::max(peak, service.stats().workers_active);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(peak, cfg.scale.max_workers);
  // Once the backlog drains, idle windows walk it back to the floor.
  int floor = peak;
  for (int i = 0; i < 8000 && floor > cfg.scale.min_workers; ++i) {
    floor = std::min(floor, service.stats().workers_active);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(floor, cfg.scale.min_workers);
  ASSERT_TRUE(service.stop().ok());
  const auto stats = service.stats();
  EXPECT_GE(stats.scale_ups, 3u);
  EXPECT_GE(stats.scale_downs, 3u);
  EXPECT_EQ(stats.completed, stats.accepted);
  auto snap = reg.snapshot();
  const auto* workers = snap.find_gauge("serve.workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->value, static_cast<double>(stats.workers_active));
  ASSERT_NE(snap.find_counter("serve.scale_up"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.scale_up")->value, stats.scale_ups);
  ASSERT_NE(snap.find_counter("serve.scale_down"), nullptr);
  EXPECT_EQ(snap.find_counter("serve.scale_down")->value, stats.scale_downs);
}

// ---- Wire protocol -----------------------------------------------------------

TEST(WireTest, RequestFramingRoundTrips) {
  auto m = parse_request("job acme mandel 64 500");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().op, WireRequest::Op::kJob);
  EXPECT_EQ(m.value().tenant, "acme");
  EXPECT_EQ(m.value().job.kind, JobKind::kMandel);
  EXPECT_EQ(m.value().job.mandel.dim, 64);
  EXPECT_EQ(m.value().job.mandel.niter, 500);

  auto d = parse_request("job t1 dedup 4096");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().job.kind, JobKind::kDedup);
  EXPECT_EQ(d.value().job.payload.size(), 4096u);

  EXPECT_EQ(parse_request("ping").value().op, WireRequest::Op::kPing);
  EXPECT_EQ(parse_request("stats").value().op, WireRequest::Op::kStats);
  EXPECT_EQ(parse_request("quit").value().op, WireRequest::Op::kQuit);

  // encode_job_line is the exact inverse for both kinds.
  EXPECT_EQ(encode_job_line("acme", m.value().job), "job acme mandel 64 500");
  EXPECT_EQ(encode_job_line("t1", d.value().job), "job t1 dedup 4096");

  for (const char* bad :
       {"", "bogus", "job", "job t", "job t mandel", "job t mandel x 5",
        "job t mandel 4 5 6", "job t dedup", "job t dedup -1",
        "job t dedup 999999999999", "job t warp 4"}) {
    EXPECT_FALSE(parse_request(bad).ok()) << "'" << bad << "'";
  }
}

TEST(WireTest, ResponseFramingRoundTrips) {
  WireResponse ok;
  ok.kind = WireResponse::Kind::kOk;
  ok.job_id = 7;
  ok.latency_ns = 123456;
  ok.device = 1;
  auto ok2 = parse_response(encode_response(ok));
  ASSERT_TRUE(ok2.ok());
  EXPECT_EQ(ok2.value().kind, WireResponse::Kind::kOk);
  EXPECT_EQ(ok2.value().job_id, 7u);
  EXPECT_EQ(ok2.value().latency_ns, 123456u);
  EXPECT_EQ(ok2.value().device, 1);

  for (RejectCode code :
       {RejectCode::kOverload, RejectCode::kShuttingDown, RejectCode::kQuota}) {
    WireResponse rej;
    rej.kind = WireResponse::Kind::kRejected;
    rej.code = code;
    auto back = parse_response(encode_response(rej));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().kind, WireResponse::Kind::kRejected);
    EXPECT_EQ(back.value().code, code);
  }

  WireResponse err;
  err.kind = WireResponse::Kind::kErr;
  err.detail = "deadline exceeded before execution";
  auto err2 = parse_response(encode_response(err));
  ASSERT_TRUE(err2.ok());
  EXPECT_EQ(err2.value().kind, WireResponse::Kind::kErr);
  EXPECT_EQ(err2.value().detail, err.detail);  // spaces survive framing

  WireResponse stats;
  stats.kind = WireResponse::Kind::kStats;
  stats.accepted = 10;
  stats.shed = 2;
  stats.quota_rejects = 1;
  stats.completed = 8;
  stats.workers = 3;
  auto stats2 = parse_response(encode_response(stats));
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2.value().kind, WireResponse::Kind::kStats);
  EXPECT_EQ(stats2.value().accepted, 10u);
  EXPECT_EQ(stats2.value().shed, 2u);
  EXPECT_EQ(stats2.value().quota_rejects, 1u);
  EXPECT_EQ(stats2.value().completed, 8u);
  EXPECT_EQ(stats2.value().workers, 3);

  EXPECT_EQ(parse_response("pong").value().kind, WireResponse::Kind::kPong);
  for (const char* bad : {"", "nope", "ok 1 2", "rejected", "rejected why",
                          "stats 1 2 3"}) {
    EXPECT_FALSE(parse_response(bad).ok()) << "'" << bad << "'";
  }
}

TEST(WireTest, ResponseForMapsSubmitOutcomes) {
  SubmitResult rejected;
  rejected.rejected = Rejected{RejectCode::kQuota, "over quota"};
  const WireResponse r1 = response_for(rejected, {});
  EXPECT_EQ(r1.kind, WireResponse::Kind::kRejected);
  EXPECT_EQ(r1.code, RejectCode::kQuota);

  SubmitResult accepted;
  accepted.job_id = 9;
  JobResult good;
  good.status = OkStatus();
  good.latency_ns = 555;
  good.device = 1;
  const WireResponse r2 = response_for(accepted, good);
  EXPECT_EQ(r2.kind, WireResponse::Kind::kOk);
  EXPECT_EQ(r2.job_id, 9u);
  EXPECT_EQ(r2.latency_ns, 555u);
  EXPECT_EQ(r2.device, 1);

  JobResult failed;
  failed.status = Internal("engine exploded");
  const WireResponse r3 = response_for(accepted, failed);
  EXPECT_EQ(r3.kind, WireResponse::Kind::kErr);
  EXPECT_NE(r3.detail.find("engine exploded"), std::string::npos);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(WireTest, LoopbackServerBridgesJobsStatsAndErrors) {
  ServiceConfig cfg;
  cfg.workers = 2;
  Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  WireServer server(&service);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.port(), 0);  // kernel-assigned ephemeral port

  WireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  auto pong = client.call("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().kind, WireResponse::Kind::kPong);

  const JobRequest mjob = mandel_job();
  auto ok = client.call(encode_job_line("acme", mjob));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok.value().kind, WireResponse::Kind::kOk);
  EXPECT_EQ(ok.value().device, -1);  // CPU-only service
  EXPECT_GT(ok.value().latency_ns, 0u);

  auto dd = client.call("job acme dedup 8192");
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(dd.value().kind, WireResponse::Kind::kOk);

  // Malformed lines come back as err responses, not dropped connections.
  auto err = client.call("job acme mandel nope 5");
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().kind, WireResponse::Kind::kErr);
  EXPECT_FALSE(err.value().detail.empty());

  auto stats = client.call("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().kind, WireResponse::Kind::kStats);
  EXPECT_GE(stats.value().accepted, 2u);
  EXPECT_EQ(stats.value().workers, 2);

  (void)client.call("quit");
  client.close();
  server.stop();
  ASSERT_TRUE(service.stop().ok());
  EXPECT_GE(service.stats().completed, 2u);
}
#endif  // POSIX

}  // namespace
}  // namespace hs::serve
