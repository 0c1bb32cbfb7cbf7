// Self-tests of the perfbench program: exact percentiles, the seeded
// generators, the stage-composed dedup loop, the time ledger, and the shed
// reasons read from outside serve::Service.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dedup/pipelines.hpp"
#include "gen.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sv = hs::serve;

// ---- exact percentiles ------------------------------------------------

double oracle(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()) - 1e-9));
  return v[k - 1];
}

TEST(SamplesTest, NearestRankMatchesSortedVectorOracle) {
  hs::Xoshiro256 rng(11);
  for (std::size_t n : {1000u, 1001u, 1999u, 2500u, 10000u}) {
    std::vector<double> values;
    Samples samples;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = std::floor(rng.uniform() * 500.0);  // many ties
      values.push_back(v);
      samples.add(v);
    }
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
      const auto got = samples.percentile(p);
      ASSERT_TRUE(got.has_value()) << n << " p" << p;
      EXPECT_EQ(*got, oracle(values, p)) << n << " p" << p;
    }
  }
}

TEST(SamplesTest, RefusesAPercentileWithFewerThanTenSamplesBeyond) {
  Samples samples;
  for (int i = 0; i < 999; ++i) samples.add(i);
  EXPECT_FALSE(samples.percentile(0.99).has_value());  // 9 beyond
  EXPECT_TRUE(samples.percentile(0.5).has_value());
  samples.add(999);
  ASSERT_TRUE(samples.percentile(0.99).has_value());  // 10 beyond
  EXPECT_EQ(*samples.percentile(0.99), 989.0);
  Samples empty;
  EXPECT_FALSE(empty.percentile(0.5).has_value());
}

TEST(SamplesTest, FailedOpsCountAsOverAnyLimit) {
  Samples samples;
  for (int i = 0; i < 980; ++i) samples.add(1.0);
  for (int i = 0; i < 20; ++i) samples.add_failed();
  EXPECT_EQ(*samples.percentile(0.5), 1.0);
  EXPECT_TRUE(std::isinf(*samples.percentile(0.99)));
}

// ---- seeded generators ------------------------------------------------

TEST(GenTest, OneSeedGivesByteIdenticalInputsAndTwoSeedsDiffer) {
  const auto a = mixed_payload(5, 0, 64 * 1024);
  EXPECT_EQ(a.size(), 64u * 1024);
  EXPECT_EQ(a, mixed_payload(5, 0, 64 * 1024));
  EXPECT_NE(a, mixed_payload(6, 0, 64 * 1024));
  EXPECT_NE(a, mixed_payload(5, 1, 64 * 1024));

  const auto s = poisson_schedule(5, 700.0, 2000);
  EXPECT_EQ(s, poisson_schedule(5, 700.0, 2000));
  EXPECT_NE(s, poisson_schedule(6, 700.0, 2000));
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  // The mean gap matches the rate within a few percent over 2000 arrivals.
  EXPECT_NEAR(static_cast<double>(s.back()) / 1e9, 2000.0 / 700.0, 0.3);

  CyclicOrder x(5, 4), y(5, 4), z(6, 4);
  std::vector<std::uint32_t> xs, ys, zs;
  std::vector<int> uses(4);
  for (int i = 0; i < 64; ++i) {
    xs.push_back(x.next());
    ys.push_back(y.next());
    zs.push_back(z.next());
    ++uses[xs.back()];
  }
  EXPECT_EQ(xs, ys);
  EXPECT_NE(xs, zs);
  EXPECT_EQ(uses, std::vector<int>(4, 16));
}

// ---- stage-composed dedup loop and ledger -----------------------------

TEST(LedgerTest, StagedArchiveReproducesArchiveSequential) {
  for (std::uint64_t seed : {1u, 2u}) {
    const auto input = mixed_payload(seed, 0, 600 * 1024);  // ragged tail
    const auto reference = hs::dedup::archive_sequential(input, chain_config());
    ASSERT_TRUE(reference.ok());
    Ledger ledger;
    const auto staged = archive_staged(input, chain_config(), ledger);
    ASSERT_TRUE(staged.ok());
    EXPECT_EQ(staged.value(), reference.value());
    for (const char* phase :
         {"fragment", "hash", "dupcheck", "compress", "append", "finish"}) {
      EXPECT_GT(ledger.phase(phase), 0.0) << phase;
    }
    EXPECT_LE(ledger.attributed(), ledger.wall());
  }
}

TEST(LedgerTest, PhasesPlusUnattributedSumToWall) {
  Ledger ledger;
  const auto start = Clock::now();
  {
    PhaseTimer t(ledger, "a");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // glue
  {
    PhaseTimer t(ledger, "b");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  {
    PhaseTimer t(ledger, "a");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ledger.add_wall(seconds_between(start, Clock::now()));
  EXPECT_GE(ledger.phase("a"), 0.004);
  EXPECT_GE(ledger.phase("b"), 0.003);
  EXPECT_GE(ledger.unattributed(), 0.002);
  EXPECT_DOUBLE_EQ(ledger.phase("a") + ledger.phase("b") +
                       ledger.unattributed(),
                   ledger.wall());
  EXPECT_NEAR(ledger.unattributed_pct(),
              100.0 * ledger.unattributed() / ledger.wall(), 1e-9);
}

// ---- shed reasons read from outside -----------------------------------

sv::JobRequest slow_job(std::chrono::milliseconds ms) {
  sv::JobRequest req;
  req.kind = sv::JobKind::kSynthetic;
  req.synthetic_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(ms).count());
  return req;
}

/// Submits `count` jobs back to back and tallies the rejects by reason.
std::vector<int> reasons(sv::Service& service, int count,
                         std::chrono::milliseconds job) {
  std::vector<int> tally(6);
  for (int i = 0; i < count; ++i) {
    const sv::SubmitResult r = service.submit("t", slow_job(job), false);
    if (!r.accepted()) ++tally[static_cast<int>(classify_reject(*r.rejected))];
  }
  return tally;
}

int at(const std::vector<int>& tally, ShedReason r) {
  return tally[static_cast<std::size_t>(r)];
}

sv::ServiceConfig tiny() {
  sv::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.tenant_queue_capacity = 2;
  cfg.shed_watermark = 1.0;
  return cfg;
}

TEST(ShedReasonTest, QueueFull) {
  sv::Service service(nullptr, tiny());
  ASSERT_TRUE(service.start().ok());
  const auto tally = reasons(service, 24, std::chrono::milliseconds(20));
  (void)service.stop();
  EXPECT_GT(at(tally, ShedReason::kQueueFull), 0);
  EXPECT_EQ(at(tally, ShedReason::kQueueFull), tally[0] + tally[1] +
                                                   tally[2] + tally[3] +
                                                   tally[4] + tally[5]);
}

TEST(ShedReasonTest, Watermark) {
  sv::ServiceConfig cfg = tiny();
  cfg.tenant_queue_capacity = 8;
  cfg.shed_watermark = 0.25;  // sheds from depth 2
  sv::Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  const auto tally = reasons(service, 24, std::chrono::milliseconds(20));
  (void)service.stop();
  EXPECT_GT(at(tally, ShedReason::kWatermark), 0);
  EXPECT_EQ(at(tally, ShedReason::kQueueFull), 0);
  EXPECT_EQ(at(tally, ShedReason::kUnknown), 0);
}

TEST(ShedReasonTest, P99Gate) {
  hs::telemetry::Registry registry;
  sv::ServiceConfig cfg = tiny();
  cfg.registry = &registry;
  cfg.p99_shed_budget_ns = 1;  // every completed job is over budget
  cfg.admission_refresh = 32;
  sv::Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  for (int i = 0; i < 31; ++i) {
    sv::SubmitResult r =
        service.submit("t", slow_job(std::chrono::milliseconds(0)));
    ASSERT_TRUE(r.accepted());
    (void)r.result.get();
  }
  const auto tally = reasons(service, 4, std::chrono::milliseconds(0));
  (void)service.stop();
  EXPECT_EQ(at(tally, ShedReason::kP99Gate), 4);
}

TEST(ShedReasonTest, QuotaAndShutdown) {
  sv::ServiceConfig cfg = tiny();
  cfg.tenant_queue_capacity = 64;
  cfg.tenant_quota_inflight = 1;
  sv::Service service(nullptr, cfg);
  ASSERT_TRUE(service.start().ok());
  const auto tally = reasons(service, 4, std::chrono::milliseconds(50));
  EXPECT_EQ(at(tally, ShedReason::kQuota), 3);
  (void)service.stop();
  const auto after = reasons(service, 1, std::chrono::milliseconds(0));
  EXPECT_EQ(at(after, ShedReason::kShuttingDown), 1);
}

TEST(ShedReasonTest, AnUnknownDetailIsNeverFiledUnderAKnownReason) {
  EXPECT_EQ(classify_reject({sv::RejectCode::kOverload, "tenant queue is full"}),
            ShedReason::kUnknown);
  EXPECT_EQ(classify_reject({sv::RejectCode::kQuota, "anything"}),
            ShedReason::kQuota);
}

}  // namespace
}  // namespace perfbench
