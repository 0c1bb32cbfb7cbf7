// End-to-end fault injection & graceful degradation tests: FaultPlan
// semantics (determinism, spec parsing), error surfacing through the cudax
// and oclx/cl_api shims, and the acceptance scenarios — transient copy
// failures, sticky device loss on a multi-GPU run, and allocation pressure
// in the dedup GPU stages — all of which must complete bit-exactly against
// the fault-free reference while the telemetry records the injected faults.
// The device-work pins fix what every fault-free functional GPU path asks of
// the devices, the leak checks require a clean device after tracked runs,
// and the lzssapp and generated-map paths face the same fault plans as
// mandel and dedup.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>

#include "common/retry.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "gpusim/fault_plan.hpp"
#include "lzssapp/lzss_stream.hpp"
#include "mandel/pipelines.hpp"
#include "oclx/cl_api.hpp"
#include "oclx/oclx.hpp"
#include "sched/sched.hpp"
#include "serve/jobs.hpp"
#include "serve/service.hpp"
#include "spar/gpu_stage.hpp"

namespace hs {
namespace {

using gpusim::FaultPlan;
using gpusim::FaultSite;

// ---- FaultPlan semantics ----------------------------------------------------------

TEST(FaultPlanTest, NthOpFiresExactlyOnce) {
  FaultPlan plan;
  plan.fail_nth(FaultSite::kH2D, 3);
  EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  Status s = plan.on_op(FaultSite::kH2D);
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  EXPECT_EQ(plan.telemetry().total_faults, 1u);
  EXPECT_EQ(plan.telemetry().records.size(), 1u);
  EXPECT_EQ(plan.telemetry().records[0].site_op, 3u);
}

TEST(FaultPlanTest, AllocFaultsDefaultToOutOfMemory) {
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1);
  EXPECT_EQ(plan.on_op(FaultSite::kAlloc).code(), ErrorCode::kOutOfMemory);
}

TEST(FaultPlanTest, StickyLossPoisonsEverySubsequentOp) {
  FaultPlan plan;
  plan.lose_device_at(2);
  EXPECT_TRUE(plan.on_op(FaultSite::kAlloc).ok());
  EXPECT_EQ(plan.on_op(FaultSite::kLaunch).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(plan.device_lost());
  // Every site now fails, forever.
  EXPECT_EQ(plan.on_op(FaultSite::kAlloc).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(plan.on_op(FaultSite::kH2D).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(plan.on_op(FaultSite::kD2H).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(plan.telemetry().device_lost);
}

TEST(FaultPlanTest, ProbabilisticDecisionsAreSeedDeterministic) {
  auto decisions = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.fail_probabilistic(FaultSite::kLaunch, 0.3);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(!plan.on_op(FaultSite::kLaunch).ok());
    }
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));
  // The rate is roughly honored.
  auto d = decisions(7);
  auto faults = std::count(d.begin(), d.end(), true);
  EXPECT_GT(faults, 20);
  EXPECT_LT(faults, 120);
}

TEST(FaultPlanTest, ParseBuildsEquivalentPlan) {
  auto plan = FaultPlan::Parse("seed=7,h2d.p=0.05,alloc.nth=3,lost.nth=200");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultPlan p = std::move(plan).value();
  // alloc.nth=3 fires at the third allocation with OOM.
  EXPECT_TRUE(p.on_op(FaultSite::kAlloc).ok());
  EXPECT_TRUE(p.on_op(FaultSite::kAlloc).ok());
  EXPECT_EQ(p.on_op(FaultSite::kAlloc).code(), ErrorCode::kOutOfMemory);
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_EQ(FaultPlan::Parse("bogus").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("h2d.nth=").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("h2d.p=1.5").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("unknown.nth=1").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(FaultPlan::Parse("").ok());  // empty spec = no faults
}

// ---- shim error surfacing ---------------------------------------------------------

TEST(ShimSurfacingTest, CudaxMapsInjectedFaults) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1).fail_nth(FaultSite::kD2H, 1);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());

  void* p = nullptr;
  EXPECT_EQ(cudax::cudaMalloc(&p, 64),
            cudax::cudaError::cudaErrorMemoryAllocation);
  ASSERT_EQ(cudax::cudaMalloc(&p, 64), cudax::cudaError::cudaSuccess);

  std::uint8_t host[8] = {};
  ASSERT_EQ(cudax::cudaMemcpy(p, host, 8,
                              cudax::cudaMemcpyKind::cudaMemcpyHostToDevice),
            cudax::cudaError::cudaSuccess);
  EXPECT_EQ(cudax::cudaMemcpy(host, p, 8,
                              cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost),
            cudax::cudaError::cudaErrorLaunchFailure);
  cudax::unbind_machine();
}

TEST(ShimSurfacingTest, CudaxReportsLostDeviceAsUnavailable) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  machine->device(0).mark_lost();
  cudax::bind_machine(machine.get());
  void* p = nullptr;
  EXPECT_EQ(cudax::cudaMalloc(&p, 64),
            cudax::cudaError::cudaErrorDevicesUnavailable);
  cudax::unbind_machine();
  EXPECT_EQ(cudax::error_code_of(cudax::cudaError::cudaErrorDevicesUnavailable),
            ErrorCode::kUnavailable);
}

TEST(ShimSurfacingTest, ClApiMapsLostDeviceAndOom) {
  using namespace oclx::capi;
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1);
  machine->device(0).set_fault_plan(std::move(plan));
  clSimBindMachine(machine.get());

  cl_platform_id platform = nullptr;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  cl_device_id dev = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform, 1, &dev, nullptr), CL_SUCCESS);
  cl_int err = CL_SUCCESS;
  cl_context ctx = clCreateContext(&dev, 1, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  cl_mem buf = clCreateBuffer(ctx, 64, &err);
  EXPECT_EQ(buf, nullptr);
  EXPECT_EQ(err, CL_OUT_OF_RESOURCES);

  machine->device(0).mark_lost();
  buf = clCreateBuffer(ctx, 64, &err);
  EXPECT_EQ(buf, nullptr);
  EXPECT_EQ(err, CL_DEVICE_NOT_AVAILABLE);
  clReleaseContext(ctx);
  clSimBindMachine(nullptr);
}

// ---- retry policy -----------------------------------------------------------------

/// retry_status delay hook that does not sleep.
constexpr auto kNoDelay = [](int) {};

TEST(RetryTest, RetriesTransientAndStopsOnUnavailable) {
  RetryStats stats;
  int calls = 0;
  Status s = retry_status(
      RetryPolicy{}, &stats, "op",
      [&] {
        ++calls;
        return calls < 3 ? Internal("flaky") : OkStatus();
      },
      kNoDelay);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries.load(), 2u);

  calls = 0;
  s = retry_status(
      RetryPolicy{}, &stats, "op",
      [&] {
        ++calls;
        return Unavailable("device lost");
      },
      kNoDelay);
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);  // not retriable: surfaces immediately
  EXPECT_FALSE(stats.events().empty());
}

TEST(RetryTest, ExhaustsAfterMaxAttempts) {
  RetryStats stats;
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  Status s = retry_status(
      policy, &stats, "op",
      [&] {
        ++calls;
        return Internal("always broken");
      },
      kNoDelay);
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.exhausted.load(), 1u);
}

// ---- acceptance: mandel under faults ----------------------------------------------

class MandelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.dim = 64;
    params_.niter = 100;
    reference_ = mandel::render_sequential(params_);
  }
  kernels::MandelParams params_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(MandelFaultTest, TransientCopyFaultsAreRetriedBitExactly) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan(100 + static_cast<std::uint64_t>(d));
    plan.fail_probabilistic(FaultSite::kD2H, 0.2);
    plan.fail_probabilistic(FaultSite::kLaunch, 0.1);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  // Faults were actually injected and absorbed by retries.
  std::uint64_t injected = machine->device(0).fault_telemetry().total_faults +
                           machine->device(1).fault_telemetry().total_faults;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(stats.retries.load(), 0u);
  EXPECT_FALSE(stats.events().empty());
}

TEST_F(MandelFaultTest, StickyDeviceLossMigratesToSurvivor) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.lose_device_at(10);  // device 0 dies early in the stream
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_FALSE(machine->device(1).lost());
  EXPECT_GT(stats.device_losses.load(), 0u);
  // Workers bound to device 0 re-homed onto device 1 (or fell back to the
  // CPU during the loss window); either way the survivor did real work.
  EXPECT_GT(stats.device_switches.load() + stats.cpu_fallbacks.load(), 0u);
  EXPECT_GT(machine->device(1).counters().kernels_launched, 0u);
}

TEST_F(MandelFaultTest, AllDevicesLostFallsBackToCpu) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan;
    plan.lose_device_at(5);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_TRUE(machine->device(1).lost());
  EXPECT_GT(stats.cpu_fallbacks.load(), 0u);
}

TEST_F(MandelFaultTest, FaultFreeRunStillOffloadsEveryLine) {
  // Guard: the fault-tolerance plumbing must not change fault-free op
  // counts (one kernel launch per line).
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  std::uint64_t launches = machine->device(0).counters().kernels_launched +
                           machine->device(1).counters().kernels_launched;
  EXPECT_EQ(launches, static_cast<std::uint64_t>(params_.dim));
  EXPECT_EQ(stats.retries.load(), 0u);
  EXPECT_EQ(stats.cpu_fallbacks.load(), 0u);
}

// ---- acceptance: dedup under faults -----------------------------------------------

class DedupFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CorpusSpec spec;
    spec.kind = datagen::CorpusKind::kParsecLike;
    spec.bytes = 200 * 1024;
    spec.seed = 123;
    input_ = datagen::generate(spec);
    cfg_.batch_size = 64 * 1024;
    cfg_.rabin.min_block = 256;
    cfg_.rabin.max_block = 8192;
    cfg_.rabin.mask = 0x3FF;
    cfg_.lzss.window_size = 128;
    auto ref = dedup::archive_sequential(input_, cfg_);
    ASSERT_TRUE(ref.ok());
    reference_ = std::move(ref).value();
  }
  std::vector<std::uint8_t> input_;
  dedup::DedupConfig cfg_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(DedupFaultTest, TransientOomInGpuStagesIsRetriedBitExactly) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  // One-shot OOM on each device's scratch allocations (the LZSS FindMatch
  // stage allocates the biggest scratch, so it is the likeliest victim).
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan(200 + static_cast<std::uint64_t>(d));
    plan.fail_nth(FaultSite::kAlloc, 1);
    plan.fail_probabilistic(FaultSite::kAlloc, 0.25);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = dedup::archive_spar_cuda(input_, cfg_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  std::uint64_t injected = machine->device(0).fault_telemetry().total_faults +
                           machine->device(1).fault_telemetry().total_faults;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(stats.attempts.load(), 0u);
  // The archive stays decompressible end to end.
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input_);
}

TEST_F(DedupFaultTest, PersistentOomDegradesToCpuStages) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_probabilistic(FaultSite::kAlloc, 1.0);  // every alloc fails
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  RetryPolicy policy;
  policy.base_delay = std::chrono::microseconds(1);  // keep the test fast
  auto r = dedup::archive_spar_cuda(input_, cfg_, 2, *machine, &stats, policy);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_GT(stats.cpu_fallbacks.load(), 0u);
  EXPECT_GT(stats.exhausted.load(), 0u);
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input_);
}

TEST_F(DedupFaultTest, DeviceLossMidArchiveStaysBitExact) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.lose_device_at(6);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = dedup::archive_spar_cuda(input_, cfg_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_GT(stats.device_losses.load(), 0u);
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input_);
}

// ---- device work of every fault-free functional GPU path -----------------------

/// Machine-wide totals of the device counters a run moves. Totals, not
/// per-device splits: tracked runs pick devices by timing.
struct DeviceWork {
  std::uint64_t kernels = 0;
  std::uint64_t h2d_copies = 0;
  std::uint64_t d2h_copies = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  friend bool operator==(const DeviceWork&, const DeviceWork&) = default;
};

void PrintTo(const DeviceWork& w, std::ostream* os) {
  *os << "{kernels=" << w.kernels << " h2d=" << w.h2d_copies << "/"
      << w.h2d_bytes << "B d2h=" << w.d2h_copies << "/" << w.d2h_bytes
      << "B}";
}

DeviceWork device_work(gpusim::Machine& machine) {
  DeviceWork w;
  for (int d = 0; d < machine.device_count(); ++d) {
    const gpusim::DeviceCounters c = machine.device(d).counters();
    w.kernels += c.kernels_launched;
    w.h2d_copies += c.h2d_copies;
    w.d2h_copies += c.d2h_copies;
    w.h2d_bytes += c.h2d_bytes;
    w.d2h_bytes += c.d2h_bytes;
  }
  return w;
}

kernels::MandelParams small_mandel() {
  kernels::MandelParams p;
  p.dim = 64;
  p.niter = 100;
  return p;
}

std::vector<std::uint8_t> small_dedup_input() {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 200 * 1024;
  spec.seed = 123;
  return datagen::generate(spec);
}

dedup::DedupConfig small_dedup_config() {
  dedup::DedupConfig cfg;
  cfg.batch_size = 64 * 1024;
  cfg.rabin.min_block = 256;
  cfg.rabin.max_block = 8192;
  cfg.rabin.mask = 0x3FF;
  cfg.lzss.window_size = 128;
  return cfg;
}

std::vector<std::uint8_t> small_lzss_input() {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kSourceLike;
  spec.bytes = 80 * 1024;
  spec.seed = 77;
  return datagen::generate(spec);
}

lzssapp::LzssStreamConfig small_lzss_config() {
  lzssapp::LzssStreamConfig cfg;
  cfg.block_size = 32 * 1024;
  cfg.lzss.window_size = 128;
  return cfg;
}

/// Runs the generated map stage (x -> 3x + 1 over 12 batches of 100 floats)
/// on `backend`; true when every batch equals the host map.
bool gpu_map_matches_host(gpusim::Machine& machine, spar::GpuBackend backend,
                          int replicas) {
  constexpr int kBatches = 12;
  constexpr int kBatch = 100;
  auto input = [](int b, int i) { return static_cast<float>(b * kBatch + i); };
  auto fn = [](float x) { return x * 3.0f + 1.0f; };
  spar::ToStream region("gpu-map-pin");
  region.source<std::vector<float>>(
      [b = 0, &input]() mutable -> std::optional<std::vector<float>> {
        if (b >= kBatches) return std::nullopt;
        std::vector<float> v(kBatch);
        for (int i = 0; i < kBatch; ++i) {
          v[static_cast<std::size_t>(i)] = input(b, i);
        }
        ++b;
        return v;
      });
  spar::GpuOffload offload;
  offload.machine = &machine;
  offload.backend = backend;
  offload.replicas = replicas;
  spar::gpu_map_stage<float>(region, offload, fn);
  int seen = 0;
  bool same = true;
  region.last_stage<std::vector<float>>([&](std::vector<float> v) {
    same = same && v.size() == static_cast<std::size_t>(kBatch);
    for (int i = 0; same && i < kBatch; ++i) {
      same = v[static_cast<std::size_t>(i)] == fn(input(seen, i));
    }
    ++seen;
  });
  return region.run().ok() && same && seen == kBatches;
}

/// Submits one job to a one-worker service on `machine`; true when it ran
/// on a device and matches the CPU-only engine's checksum.
bool serve_job_matches(gpusim::Machine& machine, serve::JobRequest req) {
  const serve::JobResult want =
      serve::JobEngine(nullptr, nullptr, nullptr, {}, nullptr, 0).run(req);
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  serve::Service service(&machine, cfg);
  if (!service.start().ok()) return false;
  serve::SubmitResult r = service.submit("pin", std::move(req));
  if (!r.accepted()) return false;
  const serve::JobResult got = r.result.get();
  return service.stop().ok() && got.status.ok() && !got.cpu_path &&
         got.device >= 0 && got.checksum == want.checksum;
}

serve::JobRequest serve_mandel_job() {
  serve::JobRequest req;
  req.kind = serve::JobKind::kMandel;
  req.mandel.dim = 32;
  req.mandel.niter = 200;
  return req;
}

serve::JobRequest serve_dedup_job() {
  serve::JobRequest req;
  req.kind = serve::JobKind::kDedup;
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 64 * 1024;
  spec.seed = 1;
  req.payload = datagen::generate(spec);
  req.dedup.batch_size = 16 * 1024;
  return req;
}

struct DevicePathCase {
  const char* name;
  /// Runs the path on a fresh 2-device machine bound to cudax; true when
  /// its output equals the CPU reference.
  std::function<bool(gpusim::Machine&)> run;
  DeviceWork work;
};

TEST(DeviceWorkPinTest, EveryFaultFreeGpuPathMatchesItsReferenceAndPin) {
  const kernels::MandelParams mandel_params = small_mandel();
  const std::vector<std::uint8_t> image = mandel::render_sequential(mandel_params);
  const std::vector<std::uint8_t> dedup_input = small_dedup_input();
  const dedup::DedupConfig dedup_cfg = small_dedup_config();
  const auto archive = dedup::archive_sequential(dedup_input, dedup_cfg);
  ASSERT_TRUE(archive.ok());
  const std::vector<std::uint8_t> lzss_input = small_lzss_input();
  const auto lzss_archive =
      lzssapp::compress_sequential(lzss_input, small_lzss_config());
  ASSERT_TRUE(lzss_archive.ok());

  auto render = [&](bool tracked) {
    return [&, tracked](gpusim::Machine& m) {
      sched::DeviceLoadTracker tracker(m.device_count());
      auto r = mandel::render_spar_cuda(mandel_params, 4, m, nullptr, {},
                                        tracked ? &tracker : nullptr);
      return r.ok() && r.value() == image;
    };
  };
  auto archive_cuda = [&](bool tracked) {
    return [&, tracked](gpusim::Machine& m) {
      sched::DeviceLoadTracker tracker(m.device_count());
      auto r = dedup::archive_spar_cuda(dedup_input, dedup_cfg, 4, m, nullptr,
                                        {}, tracked ? &tracker : nullptr);
      return r.ok() && r.value() == archive.value();
    };
  };
  // One kernel + one D2H row per mandel line; per dedup batch one SHA-1 and
  // one FindMatch pass (H2D of the batch, D2H of digests and matches).
  const DeviceWork mandel_work{64, 0, 64, 0, 4096};
  const DeviceWork dedup_work{8, 8, 8, 409600, 822300};
  const std::vector<DevicePathCase> cases = {
      {"render_spar_cuda static", render(false), mandel_work},
      {"render_spar_cuda tracked", render(true), mandel_work},
      {"archive_spar_cuda static", archive_cuda(false), dedup_work},
      {"archive_spar_cuda tracked", archive_cuda(true), dedup_work},
      {"compress_spar_cuda",
       [&](gpusim::Machine& m) {
         auto r = lzssapp::compress_spar_cuda(lzss_input, small_lzss_config(),
                                              3, m);
         return r.ok() && r.value() == lzss_archive.value();
       },
       {3, 3, 3, 81920, 327680}},
      {"gpu_map_stage cuda",
       [](gpusim::Machine& m) {
         return gpu_map_matches_host(m, spar::GpuBackend::kCuda, 3);
       },
       {12, 12, 12, 4800, 4800}},
      {"gpu_map_stage opencl",
       [](gpusim::Machine& m) {
         return gpu_map_matches_host(m, spar::GpuBackend::kOpenCl, 3);
       },
       {12, 12, 12, 4800, 4800}},
      {"serve mandel job",
       [](gpusim::Machine& m) {
         return serve_job_matches(m, serve_mandel_job());
       },
       {1, 0, 1, 0, 1024}},
      {"serve dedup job",
       [](gpusim::Machine& m) {
         return serve_job_matches(m, serve_dedup_job());
       },
       {4, 4, 4, 65536, 360}},
  };
  for (const DevicePathCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
    cudax::bind_machine(machine.get());
    const bool same = c.run(*machine);
    cudax::unbind_machine();
    EXPECT_TRUE(same);
    EXPECT_EQ(device_work(*machine), c.work);
  }
}

// ---- device memory after tracked runs ----------------------------------------------

/// Tracked runs on one machine and one shared tracker until the tracker has
/// stolen at least one item (at most 50 runs), then requires every device
/// to hold no memory: a worker that moves to another device must free what
/// it left on the old one.
void expect_clean_after_steals(
    const std::function<bool(gpusim::Machine&, sched::DeviceLoadTracker&)>&
        run_once) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  sched::DeviceLoadTracker tracker(machine->device_count());
  int runs = 0;
  bool all_ok = true;
  while (tracker.steals() == 0 && runs < 50) {
    all_ok = run_once(*machine, tracker) && all_ok;
    ++runs;
  }
  cudax::unbind_machine();
  EXPECT_TRUE(all_ok);
  ASSERT_GT(tracker.steals(), 0u) << "no steal in " << runs << " runs";
  for (int d = 0; d < machine->device_count(); ++d) {
    EXPECT_EQ(machine->device(d).memory_used(), 0u) << "device " << d;
  }
}

TEST(DeviceLeakTest, TrackedMandelFreesTheRowItLeavesOnSteal) {
  const kernels::MandelParams params = small_mandel();
  const std::vector<std::uint8_t> image = mandel::render_sequential(params);
  expect_clean_after_steals(
      [&](gpusim::Machine& m, sched::DeviceLoadTracker& tracker) {
        auto r = mandel::render_spar_cuda(params, 4, m, nullptr, {}, &tracker);
        return r.ok() && r.value() == image;
      });
}

TEST(DeviceLeakTest, TrackedDedupFreesTheScratchItLeavesOnSteal) {
  const std::vector<std::uint8_t> input = small_dedup_input();
  dedup::DedupConfig cfg = small_dedup_config();
  cfg.batch_size = 16 * 1024;  // more batches than workers, so steals happen
  const auto archive = dedup::archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  expect_clean_after_steals(
      [&](gpusim::Machine& m, sched::DeviceLoadTracker& tracker) {
        auto r = dedup::archive_spar_cuda(input, cfg, 4, m, nullptr, {},
                                          &tracker);
        return r.ok() && r.value() == archive.value();
      });
}

// ---- recovery on the lzssapp and generated-map paths ------------------------------

/// A fault-plan scenario applied to every device of a 2-device machine.
struct FaultScenario {
  const char* name;
  std::function<void(gpusim::Machine&)> install;
};

std::vector<FaultScenario> recovery_scenarios() {
  return {
      {"probabilistic h2d/launch/d2h faults",
       [](gpusim::Machine& m) {
         for (int d = 0; d < m.device_count(); ++d) {
           FaultPlan plan(300 + static_cast<std::uint64_t>(d));
           plan.fail_probabilistic(FaultSite::kH2D, 0.15);
           plan.fail_probabilistic(FaultSite::kLaunch, 0.15);
           plan.fail_probabilistic(FaultSite::kD2H, 0.15);
           m.device(d).set_fault_plan(std::move(plan));
         }
       }},
      {"sticky loss of device 0",
       [](gpusim::Machine& m) {
         FaultPlan plan;
         plan.lose_device_at(4);
         m.device(0).set_fault_plan(std::move(plan));
       }},
      {"loss of every device",
       [](gpusim::Machine& m) {
         for (int d = 0; d < m.device_count(); ++d) {
           FaultPlan plan;
           plan.lose_device_at(3);
           m.device(d).set_fault_plan(std::move(plan));
         }
       }},
  };
}

/// Runs `path` under every recovery scenario: its output must equal the
/// reference (the path returns that verdict) and faults must have fired.
void expect_recovers_under_every_scenario(
    const std::function<bool(gpusim::Machine&)>& path) {
  for (const FaultScenario& scenario : recovery_scenarios()) {
    SCOPED_TRACE(scenario.name);
    auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
    scenario.install(*machine);
    cudax::bind_machine(machine.get());
    const bool same = path(*machine);
    cudax::unbind_machine();
    EXPECT_TRUE(same);
    std::uint64_t injected = 0;
    for (int d = 0; d < machine->device_count(); ++d) {
      injected += machine->device(d).fault_telemetry().total_faults;
    }
    EXPECT_GT(injected, 0u);
  }
}

TEST(GeneratedStageRecoveryTest, LzssStreamMatchesSequentialUnderFaults) {
  const std::vector<std::uint8_t> input = small_lzss_input();
  const auto want = lzssapp::compress_sequential(input, small_lzss_config());
  ASSERT_TRUE(want.ok());
  expect_recovers_under_every_scenario([&](gpusim::Machine& m) {
    auto r = lzssapp::compress_spar_cuda(input, small_lzss_config(), 3, m);
    return r.ok() && r.value() == want.value();
  });
}

TEST(GeneratedStageRecoveryTest, CudaMapMatchesHostMapUnderFaults) {
  expect_recovers_under_every_scenario([](gpusim::Machine& m) {
    return gpu_map_matches_host(m, spar::GpuBackend::kCuda, 3);
  });
}

TEST(GeneratedStageRecoveryTest, OpenClMapMatchesHostMapUnderFaults) {
  expect_recovers_under_every_scenario([](gpusim::Machine& m) {
    return gpu_map_matches_host(m, spar::GpuBackend::kOpenCl, 3);
  });
}

}  // namespace
}  // namespace hs
