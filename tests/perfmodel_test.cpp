// Tests for the host performance model and the Mandelbrot calibration.
#include <gtest/gtest.h>

#include "mandel/calibrate.hpp"
#include "perfmodel/host_model.hpp"

namespace hs {
namespace {

using gpusim::DeviceSpec;
using gpusim::Machine;
using perfmodel::HostProfile;
using perfmodel::ModeledHost;

TEST(ModeledHostTest, TasksChainOnTheWorker) {
  auto machine = Machine::Create(0, DeviceSpec::TitanXP());
  ModeledHost worker(machine.get(), "w");
  worker.work(1.0);
  worker.work(2.0);
  EXPECT_DOUBLE_EQ(worker.finish_time(), 3.0);
}

TEST(ModeledHostTest, IndependentWorkersOverlap) {
  auto machine = Machine::Create(0, DeviceSpec::TitanXP());
  ModeledHost a(machine.get(), "a");
  ModeledHost b(machine.get(), "b");
  a.work(5.0);
  b.work(3.0);
  EXPECT_DOUBLE_EQ(machine->makespan(), 5.0);
}

TEST(ModeledHostTest, DependenciesDelayStart) {
  auto machine = Machine::Create(0, DeviceSpec::TitanXP());
  ModeledHost producer(machine.get(), "p");
  ModeledHost consumer(machine.get(), "c");
  des::TaskId made = producer.work(4.0);
  consumer.work_after(1.0, made);
  EXPECT_DOUBLE_EQ(consumer.finish_time(), 5.0);
}

TEST(ModeledHostTest, WaitIsZeroCostJoin) {
  auto machine = Machine::Create(0, DeviceSpec::TitanXP());
  ModeledHost a(machine.get(), "a");
  ModeledHost b(machine.get(), "b");
  des::TaskId t = a.work(7.0);
  b.work(1.0);
  b.wait(t);
  EXPECT_DOUBLE_EQ(b.finish_time(), 7.0);
}

TEST(ModeledHostTest, StreamWaitHostBridgesToDevice) {
  auto machine = Machine::Create(1, DeviceSpec::TitanXP());
  ModeledHost host(machine.get(), "h");
  des::TaskId enq = host.work(0.5);
  gpusim::Device& dev = machine->device(0);
  perfmodel::stream_wait_host(dev, dev.default_stream(), enq);
  auto k = dev.launch(gpusim::Dim3{1, 1, 1}, gpusim::Dim3{32, 1, 1}, {},
                      dev.default_stream(), [](const gpusim::ThreadCtx&) {});
  ASSERT_TRUE(k.ok());
  // The kernel cannot start before the host issued it at t=0.5.
  EXPECT_GE(k.value().task.finish, 0.5);
}

TEST(HostProfileTest, PaperTestbedDefaults) {
  HostProfile p = HostProfile::I9_7900X();
  EXPECT_EQ(p.hw_threads, 20);
  EXPECT_GT(p.seconds_per_mandel_iter, 0);
  EXPECT_GT(p.seconds_per_rabin_byte, 0);
  EXPECT_GT(p.taskx_item_overhead, p.flow_item_overhead);  // TBB > FF
}

// ---- calibration ---------------------------------------------------------------

class CalibrateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kernels::MandelParams p;
    p.dim = 200;
    p.niter = 20000;
    map_ = new mandel::IterationMap(mandel::IterationMap::compute(p));
  }
  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
  }
  static mandel::IterationMap* map_;
};

mandel::IterationMap* CalibrateTest::map_ = nullptr;

TEST_F(CalibrateTest, AnchorsAreHit) {
  mandel::PaperAnchors anchors;
  mandel::ModeledConfig cfg = mandel::calibrate_to_paper(*map_, anchors);

  // Anchor 1: sequential time.
  auto seq = run_sequential(*map_, cfg);
  EXPECT_NEAR(seq.modeled_seconds, anchors.sequential_seconds,
              anchors.sequential_seconds * 0.02);

  // Anchor 3: per-line naive time (refined iteratively).
  auto naive = run_gpu_single_thread(*map_, cfg, mandel::GpuApi::kCuda,
                                     mandel::GpuMode::kPerLine1D);
  EXPECT_NEAR(naive.modeled_seconds, anchors.per_line_seconds,
              anchors.per_line_seconds * 0.05);

  // Anchor 2: batched compute time (display hidden with 4 buffers).
  mandel::ModeledConfig quiet = cfg;
  quiet.buffers_per_gpu = 4;
  quiet.host.show_line_base = 0;
  quiet.host.show_line_per_pixel = 0;
  auto batched = run_gpu_single_thread(*map_, quiet, mandel::GpuApi::kCuda,
                                       mandel::GpuMode::kBatched);
  EXPECT_NEAR(batched.modeled_seconds, anchors.batched_compute_seconds,
              anchors.batched_compute_seconds * 0.05);
}

TEST_F(CalibrateTest, WarpCostHelpersAreConsistent) {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::TitanXP();
  double total32 = mandel::batched_warp_cost_total(*map_, 32, spec);
  double total8 = mandel::batched_warp_cost_total(*map_, 8, spec);
  EXPECT_GT(total32, 0);
  // Smaller batches only change padding warps, not the order of magnitude.
  EXPECT_NEAR(total32 / total8, 1.0, 0.2);
  // The per-line max sum is bounded by dim * (niter + 1).
  double line_max = mandel::per_line_max_cost_total(*map_);
  EXPECT_GT(line_max, 0);
  EXPECT_LE(line_max, 200.0 * (20000 + 1));
}

TEST_F(CalibrateTest, LadderOrderingSurvivesCalibration) {
  mandel::ModeledConfig cfg = mandel::calibrate_to_paper(*map_);
  auto naive = run_gpu_single_thread(*map_, cfg, mandel::GpuApi::kCuda,
                                     mandel::GpuMode::kPerLine1D);
  auto batched = run_gpu_single_thread(*map_, cfg, mandel::GpuApi::kCuda,
                                       mandel::GpuMode::kBatched);
  mandel::ModeledConfig dual = cfg;
  dual.devices = 2;
  dual.buffers_per_gpu = 2;
  auto two = run_gpu_single_thread(*map_, dual, mandel::GpuApi::kCuda,
                                   mandel::GpuMode::kBatched);
  EXPECT_GT(naive.modeled_seconds, batched.modeled_seconds);
  EXPECT_GT(batched.modeled_seconds, two.modeled_seconds);
  EXPECT_EQ(naive.checksum, batched.checksum);
  EXPECT_EQ(two.checksum, batched.checksum);
}

}  // namespace
}  // namespace hs
