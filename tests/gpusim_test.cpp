// Unit + property tests for the simulated GPU: occupancy, cost model,
// memory accounting, stream semantics, copy/compute overlap, multi-device,
// and kernel bodies running outside the machine lock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"

namespace hs::gpusim {
namespace {

DeviceSpec titan() { return DeviceSpec::TitanXP(); }

// ---- occupancy --------------------------------------------------------------

TEST(OccupancyTest, PaperKernelIsNotRegisterLimited) {
  // Paper: "the kernel function uses only 18 registers, thus it is not a
  // limiting factor" — occupancy should be the full 64 warps/SM.
  KernelAttributes attrs;
  attrs.registers_per_thread = 18;
  EXPECT_EQ(occupancy_warps_per_sm(titan(), attrs, Dim3{256, 1, 1}), 64u);
}

TEST(OccupancyTest, RegisterPressureLimitsWarps) {
  KernelAttributes attrs;
  attrs.registers_per_thread = 128;  // 128*32 = 4096 regs/warp; 65536/4096=16
  EXPECT_EQ(occupancy_warps_per_sm(titan(), attrs, Dim3{32, 1, 1}), 16u);
}

TEST(OccupancyTest, SharedMemoryLimitsBlocks) {
  KernelAttributes attrs;
  attrs.shared_mem_per_block = 48 * 1024;  // 2 blocks fit in 96 KB
  // 256-thread blocks = 8 warps each; 2 blocks -> 16 warps.
  EXPECT_EQ(occupancy_warps_per_sm(titan(), attrs, Dim3{256, 1, 1}), 16u);
}

TEST(OccupancyTest, ImpossibleSharedMemoryIsZero) {
  KernelAttributes attrs;
  attrs.shared_mem_per_block = 128 * 1024;  // > 96 KB per SM
  EXPECT_EQ(occupancy_warps_per_sm(titan(), attrs, Dim3{32, 1, 1}), 0u);
}

TEST(OccupancyTest, WholeBlocksOnly) {
  // 2048 threads/SM = 64 warps; blocks of 24 warps (768 threads): only 2
  // whole blocks fit -> 48 warps.
  KernelAttributes attrs;
  attrs.registers_per_thread = 16;
  EXPECT_EQ(occupancy_warps_per_sm(titan(), attrs, Dim3{768, 1, 1}), 48u);
}

// ---- kernel duration ---------------------------------------------------------

TEST(CostModelTest, LaunchLatencyFloorsEmptyKernel) {
  DeviceSpec spec = titan();
  EXPECT_DOUBLE_EQ(
      kernel_duration_seconds(spec, {}, Dim3{32, 1, 1}, {}),
      spec.kernel_launch_latency);
}

TEST(CostModelTest, ThroughputScalesWithSmCount) {
  DeviceSpec spec = titan();
  KernelAttributes attrs;
  // 30 SMs x 100 warps each, uniform cost: per-SM busy identical.
  std::vector<double> warps(30 * 100, 1000.0);
  double t30 = kernel_duration_seconds(spec, attrs, Dim3{256, 1, 1}, warps);
  spec.sm_count = 15;
  double t15 = kernel_duration_seconds(spec, attrs, Dim3{256, 1, 1}, warps);
  double work30 = t30 - spec.kernel_launch_latency;
  double work15 = t15 - spec.kernel_launch_latency;
  EXPECT_NEAR(work15 / work30, 2.0, 0.01);
}

TEST(CostModelTest, SmallKernelsAreLatencyBound) {
  // One warp per SM cannot hide latency: stall factor = latency_hiding_warps.
  DeviceSpec spec = titan();
  spec.warp_fixed_cost_units = 0;
  KernelAttributes attrs;
  std::vector<double> one_per_sm(spec.sm_count, 1000.0);
  std::vector<double> filled(spec.sm_count * spec.latency_hiding_warps, 1000.0);
  double t_small = kernel_duration_seconds(spec, attrs, Dim3{32, 1, 1},
                                           one_per_sm) -
                   spec.kernel_launch_latency;
  double t_full = kernel_duration_seconds(spec, attrs, Dim3{32, 1, 1},
                                          filled) -
                  spec.kernel_launch_latency;
  // 4x the warps in the same time: latency hiding kicked in.
  EXPECT_NEAR(t_small, t_full, t_full * 0.01);
}

TEST(CostModelTest, DivergenceMaxLaneDominatesWarp) {
  WarpCostAccumulator acc(4, DivergenceModel::kMaxLane);
  acc.add_lane(1);
  acc.add_lane(100);
  acc.add_lane(2);
  acc.add_lane(3);
  auto costs = acc.take_warp_costs();
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0], 100.0);
}

TEST(CostModelTest, SumLaneModelAverages) {
  WarpCostAccumulator acc(4, DivergenceModel::kSumLane);
  acc.add_lane(1);
  acc.add_lane(100);
  acc.add_lane(2);
  acc.add_lane(3);
  auto costs = acc.take_warp_costs();
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_DOUBLE_EQ(costs[0], 106.0 / 4.0);
}

TEST(CostModelTest, WarpsDoNotSpanBlocks) {
  WarpCostAccumulator acc(32, DivergenceModel::kMaxLane);
  for (int i = 0; i < 40; ++i) acc.add_lane(1);  // 1 full warp + 8 lanes
  acc.end_block();
  for (int i = 0; i < 8; ++i) acc.add_lane(1);
  auto costs = acc.take_warp_costs();
  EXPECT_EQ(costs.size(), 3u);  // 32 + 8 | 8
}

TEST(CostModelTest, CopyDurationLinearInBytes) {
  DeviceSpec spec = titan();
  double t1 = copy_duration_seconds(spec, CopyDir::kHostToDevice,
                                    HostMem::kPinned, 1 << 20);
  double t2 = copy_duration_seconds(spec, CopyDir::kHostToDevice,
                                    HostMem::kPinned, 2 << 20);
  EXPECT_NEAR(t2 - t1, (1 << 20) / spec.h2d_bandwidth, 1e-9);
}

TEST(CostModelTest, PageableCopySlower) {
  DeviceSpec spec = titan();
  double pinned = copy_duration_seconds(spec, CopyDir::kDeviceToHost,
                                        HostMem::kPinned, 10 << 20);
  double pageable = copy_duration_seconds(spec, CopyDir::kDeviceToHost,
                                          HostMem::kPageable, 10 << 20);
  EXPECT_GT(pageable, pinned);
}

// ---- device memory -----------------------------------------------------------

TEST(DeviceTest, MallocTracksUsageAndFrees) {
  auto machine = Machine::Create(1, DeviceSpec::TestTiny());
  Device& dev = machine->device(0);
  auto p = dev.malloc(1024);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(dev.memory_used(), 1024u);
  EXPECT_TRUE(dev.owns_range(p.value(), 1024));
  EXPECT_FALSE(dev.owns_range(static_cast<char*>(p.value()) + 1, 1024));
  ASSERT_TRUE(dev.free(p.value()).ok());
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(DeviceTest, OutOfMemoryMatchesPaperFailureMode) {
  // The paper hit out-of-memory with 10 MB OpenCL batches; TestTiny has
  // 1 MB of memory.
  auto machine = Machine::Create(1, DeviceSpec::TestTiny());
  Device& dev = machine->device(0);
  auto p = dev.malloc(2 * 1024 * 1024);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), ErrorCode::kOutOfMemory);
}

TEST(DeviceTest, FreeOfUnknownPointerFails) {
  auto machine = Machine::Create(1, DeviceSpec::TestTiny());
  int host_var = 0;
  EXPECT_FALSE(machine->device(0).free(&host_var).ok());
}

TEST(DeviceTest, ZeroByteAllocRejected) {
  auto machine = Machine::Create(1, DeviceSpec::TestTiny());
  EXPECT_FALSE(machine->device(0).malloc(0).ok());
}

// ---- copies -------------------------------------------------------------------

TEST(DeviceTest, CopiesAreFunctionallyExact) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  std::vector<std::uint8_t> host(4096);
  std::iota(host.begin(), host.end(), 0);
  auto dptr = dev.malloc(4096);
  ASSERT_TRUE(dptr.ok());
  ASSERT_TRUE(dev.memcpy_h2d(dptr.value(), host.data(), 4096,
                             dev.default_stream(), HostMem::kPageable)
                  .ok());
  std::vector<std::uint8_t> back(4096, 0xEE);
  ASSERT_TRUE(dev.memcpy_d2h(back.data(), dptr.value(), 4096,
                             dev.default_stream(), HostMem::kPageable)
                  .ok());
  EXPECT_EQ(host, back);
}

TEST(DeviceTest, CopyOutsideAllocationRejected) {
  auto machine = Machine::Create(1, DeviceSpec::TestTiny());
  Device& dev = machine->device(0);
  auto dptr = dev.malloc(64);
  ASSERT_TRUE(dptr.ok());
  std::uint8_t buf[128] = {};
  auto r = dev.memcpy_h2d(dptr.value(), buf, 128, dev.default_stream(),
                          HostMem::kPinned);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kOutOfRange);
}

TEST(DeviceTest, DeviceToDeviceCopy) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  auto a = dev.malloc(256);
  auto b = dev.malloc(256);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::uint8_t> host(256, 0x5A);
  ASSERT_TRUE(dev.memcpy_h2d(a.value(), host.data(), 256, 0,
                             HostMem::kPageable).ok());
  ASSERT_TRUE(dev.memcpy_d2d(b.value(), a.value(), 256, 0).ok());
  std::vector<std::uint8_t> back(256, 0);
  ASSERT_TRUE(dev.memcpy_d2h(back.data(), b.value(), 256, 0,
                             HostMem::kPageable).ok());
  EXPECT_EQ(back, host);
}

// ---- kernels -------------------------------------------------------------------

TEST(DeviceTest, KernelExecutesFunctionally) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  const std::uint32_t n = 1000;
  auto dptr = dev.malloc(n * sizeof(int));
  ASSERT_TRUE(dptr.ok());
  int* data = static_cast<int*>(dptr.value());
  auto launched = dev.launch(
      Dim3{(n + 255) / 256, 1, 1}, Dim3{256, 1, 1}, {}, 0,
      [&](const ThreadCtx& ctx) {
        std::uint64_t i = ctx.global_x();
        if (i < n) data[i] = static_cast<int>(i * i);
      });
  ASSERT_TRUE(launched.ok());
  for (std::uint32_t i = 0; i < n; i += 97) {
    EXPECT_EQ(data[i], static_cast<int>(i * i));
  }
}

TEST(DeviceTest, KernelValidation) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  auto noop = [](const ThreadCtx&) {};
  EXPECT_FALSE(dev.launch(Dim3{0, 1, 1}, Dim3{32, 1, 1}, {}, 0, noop).ok());
  EXPECT_FALSE(dev.launch(Dim3{1, 1, 1}, Dim3{2048, 1, 1}, {}, 0, noop).ok());
  KernelAttributes heavy;
  heavy.shared_mem_per_block = 1 << 20;
  EXPECT_FALSE(dev.launch(Dim3{1, 1, 1}, Dim3{32, 1, 1}, heavy, 0, noop).ok());
  EXPECT_FALSE(dev.launch(Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}, 99, noop).ok());
}

TEST(DeviceTest, BatchingAmortizesLaunchLatency) {
  // The Fig. 1 mechanism: N tiny kernels vs one batched kernel over the
  // same total work. The batched version must be much faster.
  auto machine = Machine::Create(2, titan());
  Device& tiny = machine->device(0);
  Device& batched = machine->device(1);
  auto body = [](const ThreadCtx&) -> std::uint64_t { return 100; };

  const int lines = 64;
  const std::uint32_t threads_per_line = 2000;
  for (int i = 0; i < lines; ++i) {
    ASSERT_TRUE(tiny.launch(Dim3{(threads_per_line + 255) / 256, 1, 1},
                            Dim3{256, 1, 1}, {}, 0, body)
                    .ok());
  }
  ASSERT_TRUE(
      batched
          .launch(Dim3{(lines * threads_per_line + 255) / 256, 1, 1},
                  Dim3{256, 1, 1}, {}, 0, body)
          .ok());
  double t_tiny = tiny.sync_all();
  double t_batched = batched.sync_all();
  EXPECT_GT(t_tiny, 3.0 * t_batched);
}

TEST(DeviceTest, StreamsSerializeInOrder) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  auto dptr = dev.malloc(1024);
  ASSERT_TRUE(dptr.ok());
  std::vector<std::uint8_t> host(1024, 1);
  auto c1 = dev.memcpy_h2d(dptr.value(), host.data(), 1024, 0, HostMem::kPinned);
  auto k = dev.launch(Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}, 0,
                      [](const ThreadCtx&) {});
  auto c2 = dev.memcpy_d2h(host.data(), dptr.value(), 1024, 0, HostMem::kPinned);
  ASSERT_TRUE(c1.ok() && k.ok() && c2.ok());
  double t1 = c1.value().task.finish;
  double t2 = k.value().task.finish;
  double t3 = c2.value().task.finish;
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
}

TEST(DeviceTest, IndependentStreamsOverlapCopyAndCompute) {
  // Two streams, each copy->kernel. With separate H2D and compute engines
  // the second stream's copy overlaps the first stream's kernel.
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  StreamId s1 = dev.default_stream();
  StreamId s2 = dev.create_stream();
  auto dptr = dev.malloc(64 << 20);
  ASSERT_TRUE(dptr.ok());
  std::vector<std::uint8_t> host(32 << 20, 7);
  auto body = [](const ThreadCtx&) -> std::uint64_t { return 200000; };

  auto run_pair = [&](StreamId s, std::size_t off) {
    ASSERT_TRUE(dev.memcpy_h2d(static_cast<std::uint8_t*>(dptr.value()) + off,
                               host.data(), 32 << 20, s, HostMem::kPinned)
                    .ok());
    ASSERT_TRUE(dev.launch(Dim3{200, 1, 1}, Dim3{256, 1, 1}, {}, s, body).ok());
  };
  run_pair(s1, 0);
  run_pair(s2, 32 << 20);
  double total = dev.sync_all();

  // Strict check: the makespan is less than strictly-serial execution.
  // Compute the serial estimate by re-running on a fresh single-stream
  // device.
  auto machine2 = Machine::Create(1, titan());
  Device& dev2 = machine2->device(0);
  auto dptr2 = dev2.malloc(64 << 20);
  ASSERT_TRUE(dptr2.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(dev2.memcpy_h2d(dptr2.value(), host.data(), 32 << 20, 0,
                                HostMem::kPinned)
                    .ok());
    ASSERT_TRUE(
        dev2.launch(Dim3{200, 1, 1}, Dim3{256, 1, 1}, {}, 0, body).ok());
  }
  double serial = dev2.sync_all();
  EXPECT_LT(total, serial * 0.95);
}

TEST(DeviceTest, NoOverlapAblationSerializes) {
  // Same two-stream copy+kernel schedule on two machines, with and without
  // copy/compute overlap; the overlap-disabled one must be strictly slower
  // (DESIGN.md ablation 4.2).
  auto run = [](bool overlap) {
    auto machine = Machine::Create(1, DeviceSpec::TitanXP());
    Device& dev = machine->device(0);
    dev.set_copy_compute_overlap(overlap);
    StreamId s2 = dev.create_stream();
    auto dptr = dev.malloc(16 << 20);
    EXPECT_TRUE(dptr.ok());
    std::vector<std::uint8_t> host(8 << 20, 7);
    auto body = [](const ThreadCtx&) -> std::uint64_t { return 100000; };
    EXPECT_TRUE(dev.memcpy_h2d(dptr.value(), host.data(), 8 << 20, 0,
                               HostMem::kPinned).ok());
    EXPECT_TRUE(dev.launch(Dim3{100, 1, 1}, Dim3{256, 1, 1}, {}, 0, body).ok());
    EXPECT_TRUE(dev.memcpy_h2d(
        static_cast<std::uint8_t*>(dptr.value()) + (8 << 20), host.data(),
        8 << 20, s2, HostMem::kPinned).ok());
    EXPECT_TRUE(dev.launch(Dim3{100, 1, 1}, Dim3{256, 1, 1}, {}, s2, body).ok());
    return dev.sync_all();
  };
  EXPECT_GT(run(false), run(true));
}

TEST(DeviceTest, WaitEventCreatesCrossStreamDependency) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  StreamId s2 = dev.create_stream();
  auto body = [](const ThreadCtx&) -> std::uint64_t { return 500000; };
  auto k1 = dev.launch(Dim3{64, 1, 1}, Dim3{256, 1, 1}, {}, 0, body);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(dev.wait_event(s2, k1.value()).ok());
  auto k2 = dev.launch(Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}, s2,
                       [](const ThreadCtx&) {});
  ASSERT_TRUE(k2.ok());
  EXPECT_GE(k2.value().task.finish,
            k1.value().task.finish);
}

TEST(DeviceTest, MultiDeviceComputeInParallel) {
  auto machine = Machine::Create(2, titan());
  auto body = [](const ThreadCtx&) -> std::uint64_t { return 10000; };
  for (int d = 0; d < 2; ++d) {
    ASSERT_TRUE(machine->device(d)
                    .launch(Dim3{1000, 1, 1}, Dim3{256, 1, 1}, {}, 0, body)
                    .ok());
  }
  double t0 = machine->device(0).sync_all();
  double t1 = machine->device(1).sync_all();
  // Devices are independent engines: both finish at the single-kernel time,
  // so the machine makespan is ~half of a serialized 2-kernel run.
  EXPECT_NEAR(t0, t1, t0 * 1e-9);
  EXPECT_NEAR(machine->makespan(), t0, 1e-12);
}

TEST(DeviceTest, CountersTrackActivity) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  auto dptr = dev.malloc(1024);
  ASSERT_TRUE(dptr.ok());
  std::vector<std::uint8_t> host(1024);
  ASSERT_TRUE(dev.memcpy_h2d(dptr.value(), host.data(), 1024, 0,
                             HostMem::kPinned).ok());
  ASSERT_TRUE(dev.memcpy_d2h(host.data(), dptr.value(), 1024, 0,
                             HostMem::kPinned).ok());
  ASSERT_TRUE(dev.launch(Dim3{2, 1, 1}, Dim3{64, 1, 1}, {}, 0,
                         [](const ThreadCtx&) {}).ok());
  DeviceCounters c = dev.counters();
  EXPECT_EQ(c.kernels_launched, 1u);
  EXPECT_EQ(c.h2d_copies, 1u);
  EXPECT_EQ(c.d2h_copies, 1u);
  EXPECT_EQ(c.h2d_bytes, 1024u);
  EXPECT_EQ(c.d2h_bytes, 1024u);
  EXPECT_EQ(c.warps_executed, 4u);  // 2 blocks x 64 threads = 4 warps
}

TEST(DeviceTest, ThreadCtxIndexing) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  std::vector<std::uint64_t> seen;
  auto r = dev.launch(Dim3{2, 2, 1}, Dim3{4, 2, 1}, {}, 0,
                      [&](const ThreadCtx& ctx) {
                        seen.push_back(ctx.global_y() * 8 + ctx.global_x());
                      });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(seen.size(), 32u);  // 4 blocks x 8 threads
  std::vector<std::uint64_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

// Parameterized occupancy sweep: for any block size, the returned warp
// count is a positive multiple of the block's warps and never exceeds the
// SM's warp slots.
class OccupancySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(OccupancySweep, WholeBlocksWithinSlots) {
  auto [block_threads, regs] = GetParam();
  DeviceSpec spec = DeviceSpec::TitanXP();
  KernelAttributes attrs;
  attrs.registers_per_thread = regs;
  Dim3 block{block_threads, 1, 1};
  std::uint32_t warps = occupancy_warps_per_sm(spec, attrs, block);
  std::uint32_t warps_per_block = (block_threads + 31) / 32;
  if (warps > 0) {
    EXPECT_EQ(warps % warps_per_block, 0u);
    EXPECT_LE(warps, spec.max_warps_per_sm);
    EXPECT_LE(static_cast<std::uint64_t>(warps) * 32 * regs,
              spec.registers_per_sm + 32ull * regs * warps_per_block);
  }
  // More registers can never increase occupancy.
  attrs.registers_per_thread = regs * 2;
  EXPECT_LE(occupancy_warps_per_sm(spec, attrs, block), warps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OccupancySweep,
    ::testing::Combine(::testing::Values(32u, 64u, 128u, 256u, 512u, 1024u),
                       ::testing::Values(16u, 32u, 64u, 128u)));

TEST(DeviceTest, ComputeBusySecondsTracksKernels) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  EXPECT_DOUBLE_EQ(dev.compute_busy_seconds(), 0.0);
  ASSERT_TRUE(dev.launch(Dim3{64, 1, 1}, Dim3{256, 1, 1}, {}, 0,
                         [](const ThreadCtx&) -> std::uint64_t {
                           return 1000;
                         }).ok());
  double busy = dev.compute_busy_seconds();
  EXPECT_GT(busy, 0.0);
  EXPECT_LE(busy, machine->makespan() + 1e-12);
}

// ---- bodies run outside the machine lock ---------------------------------------

/// Two kernel bodies meet here. Each waits at most 5 s for the other, so
/// bodies that cannot run side by side fail the test instead of hanging it.
class Rendezvous {
 public:
  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == 2) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [this] { return arrived_ == 2; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

/// Spins until `flag` is set; false after 5 s.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A one-thread kernel on `stream` whose body meets another launch's body
/// at `meet`: true when the launch succeeded and the bodies met.
bool launch_and_meet(Device& dev, StreamId stream, Rendezvous& meet) {
  bool met = false;
  auto r = dev.launch(Dim3{1, 1, 1}, Dim3{1, 1, 1}, {}, stream,
                      [&](const ThreadCtx&) { met = meet.arrive_and_wait(); });
  return r.ok() && met;
}

void expect_bodies_meet(Device& a, StreamId stream_a, Device& b,
                        StreamId stream_b) {
  Rendezvous meet;
  bool met_b = false;
  std::thread other([&] { met_b = launch_and_meet(b, stream_b, meet); });
  const bool met_a = launch_and_meet(a, stream_a, meet);
  other.join();
  EXPECT_TRUE(met_a);
  EXPECT_TRUE(met_b);
}

TEST(ConcurrentBodyTest, KernelBodiesOnTwoDevicesRunTogether) {
  auto machine = Machine::Create(2, titan());
  expect_bodies_meet(machine->device(0), 0, machine->device(1), 0);
  EXPECT_EQ(machine->device(0).counters().kernels_launched, 1u);
  EXPECT_EQ(machine->device(1).counters().kernels_launched, 1u);
}

TEST(ConcurrentBodyTest, KernelBodiesOnTwoStreamsOfOneDeviceRunTogether) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  const StreamId stream = dev.create_stream();
  expect_bodies_meet(dev, dev.default_stream(), dev, stream);
  EXPECT_EQ(dev.counters().kernels_launched, 2u);
  EXPECT_GT(dev.sync_stream(dev.default_stream()).value(), 0.0);
  EXPECT_GT(dev.sync_stream(stream).value(), 0.0);
}

TEST(ConcurrentBodyTest, FreeDuringABodyKeepsTheStorageUntilCommit) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  constexpr std::uint64_t kBytes = 4096;
  auto p = dev.malloc(kBytes);
  ASSERT_TRUE(p.ok());
  auto* buf = static_cast<std::uint8_t*>(p.value());
  std::atomic<bool> running{false};
  std::atomic<bool> freed{false};
  Status launched = Internal("not run");
  std::jthread worker([&] {
    launched = dev.launch(Dim3{1, 1, 1}, Dim3{1, 1, 1}, {}, 0,
                          [&](const ThreadCtx&) {
                            running = true;
                            (void)wait_for(freed);
                            // Sanitized builds catch a write to freed memory.
                            std::memset(buf, 0x5a, kBytes);
                          })
                   .status();
  });
  EXPECT_TRUE(wait_for(running));
  EXPECT_TRUE(dev.free(buf).ok());
  EXPECT_EQ(dev.memory_used(), 0u);  // the accounting drops at once
  EXPECT_FALSE(dev.owns_range(buf, 1));
  EXPECT_EQ(dev.ops_in_flight(), 1u);
  freed = true;
  worker.join();
  EXPECT_TRUE(launched.ok()) << launched.ToString();
  EXPECT_EQ(dev.ops_in_flight(), 0u);  // committed: the storage is gone
  EXPECT_EQ(dev.counters().kernels_launched, 1u);
}

TEST(ConcurrentBodyTest, DeviceLostWhileABodyRunsFailsAtCommit) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  ASSERT_TRUE(dev.launch(Dim3{4, 1, 1}, Dim3{32, 1, 1}, {}, 0,
                         [](const ThreadCtx&) {})
                  .ok());
  const DeviceCounters before = dev.counters();
  const double busy = dev.compute_busy_seconds();
  const double tail = dev.sync_all();
  std::atomic<bool> running{false};
  std::atomic<bool> lost{false};
  Status launched;
  std::jthread worker([&] {
    launched = dev.launch(Dim3{4, 1, 1}, Dim3{32, 1, 1}, {}, 0,
                          [&](const ThreadCtx&) {
                            running = true;
                            (void)wait_for(lost);
                          })
                   .status();
  });
  EXPECT_TRUE(wait_for(running));
  dev.mark_lost();
  lost = true;
  worker.join();
  EXPECT_EQ(launched.code(), ErrorCode::kUnavailable) << launched.ToString();
  // Nothing of the failed launch is counted or recorded.
  EXPECT_EQ(dev.counters().kernels_launched, before.kernels_launched);
  EXPECT_EQ(dev.counters().warps_executed, before.warps_executed);
  EXPECT_EQ(dev.compute_busy_seconds(), busy);
  EXPECT_EQ(dev.sync_all(), tail);
  EXPECT_EQ(dev.ops_in_flight(), 0u);
}

TEST(ConcurrentBodyTest, ThrowingBodyEndsItsOp) {
  auto machine = Machine::Create(1, titan());
  Device& dev = machine->device(0);
  EXPECT_THROW((void)dev.launch(Dim3{1, 1, 1}, Dim3{32, 1, 1}, {}, 0,
                                [](const ThreadCtx& ctx) {
                                  if (ctx.thread_idx.x == 7) {
                                    throw std::runtime_error("body failed");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(dev.ops_in_flight(), 0u);
  EXPECT_EQ(dev.counters().kernels_launched, 0u);
  EXPECT_EQ(dev.compute_busy_seconds(), 0.0);
  // The lock was released and the device still works.
  auto p = dev.malloc(64);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(dev.memset(p.value(), 0, 64, 0).ok());
  EXPECT_TRUE(dev.free(p.value()).ok());
  EXPECT_EQ(dev.memory_used(), 0u);
}

}  // namespace
}  // namespace hs::gpusim
