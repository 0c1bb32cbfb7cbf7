// Tests for the CUDA-style shim: thread-local device state, pinned-memory
// semantics of async copies, streams/events, kernel launches.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "cudax/cudax.hpp"

namespace hs::cudax {
namespace {

class CudaxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
    bind_machine(machine_.get());
  }
  void TearDown() override { unbind_machine(); }
  std::unique_ptr<gpusim::Machine> machine_;
};

TEST_F(CudaxTest, DeviceCountAndSelection) {
  int count = 0;
  ASSERT_EQ(cudaGetDeviceCount(&count), cudaError::cudaSuccess);
  EXPECT_EQ(count, 2);
  int dev = -1;
  ASSERT_EQ(cudaGetDevice(&dev), cudaError::cudaSuccess);
  EXPECT_EQ(dev, 0);  // default
  ASSERT_EQ(cudaSetDevice(1), cudaError::cudaSuccess);
  ASSERT_EQ(cudaGetDevice(&dev), cudaError::cudaSuccess);
  EXPECT_EQ(dev, 1);
  EXPECT_EQ(cudaSetDevice(7), cudaError::cudaErrorInvalidDevice);
}

TEST_F(CudaxTest, SetDeviceIsThreadLocal) {
  // The paper: "cudaSetDevice has thread-side effects, thus it must be
  // called after initializing each thread."
  ASSERT_EQ(cudaSetDevice(1), cudaError::cudaSuccess);
  int other_thread_device = -1;
  std::thread t([&] {
    int d = -1;
    (void)cudaGetDevice(&d);
    other_thread_device = d;
  });
  t.join();
  EXPECT_EQ(other_thread_device, 0);  // fresh thread starts at device 0
  int mine = -1;
  (void)cudaGetDevice(&mine);
  EXPECT_EQ(mine, 1);  // unaffected by the other thread
}

TEST_F(CudaxTest, NoMachineBoundFails) {
  unbind_machine();
  int count = 0;
  EXPECT_EQ(cudaGetDeviceCount(&count), cudaError::cudaErrorNoDevice);
  void* p = nullptr;
  EXPECT_EQ(cudaMalloc(&p, 64), cudaError::cudaErrorNoDevice);
  bind_machine(machine_.get());
}

TEST_F(CudaxTest, MallocFreeRoundtrip) {
  void* p = nullptr;
  ASSERT_EQ(cudaMalloc(&p, 1024), cudaError::cudaSuccess);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(machine_->device(0).memory_used(), 1024u);
  ASSERT_EQ(cudaFree(p), cudaError::cudaSuccess);
  EXPECT_EQ(cudaFree(p), cudaError::cudaErrorInvalidValue);
}

TEST_F(CudaxTest, AllocationFollowsCurrentDevice) {
  ASSERT_EQ(cudaSetDevice(1), cudaError::cudaSuccess);
  void* p = nullptr;
  ASSERT_EQ(cudaMalloc(&p, 2048), cudaError::cudaSuccess);
  EXPECT_EQ(machine_->device(1).memory_used(), 2048u);
  EXPECT_EQ(machine_->device(0).memory_used(), 0u);
  ASSERT_EQ(cudaFree(p), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, PinnedMemoryRegistry) {
  void* p = nullptr;
  ASSERT_EQ(cudaMallocHost(&p, 4096), cudaError::cudaSuccess);
  EXPECT_TRUE(is_pinned(p, 4096));
  EXPECT_TRUE(is_pinned(static_cast<char*>(p) + 100, 100));
  EXPECT_FALSE(is_pinned(static_cast<char*>(p) + 100, 4096));
  ASSERT_EQ(cudaFreeHost(p), cudaError::cudaSuccess);
  EXPECT_FALSE(is_pinned(p, 1));
  int stack_var;
  EXPECT_EQ(cudaFreeHost(&stack_var), cudaError::cudaErrorInvalidValue);
}

TEST_F(CudaxTest, PinnedSlabsAreRecycledUntilTrim) {
  BufferPool& pool = pinned_pool();
  pool.trim();
  const PoolCounters before = pool.counters();
  const BufferPool::Slab slab = pool.acquire(1000);
  ASSERT_NE(slab.ptr, nullptr);
  EXPECT_TRUE(is_pinned(slab.ptr, slab.capacity));
  std::uint8_t* const ptr = slab.ptr;
  // A released slab stays pinned in the cache: the next acquire of its
  // class is a hit on the same pointer.
  pool.release(slab);
  const BufferPool::Slab again = pool.acquire(slab.capacity);
  EXPECT_EQ(again.ptr, ptr);
  const PoolCounters after = pool.counters();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_TRUE(is_pinned(ptr, again.capacity));
  // trim() returns cached slabs through cudaFreeHost.
  pool.release(again);
  pool.trim();
  EXPECT_FALSE(is_pinned(ptr, 1));
}

TEST_F(CudaxTest, SyncMemcpyRoundtrip) {
  std::vector<int> host(256);
  std::iota(host.begin(), host.end(), 0);
  void* dptr = nullptr;
  ASSERT_EQ(cudaMalloc(&dptr, host.size() * sizeof(int)),
            cudaError::cudaSuccess);
  ASSERT_EQ(cudaMemcpy(dptr, host.data(), host.size() * sizeof(int),
                       cudaMemcpyKind::cudaMemcpyHostToDevice),
            cudaError::cudaSuccess);
  std::vector<int> back(256, -1);
  ASSERT_EQ(cudaMemcpy(back.data(), dptr, back.size() * sizeof(int),
                       cudaMemcpyKind::cudaMemcpyDeviceToHost),
            cudaError::cudaSuccess);
  EXPECT_EQ(host, back);
  ASSERT_EQ(cudaFree(dptr), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, AsyncCopyFromPageableDegradesToSync) {
  // Matches the paper's Dedup/CUDA finding: realloc'd (pageable) buffers
  // defeat asynchronous copies.
  std::vector<std::uint8_t> pageable(1 << 20, 0x42);
  void* dptr = nullptr;
  ASSERT_EQ(cudaMalloc(&dptr, 1 << 20), cudaError::cudaSuccess);
  cudaStream_t stream;
  ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
  bool sync_fallback = false;
  ASSERT_EQ(cudaMemcpyAsync(dptr, pageable.data(), 1 << 20,
                            cudaMemcpyKind::cudaMemcpyHostToDevice, stream,
                            &sync_fallback),
            cudaError::cudaSuccess);
  EXPECT_TRUE(sync_fallback);

  void* pinned = nullptr;
  ASSERT_EQ(cudaMallocHost(&pinned, 1 << 20), cudaError::cudaSuccess);
  ASSERT_EQ(cudaMemcpyAsync(dptr, pinned, 1 << 20,
                            cudaMemcpyKind::cudaMemcpyHostToDevice, stream,
                            &sync_fallback),
            cudaError::cudaSuccess);
  EXPECT_FALSE(sync_fallback);
  ASSERT_EQ(cudaFreeHost(pinned), cudaError::cudaSuccess);
  ASSERT_EQ(cudaFree(dptr), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, PageableAsyncCopyIsSlowerInVirtualTime) {
  std::vector<std::uint8_t> pageable(8 << 20);
  void* pinned = nullptr;
  ASSERT_EQ(cudaMallocHost(&pinned, 8 << 20), cudaError::cudaSuccess);
  void* dptr = nullptr;
  ASSERT_EQ(cudaMalloc(&dptr, 8 << 20), cudaError::cudaSuccess);

  cudaStream_t s1, s2;
  ASSERT_EQ(cudaStreamCreate(&s1), cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamCreate(&s2), cudaError::cudaSuccess);
  double t_pageable = 0, t_pinned = 0;
  ASSERT_EQ(cudaMemcpyAsync(dptr, pageable.data(), 8 << 20,
                            cudaMemcpyKind::cudaMemcpyHostToDevice, s1),
            cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamSynchronize(s1, &t_pageable), cudaError::cudaSuccess);
  double base = 0;
  ASSERT_EQ(cudaStreamSynchronize(s2, &base), cudaError::cudaSuccess);
  ASSERT_EQ(cudaMemcpyAsync(dptr, pinned, 8 << 20,
                            cudaMemcpyKind::cudaMemcpyHostToDevice, s2),
            cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamSynchronize(s2, &t_pinned), cudaError::cudaSuccess);
  // Pageable duration > pinned duration (durations, not absolute stamps;
  // s2's copy waits for the H2D engine to free, so subtract its start).
  EXPECT_GT(t_pageable, t_pinned - t_pageable);
  ASSERT_EQ(cudaFreeHost(pinned), cudaError::cudaSuccess);
  ASSERT_EQ(cudaFree(dptr), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, KernelLaunchAndStreams) {
  const std::uint32_t n = 4096;
  void* dptr = nullptr;
  ASSERT_EQ(cudaMalloc(&dptr, n * sizeof(float)), cudaError::cudaSuccess);
  float* data = static_cast<float*>(dptr);
  cudaStream_t stream;
  ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{(n + 255) / 256, 1, 1}, Dim3{256, 1, 1}, stream,
                          [=](const ThreadCtx& ctx) {
                            std::uint64_t i = ctx.global_x();
                            if (i < n) data[i] = static_cast<float>(i) * 0.5f;
                          }),
            cudaError::cudaSuccess);
  double t = 0;
  ASSERT_EQ(cudaStreamSynchronize(stream, &t), cudaError::cudaSuccess);
  EXPECT_GT(t, 0.0);
  EXPECT_FLOAT_EQ(data[100], 50.0f);
  ASSERT_EQ(cudaFree(dptr), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, DestroyedStreamsAreReused) {
  // Workers that create and destroy a stream per run must not grow the
  // device's stream table for as long as the machine lives.
  for (int i = 0; i < 100; ++i) {
    cudaStream_t stream;
    ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
    ASSERT_EQ(launch_kernel(Dim3{1, 1, 1}, Dim3{32, 1, 1}, stream,
                            [](const ThreadCtx&) {}),
              cudaError::cudaSuccess);
    ASSERT_EQ(cudaStreamDestroy(stream), cudaError::cudaSuccess);
    EXPECT_EQ(cudaStreamDestroy(stream),
              cudaError::cudaErrorInvalidResourceHandle);
  }
  EXPECT_EQ(machine_->device(0).stream_count(), 2u);  // default + reused
  cudaStream_t reused;
  ASSERT_EQ(cudaStreamCreate(&reused), cudaError::cudaSuccess);
  double t = -1;
  ASSERT_EQ(cudaStreamSynchronize(reused, &t), cudaError::cudaSuccess);
  EXPECT_EQ(t, 0.0);  // a reused stream starts with no work
  EXPECT_EQ(cudaStreamDestroy(cudaStream_t{}), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, DeviceSynchronizeWaitsForDestroyedStreams) {
  // cudaDeviceSynchronize waits for work queued on a stream that has since
  // been destroyed, and the stream's reuse does not hide it.
  cudaStream_t stream;
  ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{64, 1, 1}, Dim3{256, 1, 1}, stream,
                          [](const ThreadCtx&) {}),
            cudaError::cudaSuccess);
  double kernel_finish = 0;
  ASSERT_EQ(cudaStreamSynchronize(stream, &kernel_finish),
            cudaError::cudaSuccess);
  ASSERT_GT(kernel_finish, 0.0);
  ASSERT_EQ(cudaStreamDestroy(stream), cudaError::cudaSuccess);

  double t = -1;
  ASSERT_EQ(cudaDeviceSynchronize(&t), cudaError::cudaSuccess);
  EXPECT_GE(t, kernel_finish);
  cudaStream_t reused;
  ASSERT_EQ(cudaStreamCreate(&reused), cudaError::cudaSuccess);
  ASSERT_EQ(reused.id, stream.id);
  EXPECT_GE(machine_->device(0).sync_all(), kernel_finish);
  ASSERT_EQ(cudaStreamDestroy(reused), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, DefaultStreamHandleUsesCurrentDevice) {
  ASSERT_EQ(cudaSetDevice(1), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{1, 1, 1}, Dim3{32, 1, 1}, cudaStream_t{},
                          [](const ThreadCtx&) {}),
            cudaError::cudaSuccess);
  EXPECT_EQ(machine_->device(1).counters().kernels_launched, 1u);
  EXPECT_EQ(machine_->device(0).counters().kernels_launched, 0u);
}

TEST_F(CudaxTest, EventsMeasureVirtualTime) {
  cudaStream_t stream;
  ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
  cudaEvent_t start, stop;
  ASSERT_EQ(cudaEventCreate(&start), cudaError::cudaSuccess);
  ASSERT_EQ(cudaEventCreate(&stop), cudaError::cudaSuccess);
  ASSERT_EQ(cudaEventRecord(&start, stream), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{64, 1, 1}, Dim3{256, 1, 1}, stream,
                          [](const ThreadCtx&) -> std::uint64_t {
                            return 50000;
                          }),
            cudaError::cudaSuccess);
  ASSERT_EQ(cudaEventRecord(&stop, stream), cudaError::cudaSuccess);
  float ms = 0;
  ASSERT_EQ(cudaEventElapsedTime(&ms, start, stop), cudaError::cudaSuccess);
  EXPECT_GT(ms, 0.0f);
  cudaEvent_t never;
  ASSERT_EQ(cudaEventCreate(&never), cudaError::cudaSuccess);
  EXPECT_EQ(cudaEventSynchronize(never), cudaError::cudaErrorNotReady);
}

TEST_F(CudaxTest, StreamWaitEventOrdersAcrossStreams) {
  cudaStream_t s1, s2;
  ASSERT_EQ(cudaStreamCreate(&s1), cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamCreate(&s2), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{128, 1, 1}, Dim3{256, 1, 1}, s1,
                          [](const ThreadCtx&) -> std::uint64_t {
                            return 100000;
                          }),
            cudaError::cudaSuccess);
  cudaEvent_t ev;
  ASSERT_EQ(cudaEventCreate(&ev), cudaError::cudaSuccess);
  ASSERT_EQ(cudaEventRecord(&ev, s1), cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamWaitEvent(s2, ev), cudaError::cudaSuccess);
  ASSERT_EQ(launch_kernel(Dim3{1, 1, 1}, Dim3{32, 1, 1}, s2,
                          [](const ThreadCtx&) {}),
            cudaError::cudaSuccess);
  double t1 = 0, t2 = 0;
  ASSERT_EQ(cudaStreamSynchronize(s1, &t1), cudaError::cudaSuccess);
  ASSERT_EQ(cudaStreamSynchronize(s2, &t2), cudaError::cudaSuccess);
  EXPECT_GE(t2, t1);
}

TEST_F(CudaxTest, MultiGpuRoundRobinPattern) {
  // The paper's multi-GPU scheme: memory spaces assigned to devices
  // round-robin. Two devices get equal kernel counts.
  for (int batch = 0; batch < 8; ++batch) {
    ASSERT_EQ(cudaSetDevice(batch % 2), cudaError::cudaSuccess);
    ASSERT_EQ(launch_kernel(Dim3{16, 1, 1}, Dim3{256, 1, 1}, cudaStream_t{},
                            [](const ThreadCtx&) -> std::uint64_t {
                              return 1000;
                            }),
              cudaError::cudaSuccess);
  }
  EXPECT_EQ(machine_->device(0).counters().kernels_launched, 4u);
  EXPECT_EQ(machine_->device(1).counters().kernels_launched, 4u);
  // Both devices worked in parallel: makespan below serialized sum.
  double t0 = machine_->device(0).sync_all();
  double t1 = machine_->device(1).sync_all();
  EXPECT_NEAR(machine_->makespan(), std::max(t0, t1), 1e-12);
}

TEST_F(CudaxTest, DevicePropertiesMatchSpec) {
  cudaDeviceProp prop{};
  ASSERT_EQ(cudaGetDeviceProperties(&prop, 0), cudaError::cudaSuccess);
  EXPECT_STREQ(prop.name, "SimTitanXP");
  EXPECT_EQ(prop.multiProcessorCount, 30);
  EXPECT_EQ(prop.maxThreadsPerMultiProcessor, 2048);
  EXPECT_EQ(prop.warpSize, 32);
  EXPECT_EQ(prop.totalGlobalMem, 12ull << 30);
  EXPECT_EQ(cudaGetDeviceProperties(&prop, 9),
            cudaError::cudaErrorInvalidDevice);
  // The paper's resident-thread arithmetic from the API:
  EXPECT_EQ(prop.multiProcessorCount * prop.maxThreadsPerMultiProcessor,
            61440);
}

TEST_F(CudaxTest, MemGetInfoTracksAllocations) {
  std::size_t free_b = 0, total_b = 0;
  ASSERT_EQ(cudaMemGetInfo(&free_b, &total_b), cudaError::cudaSuccess);
  EXPECT_EQ(free_b, total_b);
  void* p = nullptr;
  ASSERT_EQ(cudaMalloc(&p, 1 << 20), cudaError::cudaSuccess);
  std::size_t free2 = 0, total2 = 0;
  ASSERT_EQ(cudaMemGetInfo(&free2, &total2), cudaError::cudaSuccess);
  EXPECT_EQ(total2, total_b);
  EXPECT_EQ(free2, free_b - (1 << 20));
  ASSERT_EQ(cudaFree(p), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, MemsetFillsDeviceMemory) {
  void* dptr = nullptr;
  ASSERT_EQ(cudaMalloc(&dptr, 256), cudaError::cudaSuccess);
  ASSERT_EQ(cudaMemset(dptr, 0xAB, 256), cudaError::cudaSuccess);
  std::vector<std::uint8_t> back(256, 0);
  ASSERT_EQ(cudaMemcpy(back.data(), dptr, 256,
                       cudaMemcpyKind::cudaMemcpyDeviceToHost),
            cudaError::cudaSuccess);
  for (std::uint8_t b : back) EXPECT_EQ(b, 0xAB);
  // Async form on a stream, plus error paths.
  cudaStream_t stream;
  ASSERT_EQ(cudaStreamCreate(&stream), cudaError::cudaSuccess);
  ASSERT_EQ(cudaMemsetAsync(dptr, 0, 256, stream), cudaError::cudaSuccess);
  int host_var = 0;
  EXPECT_EQ(cudaMemset(&host_var, 0, 4), cudaError::cudaErrorInvalidValue);
  ASSERT_EQ(cudaFree(dptr), cudaError::cudaSuccess);
}

TEST_F(CudaxTest, ErrorNamesAndMessages) {
  EXPECT_EQ(error_name(cudaError::cudaSuccess), "cudaSuccess");
  EXPECT_EQ(error_name(cudaError::cudaErrorMemoryAllocation),
            "cudaErrorMemoryAllocation");
  void* p = nullptr;
  ASSERT_EQ(cudaSetDevice(0), cudaError::cudaSuccess);
  EXPECT_EQ(cudaMalloc(&p, 100ull << 30), cudaError::cudaErrorMemoryAllocation);
  EXPECT_NE(last_error_message().find("out of memory"), std::string::npos);
}

}  // namespace
}  // namespace hs::cudax
