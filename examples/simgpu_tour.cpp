// Tour of the simulated-GPU APIs: the CUDA-style shim (streams, events,
// pinned memory, copy/compute overlap) and the OpenCL-style shim
// (discovery workflow, command queues, the non-thread-safe cl_kernel).
// Demonstrates the exact mechanisms the paper wrestles with in §IV-A.
#include <cstdio>
#include <thread>
#include <vector>

#include "cudax/cudax.hpp"
#include "oclx/oclx.hpp"

namespace {

int cuda_tour(hs::gpusim::Machine& machine) {
  using namespace hs::cudax;
  std::printf("== CUDA-style shim ==\n");
  bind_machine(&machine);

  int count = 0;
  cudaGetDeviceCount(&count);
  std::printf("devices: %d\n", count);

  // Pinned host memory enables real async copies (the paper's Dedup could
  // not use it because of realloc, defeating its 2x-memory optimization).
  const std::size_t n = 1 << 20;
  void* pinned = nullptr;
  if (cudaMallocHost(&pinned, n * sizeof(float)) != cudaError::cudaSuccess) {
    return 1;
  }
  auto* host_data = static_cast<float*>(pinned);
  for (std::size_t i = 0; i < n; ++i) host_data[i] = static_cast<float>(i);

  void* dev = nullptr;
  if (cudaMalloc(&dev, n * sizeof(float)) != cudaError::cudaSuccess) {
    std::fprintf(stderr, "cudaMalloc: %s\n", last_error_message().c_str());
    return 1;
  }
  auto* dev_data = static_cast<float*>(dev);

  cudaStream_t stream;
  cudaStreamCreate(&stream);
  cudaEvent_t start, stop;
  cudaEventCreate(&start);
  cudaEventCreate(&stop);

  cudaEventRecord(&start, stream);
  bool fell_back = false;
  cudaMemcpyAsync(dev, pinned, n * sizeof(float),
                  cudaMemcpyKind::cudaMemcpyHostToDevice, stream, &fell_back);
  launch_kernel(Dim3{static_cast<std::uint32_t>((n + 255) / 256), 1, 1},
                Dim3{256, 1, 1}, stream,
                [dev_data, n](const ThreadCtx& ctx) -> std::uint64_t {
                  std::uint64_t i = ctx.global_x();
                  if (i >= n) return 1;
                  float x = dev_data[i];
                  // saxpy-ish busy loop: cost 64 units
                  for (int k = 0; k < 63; ++k) x = x * 1.0000001f + 0.5f;
                  dev_data[i] = x;
                  return 64;
                });
  cudaMemcpyAsync(pinned, dev, n * sizeof(float),
                  cudaMemcpyKind::cudaMemcpyDeviceToHost, stream);
  cudaEventRecord(&stop, stream);
  float ms = 0;
  cudaEventElapsedTime(&ms, start, stop);
  std::printf("copy->kernel->copy on one stream: %.3f virtual ms "
              "(async copies%s)\n",
              ms, fell_back ? " FELL BACK to sync" : "");
  std::printf("result sample: %.2f (was 1000)\n",
              static_cast<double>(host_data[1000]));

  cudaFree(dev);
  cudaFreeHost(pinned);
  unbind_machine();
  return 0;
}

int opencl_tour(hs::gpusim::Machine& machine) {
  using namespace hs::oclx;
  std::printf("\n== OpenCL-style shim ==\n");
  // Step 1 of the paper's OpenCL workflow: discovery.
  auto platforms = Platform::get(&machine);
  if (platforms.empty()) return 1;
  auto devices = platforms[0].devices();
  std::printf("platform '%s', %zu device(s), %u CUs each\n",
              platforms[0].name().c_str(), devices.size(),
              devices[0].max_compute_units());

  auto ctx = Context::create(devices);
  auto queue = CommandQueue::create(ctx.value(), devices[0]);
  auto buf = Buffer::create(ctx.value(), devices[0], 256);
  if (!queue.ok() || !buf.ok()) return 1;

  // cl_kernel objects are NOT thread-safe: the second thread must either
  // create its own kernel (the paper's per-stream-item fix) or acquire().
  Kernel kernel = Kernel::create("touch", [](const ThreadCtx&) {});
  queue.value().enqueue_ndrange(kernel, Dim3{64, 1, 1}, Dim3{64, 1, 1},
                                nullptr);
  ClStatus foreign = ClStatus::kSuccess;
  std::thread t([&] {
    auto q2 = CommandQueue::create(ctx.value(), devices[0]);
    foreign = q2.value().enqueue_ndrange(kernel, Dim3{64, 1, 1},
                                         Dim3{64, 1, 1}, nullptr);
  });
  t.join();
  std::printf("enqueue from foreign thread: %s (expected "
              "CL_INVALID_OPERATION — allocate one kernel per thread)\n",
              std::string(status_name(foreign)).c_str());

  // Events: the mechanism the paper's last pipeline stage uses.
  Kernel work = Kernel::create("work", [](const ThreadCtx&) -> std::uint64_t {
    return 5000;
  });
  Event done;
  queue.value().enqueue_ndrange(work, Dim3{30 * 2048, 1, 1}, Dim3{256, 1, 1},
                                &done);
  auto finished = Event::wait_for_events({done});
  std::printf("clWaitForEvents: kernel finished at virtual t=%.4fs\n",
              finished.value_or(-1));
  return 0;
}

}  // namespace

int main() {
  auto machine =
      hs::gpusim::Machine::Create(2, hs::gpusim::DeviceSpec::TitanXP());
  int rc = cuda_tour(*machine);
  if (rc != 0) return rc;
  return opencl_tour(*machine);
}
