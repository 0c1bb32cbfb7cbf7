#include "spar/gpu_stage.hpp"

#include <algorithm>

namespace hs::spar {

CudaDevice::~CudaDevice() {
  release();
  for (const cudax::cudaStream_t& stream : streams_) {
    if (stream.device >= 0) (void)cudax::cudaStreamDestroy(stream);
  }
}

Status CudaDevice::bind(int device) {
  HS_RETURN_IF_ERROR(
      cudax::cuda_status(cudax::cudaSetDevice(device), "set device failed"));
  const auto index = static_cast<std::size_t>(device);
  if (index >= streams_.size()) streams_.resize(index + 1);
  if (streams_[index].device < 0) {
    HS_RETURN_IF_ERROR(cudax::cuda_status(
        cudax::cudaStreamCreate(&streams_[index]), "stream create failed"));
  }
  stream_ = streams_[index];
  device_ = device;
  return OkStatus();
}

void CudaDevice::release() {
  cudax::pinned_pool().release(pinned_);
  pinned_ = {};
  if (device_ < 0) return;
  // Best effort: freeing on a lost device only drops the bookkeeping.
  (void)cudax::cudaSetDevice(device_);
  for (const Slot& slot : scratch_) {
    if (slot.ptr != nullptr) (void)cudax::cudaFree(slot.ptr);
  }
  scratch_.clear();
  device_ = -1;
}

Result<void*> CudaDevice::scratch(std::size_t slot, std::size_t bytes) {
  if (slot >= scratch_.size()) scratch_.resize(slot + 1);
  Slot& s = scratch_[slot];
  if (s.size < bytes) {
    if (s.ptr != nullptr) (void)cudax::cudaFree(s.ptr);
    const std::size_t want = std::max(bytes, s.size * 2);
    s = Slot{};
    HS_RETURN_IF_ERROR(cudax::cuda_status(cudax::cudaMalloc(&s.ptr, want),
                                          "device scratch allocation failed"));
    s.size = want;
  }
  return s.ptr;
}

Result<void*> CudaDevice::upload(std::size_t slot, const void* src,
                                 std::size_t bytes, const char* span) {
  auto buf = scratch(slot, bytes);
  if (!buf.ok()) return buf;
  HS_RETURN_IF_ERROR(traced(span, [&] {
    return cudax::cudaMemcpyAsync(buf.value(), src, bytes,
                                  cudax::cudaMemcpyKind::cudaMemcpyHostToDevice,
                                  stream_);
  }));
  return buf;
}

Status CudaDevice::download(void* dst, const void* src, std::size_t bytes,
                            const char* span) {
  return traced(span, [&] {
    return cudax::cudaMemcpyAsync(dst, src, bytes,
                                  cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost,
                                  stream_);
  });
}

Status CudaDevice::sync(const char* span) {
  return traced(span, [&] { return cudax::cudaStreamSynchronize(stream_); });
}

std::uint8_t* CudaDevice::staging(std::size_t bytes) {
  if (pinned_.capacity < bytes) {
    BufferPool& pool = cudax::pinned_pool();
    pool.release(pinned_);
    pinned_ = pool.acquire(bytes);
  }
  if (pinned_.ptr != nullptr) return pinned_.ptr;
  if (pageable_.size() < bytes) pageable_.resize(bytes);
  return pageable_.data();
}

Status ClDevice::bind(int device) {
  const std::vector<oclx::Platform> platforms = oclx::Platform::get(machine_);
  if (platforms.empty()) return NotFound("no OpenCL platform");
  const std::vector<oclx::DeviceId> devices = platforms[0].devices();
  auto context = oclx::Context::create(devices);
  if (!context.ok()) return context.status();
  context_.emplace(std::move(context).value());
  auto queue = oclx::CommandQueue::create(
      *context_, devices[static_cast<std::size_t>(device)]);
  if (!queue.ok()) return queue.status();
  queue_.emplace(std::move(queue).value());
  device_ = device;
  return OkStatus();
}

void ClDevice::release() {
  buffer_.reset();
  queue_.reset();
  context_.reset();
  device_ = -1;
}

Result<oclx::Buffer*> ClDevice::buffer(std::size_t bytes) {
  if (!buffer_.has_value() || buffer_->size() < bytes) {
    const std::size_t want =
        std::max(bytes, buffer_.has_value() ? buffer_->size() * 2 : 0);
    buffer_.reset();
    auto created = oclx::Buffer::create(
        *context_, context_->devices()[static_cast<std::size_t>(device_)],
        want);
    if (!created.ok()) return created.status();
    buffer_.emplace(std::move(created).value());
  }
  return &*buffer_;
}

std::uint8_t* ClDevice::staging(std::size_t bytes) {
  if (host_.size() < bytes) host_.resize(bytes);
  return host_.data();
}

}  // namespace hs::spar
