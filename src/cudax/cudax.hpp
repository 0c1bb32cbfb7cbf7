// CUDA-runtime-style API over the simulated GPUs (paper §III-D).
//
// The shim reproduces the CUDA semantics the paper's implementation work
// hinges on:
//  * cudaSetDevice is THREAD-LOCAL state ("has thread-side effects, thus it
//    must be called after initializing each thread", §IV-A);
//  * async copies require page-locked host memory allocated with
//    cudaMallocHost — cudaMemcpyAsync from pageable memory degrades to an
//    effectively synchronous staged copy at reduced bandwidth (why Dedup's
//    realloc'd buffers defeated the 2x-memory-space optimization, §V-B);
//  * streams are in-order dependency chains; events synchronize across
//    streams and report *virtual* elapsed time;
//  * kernels are launched with a grid/block geometry onto a stream.
//
// Error handling uses cudaError-style codes (the shim's public surface
// mirrors the CUDA runtime); richer diagnostics are available via
// last_error_message().
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer_pool.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"

namespace hs::cudax {

using gpusim::Dim3;
using gpusim::KernelAttributes;
using gpusim::ThreadCtx;

/// CUDA-style error codes (subset).
enum class cudaError : std::uint8_t {
  cudaSuccess = 0,
  cudaErrorInvalidValue,
  cudaErrorMemoryAllocation,
  cudaErrorInvalidDevice,
  cudaErrorInvalidResourceHandle,
  cudaErrorNotReady,
  cudaErrorNoDevice,
  cudaErrorLaunchFailure,        ///< transient kernel/copy execution failure
  cudaErrorDevicesUnavailable,   ///< device lost / not available (sticky)
};

/// Human-readable error name.
std::string_view error_name(cudaError e);

/// Maps a simulator Status onto the closest cudaError (used by every memory
/// and execution entry point, so injected faults surface with the code a real
/// CUDA application would see).
cudaError error_from_status(const Status& s);

/// Inverse of error_from_status, for callers that translate API results back
/// into Status for the common retry machinery.
ErrorCode error_code_of(cudaError e);

/// Thread-local detailed message for the last failing call on this thread.
const std::string& last_error_message();

/// The Status the retry ladder reasons about for one shim call: OK, or the
/// call's ErrorCode with "`what`: last_error_message()".
Status cuda_status(cudaError e, const char* what);

enum class cudaMemcpyKind : std::uint8_t {
  cudaMemcpyHostToDevice,
  cudaMemcpyDeviceToHost,
  cudaMemcpyDeviceToDevice,
};

/// Opaque stream handle. Stream{} is the default stream of the current
/// device at the time of use.
struct cudaStream_t {
  std::int32_t device = -1;   // -1 = default stream marker
  gpusim::StreamId id = 0;
  friend bool operator==(const cudaStream_t&, const cudaStream_t&) = default;
};

/// Opaque event handle.
struct cudaEvent_t {
  std::int32_t device = -1;
  gpusim::OpHandle op;
  bool recorded = false;
};

// ---- runtime binding ---------------------------------------------------------

/// Binds the simulated machine the CUDA calls operate on. Must outlive all
/// cudax use. Rebinding resets every thread's current device to 0.
void bind_machine(gpusim::Machine* machine);

/// Unbinds (subsequent calls fail with cudaErrorNoDevice).
void unbind_machine();

// ---- device management --------------------------------------------------------

/// Subset of cudaDeviceProp relevant to the paper's occupancy analysis.
struct cudaDeviceProp {
  char name[64] = {};
  int multiProcessorCount = 0;
  int maxThreadsPerMultiProcessor = 0;
  int warpSize = 0;
  int regsPerMultiprocessor = 0;
  std::size_t sharedMemPerMultiprocessor = 0;
  std::size_t totalGlobalMem = 0;
};

cudaError cudaGetDeviceCount(int* count);
/// Fills the properties of `device` (cudaGetDeviceProperties).
cudaError cudaGetDeviceProperties(cudaDeviceProp* prop, int device);
/// Free and total memory of the *current* device (cudaMemGetInfo).
cudaError cudaMemGetInfo(std::size_t* free_bytes, std::size_t* total_bytes);
/// Sets the calling thread's current device (thread-local!).
cudaError cudaSetDevice(int device);
cudaError cudaGetDevice(int* device);
/// Virtual-time barrier on every stream of the current device. Returns the
/// virtual completion time through `vtime` when non-null.
cudaError cudaDeviceSynchronize(double* vtime = nullptr);

// ---- memory --------------------------------------------------------------------

/// Device allocation on the current device.
cudaError cudaMalloc(void** ptr, std::size_t bytes);
cudaError cudaFree(void* ptr);
/// Page-locked host allocation (required for truly asynchronous copies).
cudaError cudaMallocHost(void** ptr, std::size_t bytes);
cudaError cudaFreeHost(void* ptr);
/// True if [ptr, ptr+len) lies in a cudaMallocHost allocation.
bool is_pinned(const void* ptr, std::size_t len);
/// Process-wide pool of pinned host staging slabs, shared by the GPU
/// bindings. cudaMallocHost is the expensive way to get pinned memory, so
/// released slabs stay cached (and pinned) for the next acquire; only trim()
/// and the cache bound cudaFreeHost them. acquire() returns an empty slab
/// when pinned allocation fails, and the caller falls back to pageable
/// memory (the transfers still work, at pageable speed).
BufferPool& pinned_pool();

/// Synchronous copy on the current device's default stream.
cudaError cudaMemcpy(void* dst, const void* src, std::size_t bytes,
                     cudaMemcpyKind kind);
/// Fills device memory on the current device's default stream.
cudaError cudaMemset(void* dst, int value, std::size_t bytes);
/// Asynchronous fill on `stream`.
cudaError cudaMemsetAsync(void* dst, int value, std::size_t bytes,
                          cudaStream_t stream);

/// Asynchronous copy on `stream`. With pageable host memory this degrades
/// to a staged, slower transfer (matching CUDA's documented behaviour);
/// out_effectively_sync (optional) reports whether the fallback happened.
cudaError cudaMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                          cudaMemcpyKind kind, cudaStream_t stream,
                          bool* out_effectively_sync = nullptr);

// ---- streams and events ----------------------------------------------------------

cudaError cudaStreamCreate(cudaStream_t* stream);
/// Frees the stream's id for a later cudaStreamCreate; work already queued
/// on it still counts toward cudaDeviceSynchronize. An unknown or already
/// destroyed stream is cudaErrorInvalidResourceHandle.
cudaError cudaStreamDestroy(cudaStream_t stream);
/// Blocks (virtually) until the stream drains; reports the virtual
/// completion time through `vtime` when non-null.
cudaError cudaStreamSynchronize(cudaStream_t stream, double* vtime = nullptr);

cudaError cudaEventCreate(cudaEvent_t* event);
cudaError cudaEventRecord(cudaEvent_t* event, cudaStream_t stream);
cudaError cudaEventSynchronize(const cudaEvent_t& event,
                               double* vtime = nullptr);
/// Virtual milliseconds between two recorded events (CUDA semantics).
cudaError cudaEventElapsedTime(float* ms, const cudaEvent_t& start,
                               const cudaEvent_t& end);
/// Makes `stream` wait for `event` (cross-stream/device dependency).
cudaError cudaStreamWaitEvent(cudaStream_t stream, const cudaEvent_t& event);

// ---- kernel launch ------------------------------------------------------------------

/// Equivalent of kernel<<<grid, block, 0, stream>>>(...): `body` is invoked
/// once per simulated thread; it may return an integral cost (loop trip
/// count) or void. Uses the calling thread's current device.
template <typename F>
cudaError launch_kernel(const Dim3& grid, const Dim3& block,
                        const KernelAttributes& attrs, cudaStream_t stream,
                        F&& body);

/// Default-attribute overload.
template <typename F>
cudaError launch_kernel(const Dim3& grid, const Dim3& block,
                        cudaStream_t stream, F&& body) {
  return launch_kernel(grid, block, KernelAttributes{}, stream,
                       std::forward<F>(body));
}

// ---- internal access (used by the template and perfmodel integration) -----------

namespace detail {
gpusim::Machine* machine();
/// Resolves the current device; null + error set when unbound/invalid.
gpusim::Device* current_device();
/// Resolves a stream handle against the current device. Returns false and
/// sets the error message on mismatch/invalid handles.
bool resolve_stream(cudaStream_t stream, gpusim::Device** dev,
                    gpusim::StreamId* id);
void set_error(std::string msg);
cudaError fail(cudaError e, std::string msg);
/// Last op handle on a stream (for perfmodel dependency tracking).
gpusim::OpHandle stream_tail(cudaStream_t stream);
}  // namespace detail

template <typename F>
cudaError launch_kernel(const Dim3& grid, const Dim3& block,
                        const KernelAttributes& attrs, cudaStream_t stream,
                        F&& body) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  auto r = dev->launch(grid, block, attrs, sid, std::forward<F>(body));
  if (!r.ok()) {
    return detail::fail(error_from_status(r.status()), r.status().ToString());
  }
  return cudaError::cudaSuccess;
}

}  // namespace hs::cudax
