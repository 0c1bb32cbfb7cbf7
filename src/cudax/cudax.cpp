#include "cudax/cudax.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace hs::cudax {

namespace {

// Global runtime binding. An epoch counter invalidates per-thread current-
// device caches when the machine is rebound.
std::atomic<gpusim::Machine*> g_machine{nullptr};
std::atomic<std::uint64_t> g_epoch{0};

thread_local std::uint64_t tls_epoch = ~0ull;
thread_local int tls_device = 0;
thread_local std::string tls_error;

/// Registry of page-locked host allocations.
struct PinnedRegistry {
  std::mutex mu;
  std::map<std::uintptr_t, std::size_t> ranges;

  void add(void* p, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    ranges[reinterpret_cast<std::uintptr_t>(p)] = n;
  }
  bool remove(void* p) {
    std::lock_guard<std::mutex> lock(mu);
    return ranges.erase(reinterpret_cast<std::uintptr_t>(p)) > 0;
  }
  bool contains(const void* p, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    auto addr = reinterpret_cast<std::uintptr_t>(p);
    auto it = ranges.upper_bound(addr);
    if (it == ranges.begin()) return false;
    --it;
    return addr >= it->first && addr + n <= it->first + it->second;
  }
};

PinnedRegistry& pinned_registry() {
  static PinnedRegistry* r = new PinnedRegistry();
  return *r;
}

int current_device_index() {
  if (tls_epoch != g_epoch.load(std::memory_order_acquire)) {
    tls_epoch = g_epoch.load(std::memory_order_acquire);
    tls_device = 0;
  }
  return tls_device;
}

}  // namespace

std::string_view error_name(cudaError e) {
  switch (e) {
    case cudaError::cudaSuccess: return "cudaSuccess";
    case cudaError::cudaErrorInvalidValue: return "cudaErrorInvalidValue";
    case cudaError::cudaErrorMemoryAllocation:
      return "cudaErrorMemoryAllocation";
    case cudaError::cudaErrorInvalidDevice: return "cudaErrorInvalidDevice";
    case cudaError::cudaErrorInvalidResourceHandle:
      return "cudaErrorInvalidResourceHandle";
    case cudaError::cudaErrorNotReady: return "cudaErrorNotReady";
    case cudaError::cudaErrorNoDevice: return "cudaErrorNoDevice";
    case cudaError::cudaErrorLaunchFailure: return "cudaErrorLaunchFailure";
    case cudaError::cudaErrorDevicesUnavailable:
      return "cudaErrorDevicesUnavailable";
  }
  return "cudaErrorUnknown";
}

cudaError error_from_status(const Status& s) {
  switch (s.code()) {
    case ErrorCode::kOk: return cudaError::cudaSuccess;
    case ErrorCode::kOutOfMemory: return cudaError::cudaErrorMemoryAllocation;
    case ErrorCode::kUnavailable: return cudaError::cudaErrorDevicesUnavailable;
    case ErrorCode::kInternal: return cudaError::cudaErrorLaunchFailure;
    default: return cudaError::cudaErrorInvalidValue;
  }
}

ErrorCode error_code_of(cudaError e) {
  switch (e) {
    case cudaError::cudaSuccess: return ErrorCode::kOk;
    case cudaError::cudaErrorMemoryAllocation: return ErrorCode::kOutOfMemory;
    case cudaError::cudaErrorDevicesUnavailable: return ErrorCode::kUnavailable;
    case cudaError::cudaErrorLaunchFailure: return ErrorCode::kInternal;
    case cudaError::cudaErrorNoDevice: return ErrorCode::kFailedPrecondition;
    default: return ErrorCode::kInvalidArgument;
  }
}

const std::string& last_error_message() { return tls_error; }

Status cuda_status(cudaError e, const char* what) {
  if (e == cudaError::cudaSuccess) return OkStatus();
  return Status(error_code_of(e), std::string(what) + ": " + tls_error);
}

void bind_machine(gpusim::Machine* machine) {
  g_machine.store(machine, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

void unbind_machine() { bind_machine(nullptr); }

namespace detail {

gpusim::Machine* machine() {
  return g_machine.load(std::memory_order_acquire);
}

void set_error(std::string msg) { tls_error = std::move(msg); }

cudaError fail(cudaError e, std::string msg) {
  set_error(std::move(msg));
  return e;
}

gpusim::Device* current_device() {
  gpusim::Machine* m = machine();
  if (m == nullptr) {
    set_error("no machine bound (call cudax::bind_machine first)");
    return nullptr;
  }
  int idx = current_device_index();
  if (idx < 0 || idx >= m->device_count()) {
    set_error("current device index out of range");
    return nullptr;
  }
  return &m->device(idx);
}

bool resolve_stream(cudaStream_t stream, gpusim::Device** dev,
                    gpusim::StreamId* id) {
  gpusim::Machine* m = machine();
  if (m == nullptr) {
    set_error("no machine bound");
    return false;
  }
  if (stream.device < 0) {  // default stream of the current device
    gpusim::Device* d = current_device();
    if (d == nullptr) return false;
    *dev = d;
    *id = d->default_stream();
    return true;
  }
  if (stream.device >= m->device_count()) {
    set_error("stream belongs to a nonexistent device");
    return false;
  }
  *dev = &m->device(stream.device);
  if (stream.id >= (*dev)->stream_count()) {
    set_error("unknown stream id");
    return false;
  }
  *id = stream.id;
  return true;
}

gpusim::OpHandle stream_tail(cudaStream_t stream) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!resolve_stream(stream, &dev, &sid)) return {};
  auto r = dev->stream_last(sid);
  return r.ok() ? r.value() : gpusim::OpHandle{};
}

}  // namespace detail

// ---- device management ---------------------------------------------------------

cudaError cudaGetDeviceCount(int* count) {
  gpusim::Machine* m = detail::machine();
  if (m == nullptr) {
    return detail::fail(cudaError::cudaErrorNoDevice, "no machine bound");
  }
  *count = m->device_count();
  return cudaError::cudaSuccess;
}

cudaError cudaGetDeviceProperties(cudaDeviceProp* prop, int device) {
  gpusim::Machine* m = detail::machine();
  if (m == nullptr) {
    return detail::fail(cudaError::cudaErrorNoDevice, "no machine bound");
  }
  if (device < 0 || device >= m->device_count()) {
    return detail::fail(cudaError::cudaErrorInvalidDevice,
                        "device index out of range");
  }
  const gpusim::DeviceSpec& spec = m->device(device).spec();
  *prop = cudaDeviceProp{};
  std::snprintf(prop->name, sizeof(prop->name), "%s", spec.name.c_str());
  prop->multiProcessorCount = static_cast<int>(spec.sm_count);
  prop->maxThreadsPerMultiProcessor =
      static_cast<int>(spec.max_threads_per_sm);
  prop->warpSize = static_cast<int>(spec.warp_size);
  prop->regsPerMultiprocessor = static_cast<int>(spec.registers_per_sm);
  prop->sharedMemPerMultiprocessor = spec.shared_mem_per_sm;
  prop->totalGlobalMem = spec.memory_bytes;
  return cudaError::cudaSuccess;
}

cudaError cudaMemGetInfo(std::size_t* free_bytes, std::size_t* total_bytes) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  *total_bytes = dev->memory_capacity();
  *free_bytes = dev->memory_capacity() - dev->memory_used();
  return cudaError::cudaSuccess;
}

cudaError cudaSetDevice(int device) {
  gpusim::Machine* m = detail::machine();
  if (m == nullptr) {
    return detail::fail(cudaError::cudaErrorNoDevice, "no machine bound");
  }
  if (device < 0 || device >= m->device_count()) {
    return detail::fail(cudaError::cudaErrorInvalidDevice,
                        "device index out of range");
  }
  current_device_index();  // refresh epoch
  tls_device = device;
  return cudaError::cudaSuccess;
}

cudaError cudaGetDevice(int* device) {
  if (detail::machine() == nullptr) {
    return detail::fail(cudaError::cudaErrorNoDevice, "no machine bound");
  }
  *device = current_device_index();
  return cudaError::cudaSuccess;
}

cudaError cudaDeviceSynchronize(double* vtime) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  double t = dev->sync_all();
  if (vtime != nullptr) *vtime = t;
  return cudaError::cudaSuccess;
}

// ---- memory ----------------------------------------------------------------------

cudaError cudaMalloc(void** ptr, std::size_t bytes) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  auto r = dev->malloc(bytes);
  if (!r.ok()) {
    // Allocation failures keep CUDA's classic code except when the device
    // itself is gone, which is a distinct, non-retriable condition.
    cudaError e = r.status().code() == ErrorCode::kUnavailable
                      ? cudaError::cudaErrorDevicesUnavailable
                      : cudaError::cudaErrorMemoryAllocation;
    return detail::fail(e, r.status().ToString());
  }
  *ptr = r.value();
  return cudaError::cudaSuccess;
}

cudaError cudaFree(void* ptr) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  Status s = dev->free(ptr);
  if (!s.ok()) {
    return detail::fail(cudaError::cudaErrorInvalidValue, s.ToString());
  }
  return cudaError::cudaSuccess;
}

cudaError cudaMallocHost(void** ptr, std::size_t bytes) {
  if (bytes == 0) {
    return detail::fail(cudaError::cudaErrorInvalidValue,
                        "zero-byte pinned allocation");
  }
  void* p = std::malloc(bytes);
  if (p == nullptr) {
    return detail::fail(cudaError::cudaErrorMemoryAllocation,
                        "host allocation failed");
  }
  pinned_registry().add(p, bytes);
  *ptr = p;
  return cudaError::cudaSuccess;
}

cudaError cudaFreeHost(void* ptr) {
  if (!pinned_registry().remove(ptr)) {
    return detail::fail(cudaError::cudaErrorInvalidValue,
                        "pointer was not allocated with cudaMallocHost");
  }
  std::free(ptr);
  return cudaError::cudaSuccess;
}

bool is_pinned(const void* ptr, std::size_t len) {
  return pinned_registry().contains(ptr, len);
}

BufferPool& pinned_pool() {
  // Leaked singleton: staging slabs held by pipeline nodes may be released
  // during static teardown, after a local pool would be gone.
  static BufferPool* pool = new BufferPool(
      BufferPool::kDefaultMaxCachedBytes,
      {[](std::size_t bytes) -> void* {
         void* ptr = nullptr;
         return cudaMallocHost(&ptr, bytes) == cudaError::cudaSuccess
                    ? ptr
                    : nullptr;
       },
       [](void* ptr) { (void)cudaFreeHost(ptr); }});
  return *pool;
}

namespace {

cudaError do_copy(void* dst, const void* src, std::size_t bytes,
                  cudaMemcpyKind kind, gpusim::Device* dev,
                  gpusim::StreamId sid, gpusim::HostMem host_mem) {
  Result<gpusim::OpHandle> r = InvalidArgument("unreachable");
  switch (kind) {
    case cudaMemcpyKind::cudaMemcpyHostToDevice:
      r = dev->memcpy_h2d(dst, src, bytes, sid, host_mem);
      break;
    case cudaMemcpyKind::cudaMemcpyDeviceToHost:
      r = dev->memcpy_d2h(dst, src, bytes, sid, host_mem);
      break;
    case cudaMemcpyKind::cudaMemcpyDeviceToDevice:
      r = dev->memcpy_d2d(dst, src, bytes, sid);
      break;
  }
  if (!r.ok()) {
    return detail::fail(error_from_status(r.status()), r.status().ToString());
  }
  return cudaError::cudaSuccess;
}

}  // namespace

cudaError cudaMemcpy(void* dst, const void* src, std::size_t bytes,
                     cudaMemcpyKind kind) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  const void* host_side =
      kind == cudaMemcpyKind::cudaMemcpyHostToDevice ? src : dst;
  gpusim::HostMem mem = is_pinned(host_side, bytes) ? gpusim::HostMem::kPinned
                                                    : gpusim::HostMem::kPageable;
  return do_copy(dst, src, bytes, kind, dev, dev->default_stream(), mem);
}

cudaError cudaMemset(void* dst, int value, std::size_t bytes) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  auto r = dev->memset(dst, value, bytes, dev->default_stream());
  if (!r.ok()) {
    return detail::fail(error_from_status(r.status()), r.status().ToString());
  }
  return cudaError::cudaSuccess;
}

cudaError cudaMemsetAsync(void* dst, int value, std::size_t bytes,
                          cudaStream_t stream) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  auto r = dev->memset(dst, value, bytes, sid);
  if (!r.ok()) {
    return detail::fail(error_from_status(r.status()), r.status().ToString());
  }
  return cudaError::cudaSuccess;
}

cudaError cudaMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                          cudaMemcpyKind kind, cudaStream_t stream,
                          bool* out_effectively_sync) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  const void* host_side =
      kind == cudaMemcpyKind::cudaMemcpyHostToDevice ? src : dst;
  bool pinned = kind == cudaMemcpyKind::cudaMemcpyDeviceToDevice ||
                is_pinned(host_side, bytes);
  if (out_effectively_sync != nullptr) *out_effectively_sync = !pinned;
  return do_copy(dst, src, bytes, kind, dev, sid,
                 pinned ? gpusim::HostMem::kPinned
                        : gpusim::HostMem::kPageable);
}

// ---- streams and events -----------------------------------------------------------

cudaError cudaStreamCreate(cudaStream_t* stream) {
  gpusim::Device* dev = detail::current_device();
  if (dev == nullptr) return cudaError::cudaErrorNoDevice;
  stream->device = static_cast<std::int32_t>(dev->index());
  stream->id = dev->create_stream();
  return cudaError::cudaSuccess;
}

cudaError cudaStreamDestroy(cudaStream_t stream) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  if (Status s = dev->destroy_stream(sid); !s.ok()) {
    return detail::fail(cudaError::cudaErrorInvalidResourceHandle,
                        s.ToString());
  }
  return cudaError::cudaSuccess;
}

cudaError cudaStreamSynchronize(cudaStream_t stream, double* vtime) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  auto t = dev->sync_stream(sid);
  if (!t.ok()) {
    return detail::fail(cudaError::cudaErrorInvalidResourceHandle,
                        t.status().ToString());
  }
  if (vtime != nullptr) *vtime = t.value();
  return cudaError::cudaSuccess;
}

cudaError cudaEventCreate(cudaEvent_t* event) {
  if (detail::machine() == nullptr) {
    return detail::fail(cudaError::cudaErrorNoDevice, "no machine bound");
  }
  *event = cudaEvent_t{};
  return cudaError::cudaSuccess;
}

cudaError cudaEventRecord(cudaEvent_t* event, cudaStream_t stream) {
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  auto tail = dev->stream_last(sid);
  if (!tail.ok()) {
    return detail::fail(cudaError::cudaErrorInvalidResourceHandle,
                        tail.status().ToString());
  }
  event->device = static_cast<std::int32_t>(dev->index());
  event->op = tail.value();
  event->recorded = true;
  return cudaError::cudaSuccess;
}

cudaError cudaEventSynchronize(const cudaEvent_t& event, double* vtime) {
  if (!event.recorded) {
    return detail::fail(cudaError::cudaErrorNotReady, "event never recorded");
  }
  if (detail::machine() == nullptr) return cudaError::cudaErrorNoDevice;
  if (vtime != nullptr) *vtime = event.op.task.finish;
  return cudaError::cudaSuccess;
}

cudaError cudaEventElapsedTime(float* ms, const cudaEvent_t& start,
                               const cudaEvent_t& end) {
  double t0 = 0, t1 = 0;
  cudaError e = cudaEventSynchronize(start, &t0);
  if (e != cudaError::cudaSuccess) return e;
  e = cudaEventSynchronize(end, &t1);
  if (e != cudaError::cudaSuccess) return e;
  *ms = static_cast<float>((t1 - t0) * 1e3);
  return cudaError::cudaSuccess;
}

cudaError cudaStreamWaitEvent(cudaStream_t stream, const cudaEvent_t& event) {
  if (!event.recorded) {
    return detail::fail(cudaError::cudaErrorNotReady, "event never recorded");
  }
  gpusim::Device* dev = nullptr;
  gpusim::StreamId sid = 0;
  if (!detail::resolve_stream(stream, &dev, &sid)) {
    return cudaError::cudaErrorInvalidResourceHandle;
  }
  Status s = dev->wait_event(sid, event.op);
  if (!s.ok()) {
    return detail::fail(cudaError::cudaErrorInvalidValue, s.ToString());
  }
  return cudaError::cudaSuccess;
}

}  // namespace hs::cudax
