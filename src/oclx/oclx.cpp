#include "oclx/oclx.hpp"

namespace hs::oclx {

std::string_view status_name(ClStatus s) {
  switch (s) {
    case ClStatus::kSuccess: return "CL_SUCCESS";
    case ClStatus::kDeviceNotFound: return "CL_DEVICE_NOT_FOUND";
    case ClStatus::kInvalidValue: return "CL_INVALID_VALUE";
    case ClStatus::kInvalidContext: return "CL_INVALID_CONTEXT";
    case ClStatus::kInvalidCommandQueue: return "CL_INVALID_COMMAND_QUEUE";
    case ClStatus::kInvalidKernel: return "CL_INVALID_KERNEL";
    case ClStatus::kInvalidOperation: return "CL_INVALID_OPERATION";
    case ClStatus::kOutOfResources: return "CL_OUT_OF_RESOURCES";
    case ClStatus::kInvalidEventWaitList: return "CL_INVALID_EVENT_WAIT_LIST";
    case ClStatus::kDeviceNotAvailable: return "CL_DEVICE_NOT_AVAILABLE";
  }
  return "CL_UNKNOWN";
}

ClStatus cl_status_from(const Status& s) {
  switch (s.code()) {
    case ErrorCode::kOk: return ClStatus::kSuccess;
    case ErrorCode::kOutOfMemory: return ClStatus::kOutOfResources;
    case ErrorCode::kUnavailable: return ClStatus::kDeviceNotAvailable;
    case ErrorCode::kInternal: return ClStatus::kOutOfResources;
    default: return ClStatus::kInvalidValue;
  }
}

ErrorCode error_code_of(ClStatus s) {
  switch (s) {
    case ClStatus::kSuccess: return ErrorCode::kOk;
    case ClStatus::kOutOfResources: return ErrorCode::kOutOfMemory;
    case ClStatus::kDeviceNotAvailable: return ErrorCode::kUnavailable;
    default: return ErrorCode::kInvalidArgument;
  }
}

// ---- Platform / DeviceId -----------------------------------------------------------

std::vector<Platform> Platform::get(gpusim::Machine* machine) {
  if (machine == nullptr || machine->device_count() == 0) return {};
  return {Platform(machine)};
}

std::vector<DeviceId> Platform::devices() const {
  std::vector<DeviceId> out;
  for (int i = 0; i < machine_->device_count(); ++i) {
    out.push_back(DeviceId(machine_, i));
  }
  return out;
}

DeviceId::DeviceId(gpusim::Machine* machine, int index)
    : machine_(machine), device_(&machine->device(index)) {}

std::string DeviceId::name() const { return device_->spec().name; }
std::uint64_t DeviceId::global_mem_size() const {
  return device_->spec().memory_bytes;
}
std::uint32_t DeviceId::max_compute_units() const {
  return device_->spec().sm_count;
}

// ---- Context ------------------------------------------------------------------------

Result<Context> Context::create(const std::vector<DeviceId>& devices) {
  if (devices.empty()) {
    return InvalidArgument("context requires at least one device");
  }
  for (const DeviceId& d : devices) {
    if (d.machine_ != devices.front().machine_) {
      return InvalidArgument("context devices span different machines");
    }
  }
  return Context(devices);
}

// ---- Event --------------------------------------------------------------------------

Result<double> Event::wait() const {
  if (!valid()) return FailedPrecondition("wait on null event");
  return op_.task.finish;
}

Result<double> Event::wait_for_events(const std::vector<Event>& events) {
  if (events.empty()) {
    return InvalidArgument("clWaitForEvents with empty wait list");
  }
  double t = 0;
  for (const Event& e : events) {
    auto r = e.wait();
    if (!r.ok()) return r.status();
    t = std::max(t, r.value());
  }
  return t;
}

// ---- Buffer -------------------------------------------------------------------------

Result<Buffer> Buffer::create(const Context& context, const DeviceId& device,
                              std::size_t bytes) {
  bool in_context = false;
  for (const DeviceId& d : context.devices()) {
    if (d.sim_device() == device.sim_device()) in_context = true;
  }
  if (!in_context) {
    return InvalidArgument("buffer device is not part of the context");
  }
  auto p = device.sim_device()->malloc(bytes);
  if (!p.ok()) return p.status();
  return Buffer(device.sim_device(), p.value(), bytes);
}

Buffer::Buffer(Buffer&& other) noexcept
    : device_(other.device_), ptr_(other.ptr_), bytes_(other.bytes_) {
  other.device_ = nullptr;
  other.ptr_ = nullptr;
  other.bytes_ = 0;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    if (device_ != nullptr && ptr_ != nullptr) {
      (void)device_->free(ptr_);
    }
    device_ = other.device_;
    ptr_ = other.ptr_;
    bytes_ = other.bytes_;
    other.device_ = nullptr;
    other.ptr_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

Buffer::~Buffer() {
  if (device_ != nullptr && ptr_ != nullptr) {
    (void)device_->free(ptr_);
  }
}

// ---- CommandQueue --------------------------------------------------------------------

Result<CommandQueue> CommandQueue::create(const Context& context,
                                          const DeviceId& device) {
  bool in_context = false;
  for (const DeviceId& d : context.devices()) {
    if (d.sim_device() == device.sim_device()) in_context = true;
  }
  if (!in_context) {
    return InvalidArgument("queue device is not part of the context");
  }
  gpusim::Device* dev = device.sim_device();
  return CommandQueue(device.machine_, dev, dev->create_stream());
}

ClStatus CommandQueue::enqueue_write(Buffer& dst, std::size_t offset,
                                     const void* src, std::size_t bytes,
                                     bool blocking, Event* event) {
  if (offset + bytes > dst.size()) {
    last_error_ = "write beyond buffer extent";
    return ClStatus::kInvalidValue;
  }
  if (dst.device() != device_) {
    last_error_ = "buffer resides on a different device than the queue";
    return ClStatus::kInvalidValue;
  }
  auto r = device_->memcpy_h2d(static_cast<std::uint8_t*>(dst.data()) + offset,
                               src, bytes, stream_, gpusim::HostMem::kPinned);
  if (!r.ok()) {
    last_error_ = r.status().ToString();
    return cl_status_from(r.status());
  }
  if (event != nullptr) *event = Event(machine_, r.value());
  if (blocking) (void)device_->sync_stream(stream_);
  return ClStatus::kSuccess;
}

ClStatus CommandQueue::enqueue_read(const Buffer& src, std::size_t offset,
                                    void* dst, std::size_t bytes,
                                    bool blocking, Event* event) {
  if (offset + bytes > src.size()) {
    last_error_ = "read beyond buffer extent";
    return ClStatus::kInvalidValue;
  }
  if (src.device() != device_) {
    last_error_ = "buffer resides on a different device than the queue";
    return ClStatus::kInvalidValue;
  }
  auto r = device_->memcpy_d2h(
      dst, static_cast<const std::uint8_t*>(src.data()) + offset, bytes,
      stream_, gpusim::HostMem::kPinned);
  if (!r.ok()) {
    last_error_ = r.status().ToString();
    return cl_status_from(r.status());
  }
  if (event != nullptr) *event = Event(machine_, r.value());
  if (blocking) (void)device_->sync_stream(stream_);
  return ClStatus::kSuccess;
}

ClStatus CommandQueue::enqueue_ndrange(Kernel& kernel, const Dim3& global,
                                       const Dim3& local, Event* event) {
  if (!kernel.impl_) {
    last_error_ = "null kernel";
    return ClStatus::kInvalidKernel;
  }
  // cl_kernel thread-affinity: the first enqueue claims the kernel for the
  // calling thread; any other thread must acquire() it explicitly first.
  std::thread::id none{};
  std::thread::id self = std::this_thread::get_id();
  std::thread::id owner = kernel.impl_->owner.load(std::memory_order_acquire);
  if (owner == none) {
    kernel.impl_->owner.compare_exchange_strong(none, self);
    owner = kernel.impl_->owner.load(std::memory_order_acquire);
  }
  if (owner != self) {
    last_error_ =
        "cl_kernel objects are not thread-safe: kernel '" +
        kernel.impl_->name +
        "' is owned by another thread (allocate one kernel per thread or "
        "stream item, as the paper does, or call acquire())";
    return ClStatus::kInvalidOperation;
  }
  if (local.count() == 0 || global.count() == 0) {
    last_error_ = "empty global or local size";
    return ClStatus::kInvalidValue;
  }
  auto r = kernel.impl_->launch(*device_, global, local, stream_);
  if (!r.ok()) {
    last_error_ = r.status().ToString();
    return cl_status_from(r.status());
  }
  if (event != nullptr) *event = Event(machine_, r.value());
  return ClStatus::kSuccess;
}

Result<double> CommandQueue::finish() { return device_->sync_stream(stream_); }

}  // namespace hs::oclx
