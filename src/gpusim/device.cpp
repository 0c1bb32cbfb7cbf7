#include "gpusim/device.hpp"

#include <cassert>
#include <algorithm>
#include <cstring>

namespace hs::gpusim {

Device::Device(Machine* machine, std::uint32_t index, DeviceSpec spec)
    : machine_(machine), index_(index), spec_(std::move(spec)) {
  std::string prefix =
      machine_->engine_prefix_ + "gpu" + std::to_string(index_) + ".";
  compute_engine_ = machine_->tl().add_engine(prefix + "compute");
  h2d_engine_ = machine_->tl().add_engine(prefix + "h2d");
  d2h_engine_ = machine_->tl().add_engine(prefix + "d2h");
  stream_last_.push_back(des::TaskId{});  // stream 0, the default stream
}

Result<void*> Device::malloc(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (bytes == 0) return InvalidArgument("zero-byte device allocation");
  if (Status s = fault_check_locked(FaultSite::kAlloc); !s.ok()) return s;
  if (memory_used_ + bytes > spec_.memory_bytes) {
    return OutOfMemory("device " + std::to_string(index_) + " out of memory: " +
                       std::to_string(memory_used_) + " + " +
                       std::to_string(bytes) + " > " +
                       std::to_string(spec_.memory_bytes));
  }
  Allocation alloc;
  alloc.storage = std::make_unique<std::uint8_t[]>(bytes);
  alloc.size = bytes;
  void* ptr = alloc.storage.get();
  allocations_.emplace(reinterpret_cast<std::uintptr_t>(ptr), std::move(alloc));
  memory_used_ += bytes;
  return ptr;
}

Status Device::free(void* ptr) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  auto it = allocations_.find(reinterpret_cast<std::uintptr_t>(ptr));
  if (it == allocations_.end()) {
    return InvalidArgument("free of pointer not allocated on this device");
  }
  memory_used_ -= it->second.size;
  allocations_.erase(it);
  return OkStatus();
}

std::uint64_t Device::memory_used() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return memory_used_;
}

bool Device::owns_range(const void* ptr, std::uint64_t len) const {
  // Caller may or may not hold the machine lock; this private-ish helper is
  // also part of the public API for tests, so take the lock via a
  // const_cast-free path: the map is only mutated under the lock, and this
  // method is called from locked contexts internally. For external callers
  // we lock here; recursive use is avoided internally by calling the
  // unlocked lookup directly.
  auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  auto it = allocations_.upper_bound(addr);
  if (it == allocations_.begin()) return false;
  --it;
  return addr >= it->first && addr + len <= it->first + it->second.size;
}

StreamId Device::create_stream() {
  std::lock_guard<std::mutex> lock(machine_->mu());
  stream_last_.push_back(des::TaskId{});
  return static_cast<StreamId>(stream_last_.size() - 1);
}

std::size_t Device::stream_count() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return stream_last_.size();
}

des::EngineId Device::engine_for(EngineKind kind) const {
  if (!overlap_) return compute_engine_;  // ablation: serialize everything
  switch (kind) {
    case EngineKind::kCompute: return compute_engine_;
    case EngineKind::kH2D: return h2d_engine_;
    case EngineKind::kD2H: return d2h_engine_;
  }
  return compute_engine_;
}

OpHandle Device::record_locked(StreamId stream, EngineKind kind,
                               double duration) {
  des::TaskId prev = stream_last_[stream];
  const char* label = kind == EngineKind::kCompute ? "kernel"
                      : kind == EngineKind::kH2D   ? "h2d"
                                                   : "d2h";
  des::TaskId deps[1] = {prev};
  des::TaskId task = machine_->tl().submit(
      engine_for(kind), duration,
      std::span<const des::TaskId>(deps, prev.valid() ? 1 : 0), label);
  stream_last_[stream] = task;
  return OpHandle{task};
}

Result<OpHandle> Device::memcpy_impl(void* dst, const void* src,
                                     std::uint64_t bytes, StreamId stream,
                                     CopyDir dir, HostMem host_mem) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  if (bytes == 0) return InvalidArgument("zero-byte memcpy");

  switch (dir) {
    case CopyDir::kHostToDevice:
      if (!owns_range(dst, bytes)) {
        return OutOfRange("h2d destination outside device allocations");
      }
      if (owns_range(src, bytes)) {
        return InvalidArgument("h2d source is device memory");
      }
      counters_.h2d_copies += 1;
      counters_.h2d_bytes += bytes;
      break;
    case CopyDir::kDeviceToHost:
      if (!owns_range(src, bytes)) {
        return OutOfRange("d2h source outside device allocations");
      }
      if (owns_range(dst, bytes)) {
        return InvalidArgument("d2h destination is device memory");
      }
      counters_.d2h_copies += 1;
      counters_.d2h_bytes += bytes;
      break;
    case CopyDir::kDeviceToDevice:
      if (!owns_range(src, bytes) || !owns_range(dst, bytes)) {
        return OutOfRange("d2d range outside device allocations");
      }
      break;
  }

  const FaultSite site = dir == CopyDir::kHostToDevice ? FaultSite::kH2D
                         : dir == CopyDir::kDeviceToHost ? FaultSite::kD2H
                                                         : FaultSite::kLaunch;
  if (Status s = fault_check_locked(site); !s.ok()) return s;

  // Functional execution happens immediately; virtual timing is modeled.
  std::memmove(dst, src, bytes);

  double duration = copy_duration_seconds(spec_, dir, host_mem, bytes);
  EngineKind kind = dir == CopyDir::kHostToDevice ? EngineKind::kH2D
                    : dir == CopyDir::kDeviceToHost ? EngineKind::kD2H
                                                    : EngineKind::kCompute;
  return record_locked(stream, kind, duration);
}

Result<OpHandle> Device::memcpy_h2d(void* dst, const void* src,
                                    std::uint64_t bytes, StreamId stream,
                                    HostMem host_mem) {
  return memcpy_impl(dst, src, bytes, stream, CopyDir::kHostToDevice, host_mem);
}

Result<OpHandle> Device::memcpy_d2h(void* dst, const void* src,
                                    std::uint64_t bytes, StreamId stream,
                                    HostMem host_mem) {
  return memcpy_impl(dst, src, bytes, stream, CopyDir::kDeviceToHost, host_mem);
}

Result<OpHandle> Device::memcpy_d2d(void* dst, const void* src,
                                    std::uint64_t bytes, StreamId stream) {
  return memcpy_impl(dst, src, bytes, stream, CopyDir::kDeviceToDevice,
                     HostMem::kPinned);
}

Result<OpHandle> Device::memset(void* dst, int value, std::uint64_t bytes,
                                StreamId stream) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  if (bytes == 0) return InvalidArgument("zero-byte memset");
  if (!owns_range(dst, bytes)) {
    return OutOfRange("memset range outside device allocations");
  }
  if (Status s = fault_check_locked(FaultSite::kLaunch); !s.ok()) return s;
  std::memset(dst, value, bytes);
  // On-device fill at ~memory bandwidth (same model as d2d copies).
  double duration = copy_duration_seconds(spec_, CopyDir::kDeviceToDevice,
                                          HostMem::kPinned, bytes);
  return record_locked(stream, EngineKind::kCompute, duration);
}

Status Device::validate_launch(const Dim3& grid, const Dim3& block,
                               const KernelAttributes& attrs) const {
  if (grid.count() == 0 || block.count() == 0) {
    return InvalidArgument("empty grid or block");
  }
  if (block.count() > 1024) {
    return InvalidArgument("block exceeds 1024 threads");
  }
  if (occupancy_warps_per_sm(spec_, attrs, block) == 0) {
    return InvalidArgument(
        "kernel resource demand (registers/shared memory) exceeds SM capacity");
  }
  return OkStatus();
}

Status Device::wait_event(StreamId stream, OpHandle event) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  if (!event.valid()) return InvalidArgument("wait on unrecorded event");
  des::TaskId deps[2] = {stream_last_[stream], event.task};
  std::size_t n = stream_last_[stream].valid() ? 2 : 1;
  stream_last_[stream] =
      machine_->tl().join(std::span<const des::TaskId>(
          n == 2 ? deps : deps + 1, n));
  return OkStatus();
}

Result<double> Device::sync_stream(StreamId stream) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  des::TaskId last = stream_last_[stream];
  return last.valid() ? machine_->tl().finish_time(last) : 0.0;
}

double Device::sync_all() {
  std::lock_guard<std::mutex> lock(machine_->mu());
  double t = 0;
  for (des::TaskId last : stream_last_) {
    if (last.valid()) t = std::max(t, machine_->tl().finish_time(last));
  }
  return t;
}

Result<OpHandle> Device::stream_last(StreamId stream) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  return OpHandle{stream_last_[stream]};
}

double Device::compute_busy_seconds() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return machine_->tl().engine_stats(compute_engine_).busy;
}

DeviceCounters Device::counters() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return counters_;
}

// ---- fault injection -------------------------------------------------------

void Device::set_fault_plan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(machine_->mu());
  fault_plan_ = std::move(plan);
  lost_ = fault_plan_->device_lost();
}

void Device::clear_fault_plan() {
  std::lock_guard<std::mutex> lock(machine_->mu());
  fault_plan_.reset();
  lost_ = false;
}

bool Device::lost() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return lost_;
}

void Device::mark_lost() {
  std::lock_guard<std::mutex> lock(machine_->mu());
  lost_ = true;
}

FaultTelemetry Device::fault_telemetry() const {
  std::lock_guard<std::mutex> lock(machine_->mu());
  return fault_plan_ ? fault_plan_->telemetry() : FaultTelemetry{};
}

Status Device::fault_check_locked(FaultSite site) {
  if (lost_) {
    return Unavailable("device " + std::to_string(index_) + " lost");
  }
  if (!fault_plan_) return OkStatus();
  Status s = fault_plan_->on_op(site);
  if (!s.ok() && s.code() == ErrorCode::kUnavailable) lost_ = true;
  return s;
}

// ---- Machine ---------------------------------------------------------------

Machine::Machine(const std::vector<DeviceSpec>& specs) {
  devices_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    devices_.push_back(std::make_unique<Device>(
        this, static_cast<std::uint32_t>(i), specs[i]));
  }
}

Machine::Machine(const std::vector<DeviceSpec>& specs, des::Timeline* timeline,
                 std::mutex* mutex, std::string engine_prefix)
    : mutex_ptr_(mutex), timeline_ptr_(timeline),
      engine_prefix_(std::move(engine_prefix)) {
  assert(timeline != nullptr && mutex != nullptr);
  devices_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    devices_.push_back(std::make_unique<Device>(
        this, static_cast<std::uint32_t>(i), specs[i]));
  }
}

des::EngineId Machine::add_host_engine(std::string name) {
  std::lock_guard<std::mutex> lock(mu());
  return tl().add_engine(engine_prefix_ + std::move(name));
}

des::TaskId Machine::host_task(des::EngineId engine, double duration,
                               std::span<const des::TaskId> deps) {
  std::lock_guard<std::mutex> lock(mu());
  return tl().submit(engine, duration, deps);
}

double Machine::makespan() const {
  std::lock_guard<std::mutex> lock(mu());
  return tl().makespan();
}

double Machine::finish_time(des::TaskId id) const {
  std::lock_guard<std::mutex> lock(mu());
  return tl().finish_time(id);
}

}  // namespace hs::gpusim
