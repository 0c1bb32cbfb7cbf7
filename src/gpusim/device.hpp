// Simulated GPU devices and the Machine that hosts them.
//
// Execution model: operations are enqueued onto per-device in-order streams
// (CUDA cudaStream_t / OpenCL in-order command queue semantics). Each device
// has three serial hardware engines — compute, host-to-device copy, and
// device-to-host copy — mirroring the dual copy engines that make the
// paper's "2x memory spaces" copy/compute overlap possible. Kernel bodies
// are executed *functionally* on the host at enqueue time (results are
// real, bit-exact), while durations are charged onto a shared discrete-event
// Timeline; synchronization calls return virtual completion times.
//
// Thread safety: every entry point locks the owning Machine, so multicore
// runtimes (flow/taskx/spar) can drive devices from many worker threads, as
// the paper's combined versions do. An operation with a functional body (a
// kernel, a copy, a memset) holds the lock only around its bookkeeping, in
// three steps:
//
//   reserve (locked)   validate the arguments and the stream, consult the
//                      fault plan, and count the op in flight on its device;
//   execute (unlocked) run the body (every simulated thread of a kernel,
//                      the memmove, the fill) and compute its duration;
//   commit  (locked)   drop the in-flight count, then count the op and
//                      record it on the timeline.
//
// So workers on two devices, or on two streams of one device, compute
// concurrently, and concurrent ops reach the timeline in commit order.
// free() on a device with ops in flight lowers memory_used() at once but
// keeps the storage until the device's in-flight count reaches zero, so a
// running body never touches freed memory. A device lost while a body runs
// (mark_lost, or a fault plan's loss fired by another op) fails that op at
// commit with kUnavailable, counting and recording nothing; the device
// ladder then re-runs the op's idempotent pass elsewhere.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "des/timeline.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/fault_plan.hpp"
#include "gpusim/spec.hpp"

namespace hs::gpusim {

class Machine;

/// Per-thread kernel context, the simulator's threadIdx/blockIdx/blockDim/
/// gridDim equivalent (paper §III-D).
struct ThreadCtx {
  Dim3 thread_idx;
  Dim3 block_idx;
  Dim3 block_dim;
  Dim3 grid_dim;

  /// CUDA's blockIdx.x * blockDim.x + threadIdx.x (and OpenCL's
  /// get_global_id(0)).
  [[nodiscard]] std::uint64_t global_x() const {
    return static_cast<std::uint64_t>(block_idx.x) * block_dim.x + thread_idx.x;
  }
  [[nodiscard]] std::uint64_t global_y() const {
    return static_cast<std::uint64_t>(block_idx.y) * block_dim.y + thread_idx.y;
  }
  [[nodiscard]] std::uint64_t global_z() const {
    return static_cast<std::uint64_t>(block_idx.z) * block_dim.z + thread_idx.z;
  }
};

/// Identifier of an in-order stream on a device. Stream 0 always exists
/// (the default stream).
using StreamId = std::uint32_t;

/// Handle to an enqueued operation; doubles as an event (cudaEvent_t /
/// cl_event equivalents wrap it).
struct OpHandle {
  des::TaskId task;
  [[nodiscard]] bool valid() const { return task.valid(); }
};

/// Cumulative per-device counters, used by tests and the occupancy probe.
struct DeviceCounters {
  std::uint64_t kernels_launched = 0;
  std::uint64_t h2d_copies = 0;
  std::uint64_t d2h_copies = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t warps_executed = 0;
};

/// One simulated GPU. Create through Machine.
class Device {
 public:
  Device(Machine* machine, std::uint32_t index, DeviceSpec spec);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t index() const { return index_; }

  // --- device memory -----------------------------------------------------
  /// Allocates `bytes` of device memory (host-backed in the simulation);
  /// fails with OUT_OF_MEMORY when the device's capacity is exceeded —
  /// this is the error the paper hit with 10 MB OpenCL batches.
  Result<void*> malloc(std::uint64_t bytes);
  Status free(void* ptr);
  [[nodiscard]] std::uint64_t memory_used() const;
  [[nodiscard]] std::uint64_t memory_capacity() const {
    return spec_.memory_bytes;
  }
  /// True when [ptr, ptr+len) lies inside a single live device allocation.
  [[nodiscard]] bool owns_range(const void* ptr, std::uint64_t len) const;
  /// Operations whose bodies are running: reserved, not yet committed.
  [[nodiscard]] std::uint32_t ops_in_flight() const;

  // --- streams -----------------------------------------------------------
  StreamId default_stream() const { return 0; }
  /// A new stream, reusing a destroyed stream's id (with no work) first.
  StreamId create_stream();
  /// Releases `stream` for a later create_stream (cudaStreamDestroy), so a
  /// machine whose workers create and destroy streams for as long as it
  /// runs keeps a bounded stream table. Work already queued on it still
  /// counts toward sync_all, as cudaDeviceSynchronize waits for it.
  /// Destroying the default stream does nothing; an unknown or already
  /// destroyed stream is INVALID_ARGUMENT.
  Status destroy_stream(StreamId stream);
  [[nodiscard]] std::size_t stream_count() const;

  // --- operations --------------------------------------------------------
  Result<OpHandle> memcpy_h2d(void* dst, const void* src, std::uint64_t bytes,
                              StreamId stream, HostMem host_mem);
  Result<OpHandle> memcpy_d2h(void* dst, const void* src, std::uint64_t bytes,
                              StreamId stream, HostMem host_mem);
  Result<OpHandle> memcpy_d2d(void* dst, const void* src, std::uint64_t bytes,
                              StreamId stream);

  /// Fills device memory (cudaMemset): modeled at device-memory bandwidth
  /// on the compute engine, functionally an immediate fill.
  Result<OpHandle> memset(void* dst, int value, std::uint64_t bytes,
                          StreamId stream);

  /// Launches a kernel on `stream`. `body` is invoked once per simulated
  /// thread in linearized block order; it may return an integral/floating
  /// cost (e.g. loop iterations executed) or void (cost 1). Lane costs are
  /// folded into warp costs under the device's divergence model.
  template <typename F>
  Result<OpHandle> launch(const Dim3& grid, const Dim3& block,
                          const KernelAttributes& attrs, StreamId stream,
                          F&& body);

  /// Makes subsequent work on `stream` wait for `event` (possibly recorded
  /// on another stream or device) — cudaStreamWaitEvent semantics.
  Status wait_event(StreamId stream, OpHandle event);

  // --- synchronization ---------------------------------------------------
  /// Virtual completion time of everything enqueued on `stream` so far.
  Result<double> sync_stream(StreamId stream);
  /// Virtual completion time of all work on this device.
  double sync_all();
  /// Last op enqueued on a stream (invalid handle if none).
  Result<OpHandle> stream_last(StreamId stream);

  // --- model knobs (ablations) --------------------------------------------
  void set_divergence_model(DivergenceModel m) { divergence_ = m; }
  [[nodiscard]] DivergenceModel divergence_model() const { return divergence_; }
  /// Disabling overlap routes copies through the compute engine, removing
  /// the benefit of multiple memory spaces (DESIGN.md ablation §4.2).
  void set_copy_compute_overlap(bool enabled) { overlap_ = enabled; }

  [[nodiscard]] DeviceCounters counters() const;

  /// Total busy seconds of the compute engine (for utilization reports:
  /// divide by the machine makespan).
  [[nodiscard]] double compute_busy_seconds() const;

  // --- fault injection -----------------------------------------------------
  /// Attaches (replaces) a fault plan; subsequent fallible operations consult
  /// it. A sticky device-lost fault marks the device lost permanently.
  void set_fault_plan(FaultPlan plan);
  void clear_fault_plan();
  /// True once a sticky device-lost fault fired (or mark_lost was called).
  /// Lost devices fail every subsequent operation with kUnavailable, which
  /// is how the device ladder (sched/ladder.hpp) discovers the loss.
  [[nodiscard]] bool lost() const;
  /// Administratively loses the device (tests / chaos drills).
  void mark_lost();
  /// Snapshot of the attached plan's telemetry (empty if no plan).
  [[nodiscard]] FaultTelemetry fault_telemetry() const;

 private:
  friend class Machine;

  /// The operations with a functional body. Kernels, D2D copies and
  /// memsets run on the compute engine and fault at the launch site.
  enum class OpKind : std::uint8_t { kKernel, kH2D, kD2H, kD2D, kMemset };

  /// What an op's body hands to its commit: modeled seconds, and the
  /// warps a kernel executed or the bytes a copy moved.
  struct OpCost {
    double seconds = 0;
    std::uint64_t units = 0;
  };

  /// Runs one op in the three steps of "Thread safety" above: `check`
  /// validates its arguments under the lock, `body` executes it unlocked
  /// and returns its OpCost. The in-flight count drops even if `body`
  /// throws.
  template <typename Check, typename Body>
  Result<OpHandle> run_op(OpKind kind, StreamId stream, Check&& check,
                          Body&& body);
  /// Reserve step after the stream and `check`: consults the fault plan
  /// and counts the op in flight. Caller must hold the machine lock.
  Status reserve_locked(OpKind kind);
  /// Drops one in-flight count; the last one out releases deferred frees.
  /// Caller must hold the machine lock.
  void end_op_locked();
  /// Commit step after end_op_locked: kUnavailable if the device was lost
  /// while the body ran, else counts the op and records it on its engine,
  /// chained after the stream's previous op. Caller must hold the machine
  /// lock.
  Result<OpHandle> commit_locked(OpKind kind, StreamId stream, OpCost cost);

  Status validate_launch(const Dim3& grid, const Dim3& block,
                         const KernelAttributes& attrs) const;
  /// owns_range for callers that hold the machine lock.
  [[nodiscard]] bool owns_range_locked(const void* ptr,
                                       std::uint64_t len) const;
  /// Consults the fault plan (and lost flag) for one operation. Caller must
  /// hold the machine lock. Ordered after argument validation so genuine
  /// programming errors surface even under an aggressive plan.
  Status fault_check_locked(FaultSite site);
  Result<OpHandle> memcpy_impl(void* dst, const void* src, std::uint64_t bytes,
                               StreamId stream, CopyDir dir, HostMem host_mem);
  [[nodiscard]] des::EngineId engine_for(OpKind kind) const;

  Machine* machine_;
  std::uint32_t index_;
  DeviceSpec spec_;
  DivergenceModel divergence_ = DivergenceModel::kMaxLane;
  bool overlap_ = true;

  des::EngineId compute_engine_;
  des::EngineId h2d_engine_;
  des::EngineId d2h_engine_;

  // Allocation table keyed by start address.
  struct Allocation {
    std::unique_ptr<std::uint8_t[]> storage;
    std::uint64_t size = 0;
  };
  std::map<std::uintptr_t, Allocation> allocations_;
  std::uint64_t memory_used_ = 0;
  std::uint32_t in_flight_ = 0;  // ops between reserve and commit
  // Storage freed while ops were in flight, released when none are.
  std::vector<std::unique_ptr<std::uint8_t[]>> deferred_frees_;

  std::vector<des::TaskId> stream_last_;  // per-stream chain tail
  std::vector<StreamId> free_streams_;     // destroyed, reused first
  double retired_finish_ = 0;              // latest finish on destroyed streams
  DeviceCounters counters_;

  std::optional<FaultPlan> fault_plan_;
  bool lost_ = false;
};

/// The simulated machine: a shared Timeline, N devices, and optional host
/// engines for modeling CPU-side stage costs (used by perfmodel).
class Machine {
 public:
  explicit Machine(const std::vector<DeviceSpec>& specs);

  /// Cluster form: the machine registers its engines on an external
  /// timeline (names prefixed with `engine_prefix`, e.g. "n2.") and
  /// serializes every entry point on an external mutex, both owned by the
  /// caller and required to outlive this Machine. Multiple Machines built
  /// over the same timeline/mutex pair then share one clock: TaskIds are
  /// interchangeable across them, and cross-machine dependencies (fabric
  /// transfers) are ordinary timeline tasks. The single-argument
  /// constructor is the degenerate case (own timeline, own mutex, empty
  /// prefix) and its behavior is unchanged.
  Machine(const std::vector<DeviceSpec>& specs, des::Timeline* timeline,
          std::mutex* mutex, std::string engine_prefix);

  /// Machine with `n` identical devices.
  static std::unique_ptr<Machine> Create(int n, const DeviceSpec& spec) {
    return std::make_unique<Machine>(std::vector<DeviceSpec>(n, spec));
  }

  [[nodiscard]] int device_count() const {
    return static_cast<int>(devices_.size());
  }
  Device& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }

  /// Registers a serial host engine (one per modeled CPU worker thread).
  des::EngineId add_host_engine(std::string name);

  /// Charges `duration` of host work on `engine`, after `deps`.
  des::TaskId host_task(des::EngineId engine, double duration,
                        std::span<const des::TaskId> deps = {});

  [[nodiscard]] double makespan() const;

 private:
  friend class Device;

  /// The timeline/mutex in effect: the owned members by default, the
  /// caller's when constructed in cluster form.
  [[nodiscard]] des::Timeline& tl() const { return *timeline_ptr_; }
  [[nodiscard]] std::mutex& mu() const { return *mutex_ptr_; }

  mutable std::mutex mutex_;
  des::Timeline timeline_;
  std::mutex* mutex_ptr_ = &mutex_;
  des::Timeline* timeline_ptr_ = &timeline_;
  std::string engine_prefix_;
  std::vector<std::unique_ptr<Device>> devices_;
};

// ---- template implementation ----------------------------------------------

template <typename Check, typename Body>
Result<OpHandle> Device::run_op(OpKind kind, StreamId stream, Check&& check,
                                Body&& body) {
  std::unique_lock<std::mutex> lock(machine_->mu());
  if (stream >= stream_last_.size()) return InvalidArgument("unknown stream id");
  if (Status s = check(); !s.ok()) return s;
  if (Status s = reserve_locked(kind); !s.ok()) return s;
  OpCost cost;
  {
    // Ends the op on every exit from this scope, relocking if `body` threw.
    struct EndOp {
      Device& device;
      std::unique_lock<std::mutex>& lock;
      ~EndOp() {
        if (!lock.owns_lock()) lock.lock();
        device.end_op_locked();
      }
    } end_op{*this, lock};
    lock.unlock();
    cost = body();
    lock.lock();
  }
  return commit_locked(kind, stream, cost);
}

template <typename F>
Result<OpHandle> Device::launch(const Dim3& grid, const Dim3& block,
                                const KernelAttributes& attrs, StreamId stream,
                                F&& body) {
  return run_op(
      OpKind::kKernel, stream,
      [&] { return validate_launch(grid, block, attrs); },
      [&] {
        WarpCostAccumulator acc(spec_.warp_size, divergence_);
        ThreadCtx ctx;
        ctx.grid_dim = grid;
        ctx.block_dim = block;
        for (std::uint32_t bz = 0; bz < grid.z; ++bz) {
          for (std::uint32_t by = 0; by < grid.y; ++by) {
            for (std::uint32_t bx = 0; bx < grid.x; ++bx) {
              ctx.block_idx = Dim3{bx, by, bz};
              // Linearized thread order within a block: x fastest, then y,
              // then z (matches CUDA warp lane assignment).
              for (std::uint32_t tz = 0; tz < block.z; ++tz) {
                for (std::uint32_t ty = 0; ty < block.y; ++ty) {
                  for (std::uint32_t tx = 0; tx < block.x; ++tx) {
                    ctx.thread_idx = Dim3{tx, ty, tz};
                    if constexpr (std::is_void_v<decltype(body(ctx))>) {
                      body(ctx);
                      acc.add_lane(1.0);
                    } else {
                      acc.add_lane(static_cast<double>(body(ctx)));
                    }
                  }
                }
              }
              acc.end_block();
            }
          }
        }
        std::vector<double> warp_costs = acc.take_warp_costs();
        return OpCost{
            kernel_duration_seconds(spec_, attrs, block, warp_costs),
            warp_costs.size()};
      });
}

}  // namespace hs::gpusim
