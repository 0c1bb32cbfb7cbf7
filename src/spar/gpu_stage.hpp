// SPar GPU offload — the paper's stated future work (§VI): "we intend to
// automatically generate parallel OpenCL and CUDA code through the SPar
// compilation toolchain."
//
// gpu_stage() generates the GPU worker the paper hand-writes in §IV for
// every runtime/API pair, once: a replicated stage whose workers each own a
// thread-local device binding, a stream (CUDA) or command queue (OpenCL),
// grow-only device scratch and host staging, and run every item through the
// device ladder (sched/ladder.hpp) — pick a device, retry transient faults,
// migrate off a lost device, and finally run the app's bit-exact CPU
// fallback. The binding is released on migration, on a voluntary rebind and
// at the end of the stream. An app supplies only
//
//   pass:     Status(Binding& device, Item& item) — the idempotent device
//             work for one item, including copying results into the item;
//   fallback: void(Item& item) — the same result computed on the CPU;
//   finish:   void(Item& item) — optional host work on what the pass left in
//             the item, run once the ladder has let go of the device (its
//             load and breaker accounting see device work only).
//
// Items with nothing to offload (item.empty(), where the item type has it)
// pass through without touching the ladder.
//
// gpu_map_stage() is the map-shaped front end: the programmer writes only a
// per-element function and the lowering supplies the pass and the fallback.
//
//   spar::ToStream region("pipeline");
//   region.source<std::vector<float>>(...);
//   spar::gpu_map_stage<float>(region,
//       {.machine = &machine, .backend = spar::GpuBackend::kCuda,
//        .replicas = 4},
//       [](float x) { return x * 2.0f + 1.0f; });   // runs on the GPU
//   region.last_stage<std::vector<float>>(...);
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/retry.hpp"
#include "cudax/cudax.hpp"
#include "cudax/pinned_pool.hpp"
#include "oclx/oclx.hpp"
#include "sched/ladder.hpp"
#include "spar/spar.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::spar {

/// Where a generated GPU stage runs and how it recovers.
struct GpuStage {
  gpusim::Machine* machine = nullptr;
  int replicas = 1;
  sched::LadderConfig ladder;  ///< shared by every replica
};

/// CUDA binding of a generated worker. Besides the binding itself it runs
/// a pass's device calls on the bound stream, each inside a trace span
/// whose name also labels the call's error. An untraced binding records no
/// spans: serve's jobs run thousands per second per worker, which would
/// wrap the per-thread span rings.
class CudaDevice {
 public:
  explicit CudaDevice(bool traced = true) : traced_(traced) {}
  ~CudaDevice();
  CudaDevice(const CudaDevice&) = delete;
  CudaDevice& operator=(const CudaDevice&) = delete;

  /// Makes `device` current on this thread, on this binding's stream there
  /// (created on the first bind to `device`, reused on every later one).
  Status bind(int device);
  /// Frees the scratch and returns the pinned staging. The streams stay
  /// until destruction: a worker that rebinds on every steal would
  /// otherwise add a stream to the device each time.
  void release();
  /// Re-applies the binding to the calling thread (cudaSetDevice is
  /// thread-local).
  void enter() const { (void)cudax::cudaSetDevice(device_); }
  /// The bound device, or -1.
  [[nodiscard]] int device() const { return device_; }

  /// Device buffer `slot` of at least `bytes`, on the bound device. Grows
  /// geometrically and is kept across items.
  Result<void*> scratch(std::size_t slot, std::size_t bytes);
  /// Host staging of at least `bytes`: a pinned slab from the shared pool
  /// (fast simulated transfers), pageable memory when none is available.
  std::uint8_t* staging(std::size_t bytes);

  /// scratch(slot, bytes) filled from `src` by an asynchronous H2D copy.
  Result<void*> upload(std::size_t slot, const void* src, std::size_t bytes,
                       const char* span);
  /// Asynchronous D2H copy.
  Status download(void* dst, const void* src, std::size_t bytes,
                  const char* span);
  /// Runs `lane(i)` for every i in [0, lanes) as a kernel of `block`-thread
  /// blocks. A lane returns its cost (void: 1); the grid's tail threads
  /// cost 1.
  template <typename Lane>
  Status launch(std::uint64_t lanes, std::uint32_t block, const char* span,
                Lane lane) {
    return traced(span, [&] {
      return cudax::launch_kernel(
          cudax::Dim3{static_cast<std::uint32_t>((lanes + block - 1) / block),
                      1, 1},
          cudax::Dim3{block, 1, 1}, stream_,
          [lane, lanes](const cudax::ThreadCtx& ctx) -> std::uint64_t {
            const std::uint64_t i = ctx.global_x();
            if (i >= lanes) return 1;
            if constexpr (std::is_void_v<decltype(lane(i))>) {
              lane(i);
              return 1;
            } else {
              return lane(i);
            }
          });
    });
  }
  /// Waits for the bound stream.
  Status sync(const char* span);

 private:
  template <typename Call>
  Status traced(const char* span, Call&& call) const {
    telemetry::ScopedSpan scope(traced_ ? telemetry::tracer() : nullptr, span);
    return cudax::cuda_status(call(), span);
  }

  struct Slot {
    void* ptr = nullptr;
    std::size_t size = 0;
  };
  bool traced_;
  int device_ = -1;
  cudax::cudaStream_t stream_{};
  std::vector<cudax::cudaStream_t> streams_;  ///< per device; {} = none yet
  std::vector<Slot> scratch_;
  cudax::PinnedPool::Handle pinned_;
  std::vector<std::uint8_t> pageable_;
};

/// OpenCL binding of a generated worker: a context over the machine's
/// devices, an in-order queue and one grow-only buffer on the bound device.
/// Kernel objects are not thread-safe (§IV-A), so passes create theirs on
/// the worker thread.
class ClDevice {
 public:
  explicit ClDevice(gpusim::Machine* machine) : machine_(machine) {}

  Status bind(int device);
  void release();
  void enter() const {}

  [[nodiscard]] oclx::CommandQueue& queue() { return *queue_; }
  /// Device buffer of at least `bytes` on the bound device; grows
  /// geometrically and is kept across items.
  Result<oclx::Buffer*> buffer(std::size_t bytes);
  /// Host staging of at least `bytes`.
  std::uint8_t* staging(std::size_t bytes);

 private:
  gpusim::Machine* machine_;
  int device_ = -1;
  std::optional<oclx::Context> context_;
  std::optional<oclx::CommandQueue> queue_;
  std::optional<oclx::Buffer> buffer_;
  std::vector<std::uint8_t> host_;
};

namespace detail {

template <typename Item>
bool nothing_to_offload(const Item& item) {
  if constexpr (requires { item.empty(); }) {
    return item.empty();
  } else {
    return false;
  }
}

/// A ClDevice opens its context on the stage's machine; a CudaDevice uses
/// the machine bound to cudax.
template <typename Binding>
Binding make_binding(gpusim::Machine* machine) {
  if constexpr (std::is_same_v<Binding, ClDevice>) {
    return Binding(machine);
  } else {
    return Binding();
  }
}

/// Default finish: the pass already left the item complete.
struct NoFinish {
  template <typename Item>
  void operator()(Item& /*item*/) const {}
};

/// The generated worker node.
template <typename Item, typename Binding, typename Pass, typename Fallback,
          typename Finish>
class GpuWorker final : public flow::Node {
 public:
  GpuWorker(const GpuStage& stage, Pass pass, Fallback fallback,
            Finish finish)
      : config_(stage.ladder),
        devices_(stage.machine != nullptr ? stage.machine->device_count()
                                          : 0),
        pass_(std::move(pass)),
        fallback_(std::move(fallback)),
        finish_(std::move(finish)),
        device_(make_binding<Binding>(stage.machine)) {}

  void on_init(int replica_id) override {
    ladder_.emplace(config_, devices_, replica_id);
  }

  flow::SvcResult svc(flow::Item in) override {
    Item item = in.take<Item>();
    if (!nothing_to_offload(item)) {
      Status s = ladder_->run(device_, [&] {
        device_.enter();
        return pass_(device_, item);
      });
      if (s.ok()) {
        finish_(item);
      } else {
        fallback_(item);
      }
    }
    return flow::SvcResult::Out(flow::Item::of<Item>(std::move(item)));
  }

  void on_end() override { device_.release(); }

 private:
  sched::LadderConfig config_;
  int devices_;
  Pass pass_;
  Fallback fallback_;
  Finish finish_;
  Binding device_;
  std::optional<sched::DeviceLadder> ladder_;
};

}  // namespace detail

/// Appends a generated GPU stage to `region`: `stage.replicas` workers run
/// `pass` on a device through the ladder, then `finish`, or `fallback` when
/// no device could run the pass.
template <typename Item, typename Binding = CudaDevice, typename Pass,
          typename Fallback, typename Finish = detail::NoFinish>
ToStream& gpu_stage(ToStream& region, const GpuStage& stage, Pass pass,
                    Fallback fallback, Finish finish = {}) {
  return region.stage_nodes(
      Replicate(stage.replicas), [stage, pass, fallback, finish] {
        return std::make_unique<
            detail::GpuWorker<Item, Binding, Pass, Fallback, Finish>>(
            stage, pass, fallback, finish);
      });
}

enum class GpuBackend { kCuda, kOpenCl };

/// Offload configuration for an auto-generated GPU map stage.
struct GpuOffload {
  gpusim::Machine* machine = nullptr;
  GpuBackend backend = GpuBackend::kCuda;
  int replicas = 1;
  std::uint32_t block_size = 256;  ///< threads per block / work-group
};

/// Appends an auto-generated GPU map stage to `region`: each stream item
/// (a std::vector<T>) is offloaded to a simulated GPU and transformed
/// element-wise by `fn` (one element per GPU thread), or on the host when
/// no device can. `fn` must be a copyable, stateless callable T -> T.
/// Replicas start round-robin across the machine's devices. The caller must
/// have bound `offload.machine` to cudax when using the CUDA backend.
template <typename T, typename Fn>
ToStream& gpu_map_stage(ToStream& region, const GpuOffload& offload, Fn fn) {
  static_assert(std::is_trivially_copyable_v<T>,
                "GPU-offloaded element types must be trivially copyable");
  GpuStage stage;
  stage.machine = offload.machine;
  stage.replicas = offload.replicas;
  stage.ladder.label = "spar.gpu_map";
  stage.ladder.setup_label = "spar.gpu_map.setup";
  const std::uint32_t ls = offload.block_size;
  auto host_map = [fn](std::vector<T>& batch) {
    for (T& x : batch) x = fn(x);
  };
  // Both passes stage the results on the host and copy them into the batch
  // only once the device work has completed, so a retried pass never reads
  // its own output.
  if (offload.backend == GpuBackend::kCuda) {
    auto pass = [fn, ls](CudaDevice& dev, std::vector<T>& batch) -> Status {
      const std::size_t bytes = batch.size() * sizeof(T);
      auto in = dev.upload(0, batch.data(), bytes, "spar.gpu_map.h2d");
      if (!in.ok()) return in.status();
      auto out = dev.scratch(1, bytes);
      if (!out.ok()) return out.status();
      const T* src = static_cast<const T*>(in.value());
      T* dst = static_cast<T*>(out.value());
      HS_RETURN_IF_ERROR(
          dev.launch(batch.size(), ls, "spar.gpu_map.kernel",
                     [src, dst, fn](std::uint64_t i) { dst[i] = fn(src[i]); }));
      std::uint8_t* host = dev.staging(bytes);
      HS_RETURN_IF_ERROR(dev.download(host, dst, bytes, "spar.gpu_map.d2h"));
      HS_RETURN_IF_ERROR(dev.sync("spar.gpu_map.sync"));
      std::memcpy(batch.data(), host, bytes);
      return OkStatus();
    };
    return gpu_stage<std::vector<T>>(region, stage, pass, host_map);
  }
  auto pass = [fn, ls](ClDevice& dev, std::vector<T>& batch) -> Status {
    const std::size_t n = batch.size();
    const std::size_t bytes = n * sizeof(T);
    auto buf = dev.buffer(bytes);
    if (!buf.ok()) return buf.status();
    auto cl = [](oclx::ClStatus s, const char* what) {
      return s == oclx::ClStatus::kSuccess
                 ? OkStatus()
                 : Status(oclx::error_code_of(s),
                          std::string(what) + ": " +
                              std::string(oclx::status_name(s)));
    };
    HS_RETURN_IF_ERROR(cl(dev.queue().enqueue_write(*buf.value(), 0,
                                                    batch.data(), bytes,
                                                    /*blocking=*/false,
                                                    nullptr),
                          "gpu_map_stage: write"));
    T* data = static_cast<T*>(buf.value()->data());
    oclx::Kernel kernel = oclx::Kernel::create(
        "spar_gpu_map", [data, n, fn](const oclx::ThreadCtx& ctx) {
          const std::uint64_t i = ctx.global_x();
          if (i < n) data[i] = fn(data[i]);
        });
    const auto global = static_cast<std::uint32_t>((n + ls - 1) / ls * ls);
    HS_RETURN_IF_ERROR(cl(dev.queue().enqueue_ndrange(
                              kernel, oclx::Dim3{global, 1, 1},
                              oclx::Dim3{ls, 1, 1}, nullptr),
                          "gpu_map_stage: ndrange"));
    std::uint8_t* host = dev.staging(bytes);
    oclx::Event done;
    HS_RETURN_IF_ERROR(cl(dev.queue().enqueue_read(*buf.value(), 0, host,
                                                   bytes, /*blocking=*/false,
                                                   &done),
                          "gpu_map_stage: read"));
    HS_RETURN_IF_ERROR(oclx::Event::wait_for_events({done}).status());
    std::memcpy(batch.data(), host, bytes);
    return OkStatus();
  };
  return gpu_stage<std::vector<T>, ClDevice>(region, stage, pass, host_map);
}

}  // namespace hs::spar
