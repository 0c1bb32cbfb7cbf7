#include "mandel/modeled.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

namespace hs::mandel {

namespace {

using cluster::ClusterReplay;
using cluster::ClusterRunOptions;
using gpusim::Device;
using gpusim::Dim3;
using gpusim::OpHandle;
using gpusim::ThreadCtx;
using perfmodel::HostProfile;
using perfmodel::ModeledHost;

/// Runs a variant on the paper's machine: one node with `gpus` devices of
/// the config's spec.
ClusterRunOptions single_host(const ModeledConfig& cfg, int gpus) {
  ClusterRunOptions options;
  options.topo = cluster::single_host(gpus, cfg.device_spec);
  options.trace_path = cfg.trace_path;
  return options;
}

/// Per-call host overhead of one GPU API enqueue. The paper found CUDA and
/// OpenCL within a few percent; OpenCL's dispatch (cl_event bookkeeping)
/// is charged slightly higher.
double enqueue_overhead(const HostProfile& host, GpuApi api) {
  return api == GpuApi::kCuda ? host.gpu_enqueue_overhead
                              : host.gpu_enqueue_overhead * 1.25;
}

double item_overhead(const HostProfile& host, CpuModel model) {
  switch (model) {
    case CpuModel::kSpar: return host.spar_item_overhead;
    case CpuModel::kTbb: return host.taskx_item_overhead;
    case CpuModel::kFastFlow: return host.flow_item_overhead;
  }
  return host.flow_item_overhead;
}

double show_cost(const HostProfile& host, int dim, int lines) {
  return lines * (host.show_line_base + dim * host.show_line_per_pixel);
}

double line_cost(const IterationMap& map, const ModeledConfig& cfg, int i) {
  return static_cast<double>(map.line_cost(i)) *
         cfg.host.seconds_per_mandel_iter;
}

void render_line(const IterationMap& map, int i,
                 std::vector<std::uint8_t>& image) {
  const auto dim = static_cast<std::size_t>(map.params().dim);
  map.render_line(i, std::span<std::uint8_t>(
                         image.data() + static_cast<std::size_t>(i) * dim,
                         dim));
}

/// Applies the config's ablation knobs to every device of every node.
void apply_device_knobs(cluster::ClusterMachine& machine,
                        const ModeledConfig& cfg) {
  for (int n = 0; n < machine.node_count(); ++n) {
    gpusim::Machine& node = machine.node(n);
    for (int d = 0; d < node.device_count(); ++d) {
      node.device(d).set_divergence_model(cfg.divergence);
      node.device(d).set_copy_compute_overlap(cfg.copy_compute_overlap);
    }
  }
}

/// The result fields every variant fills, then the replay's fabric fields.
RunResult finish(ClusterReplay& run, std::string label, double seconds,
                 const std::vector<std::uint8_t>& image) {
  cluster::ClusterMachine& machine = run.machine();
  RunResult out;
  out.label = std::move(label);
  out.modeled_seconds = seconds;
  out.checksum = image_checksum(image);
  out.kernel_launches = machine.kernel_launches();
  for (int n = 0; n < machine.node_count(); ++n) {
    gpusim::Machine& node = machine.node(n);
    if (node.device_count() == 0) continue;
    if (machine.makespan() > 0) {
      out.gpu_compute_utilization =
          node.device(0).compute_busy_seconds() / machine.makespan();
    }
    break;
  }
  run.finish(out);
  return out;
}

/// The host threads "worker0".. of a farm's replicas, each on the node of
/// its stage instance (2 + w).
std::vector<ModeledHost> farm_workers(ClusterReplay& run, int n) {
  std::vector<ModeledHost> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers.emplace_back(&run.node(2 + static_cast<std::size_t>(w)),
                         "worker" + std::to_string(w));
  }
  return workers;
}

/// One GPU "memory space": a device buffer + stream + the in-flight d2h
/// transfer that must complete before the buffer is reused.
struct MemSpace {
  Device* device = nullptr;
  gpusim::StreamId stream = 0;
  std::uint8_t* dev_buf = nullptr;
  std::uint64_t buf_lines = 0;  ///< fractal lines dev_buf holds
  OpHandle last_d2h;
  int pending_lines = 0;  ///< lines of last_d2h whose show-cost is owed
};

/// Launches the Listing-2 batched kernel for lines [first, first+count) and
/// the async d2h copy into `image`. Returns the d2h op.
OpHandle launch_batch(const IterationMap& map, MemSpace& space, int first,
                      int count, std::vector<std::uint8_t>& image) {
  const int dim = map.params().dim;
  const std::uint64_t total_threads =
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim);
  Dim3 grid{static_cast<std::uint32_t>((total_threads + 255) / 256), 1, 1};
  Dim3 block{256, 1, 1};
  gpusim::KernelAttributes attrs;  // 18 registers: the paper's kernel
  std::uint8_t* dev_buf = space.dev_buf;
  auto launched = space.device->launch(
      grid, block, attrs, space.stream,
      [&map, dev_buf, first, count, dim](const ThreadCtx& ctx)
          -> std::uint64_t {
        // Listing 2: i_batch = tid / dim; i = batch*batch_size + i_batch;
        // j = tid - i_batch*dim.
        std::uint64_t tid = ctx.global_x();
        std::uint64_t i_batch = tid / static_cast<std::uint64_t>(dim);
        std::uint64_t j = tid - i_batch * static_cast<std::uint64_t>(dim);
        std::uint64_t i = static_cast<std::uint64_t>(first) + i_batch;
        if (i_batch < static_cast<std::uint64_t>(count) &&
            j < static_cast<std::uint64_t>(dim)) {
          int ii = static_cast<int>(i);
          int jj = static_cast<int>(j);
          dev_buf[i_batch * dim + j] = map.color(ii, jj);
          return map.lane_cost(ii, jj);
        }
        return 1;  // out-of-range guard costs one trip
      });
  assert(launched.ok());
  (void)launched;
  auto copied = space.device->memcpy_d2h(
      image.data() + static_cast<std::size_t>(first) * dim, space.dev_buf,
      total_threads, space.stream, gpusim::HostMem::kPinned);
  assert(copied.ok());
  return copied.value();
}

/// Lines per kernel call of the batched loops. kStatic is the paper's fixed
/// batch_lines. kAdaptive grows the batch with sched::AimdBatchSizer from
/// one line: slow-start doubling while the measured per-line cost — kernel
/// busy time plus amortized enqueue overhead — keeps improving (the
/// occupancy break-even), halving when device memory rejects the buffer.
class BatchSizer {
 public:
  BatchSizer(const ModeledConfig& cfg, int dim)
      : adaptive_(cfg.sched == sched::SchedMode::kAdaptive),
        fixed_(static_cast<std::uint64_t>(std::max(1, cfg.batch_lines))),
        dim_(dim),
        aimd_(make_aimd(dim)) {}

  [[nodiscard]] bool adaptive() const { return adaptive_; }

  /// Lines of the batch starting at line `first`, with `space`'s buffer
  /// grown to hold them.
  int reserve(MemSpace& space, int first) {
    const auto left = static_cast<std::uint64_t>(dim_ - first);
    if (!adaptive_) {
      [[maybe_unused]] const bool fits = grow(space, fixed_);
      assert(fits && "static batch does not fit device memory");
      return static_cast<int>(std::min(fixed_, left));
    }
    for (;;) {
      const std::uint64_t want = std::min(aimd_.current(), left);
      if (grow(space, want)) return static_cast<int>(want);
      aimd_.on_reject();
    }
  }

  /// Feeds back a launched batch of `count` lines that kept the device
  /// busy `busy` seconds after `enqueue` seconds of host calls. Only a
  /// full-size batch is a valid observation; the image-edge remainder
  /// would fake a cost spike.
  void observe(int count, double busy, double enqueue) {
    if (adaptive_ && static_cast<std::uint64_t>(count) == aimd_.current()) {
      aimd_.on_success((busy + enqueue) / count);
    }
  }

  /// The batch size the sizer converged to; 0 under kStatic.
  [[nodiscard]] std::uint64_t converged() const {
    return adaptive_ ? aimd_.current() : 0;
  }

 private:
  static sched::AimdBatchSizer make_aimd(int dim) {
    sched::AimdConfig scfg;
    scfg.min_size = 1;
    scfg.max_size = static_cast<std::uint64_t>(dim);
    scfg.initial = 1;
    scfg.add_step = 1;
    return sched::AimdBatchSizer(scfg);
  }

  /// Ensures `space` owns a device buffer of at least `lines` fractal
  /// lines, reallocating through the device's memory accounting. False
  /// when the device rejects the allocation (OUT_OF_MEMORY).
  bool grow(MemSpace& space, std::uint64_t lines) const {
    if (space.buf_lines >= lines) return true;
    if (space.dev_buf != nullptr) {
      (void)space.device->free(space.dev_buf);
      space.dev_buf = nullptr;
      space.buf_lines = 0;
    }
    auto buf = space.device->malloc(lines * static_cast<std::uint64_t>(dim_));
    if (!buf.ok()) return false;
    space.dev_buf = static_cast<std::uint8_t*>(buf.value());
    space.buf_lines = lines;
    return true;
  }

  bool adaptive_;
  std::uint64_t fixed_;
  int dim_;
  sched::AimdBatchSizer aimd_;
};

}  // namespace

std::string_view cpu_model_name(CpuModel m) {
  switch (m) {
    case CpuModel::kSpar: return "spar";
    case CpuModel::kTbb: return "tbb";
    case CpuModel::kFastFlow: return "fastflow";
  }
  return "?";
}

std::string_view gpu_api_name(GpuApi a) {
  return a == GpuApi::kCuda ? "cuda" : "opencl";
}

RunResult run_sequential(const IterationMap& map, const ModeledConfig& cfg) {
  return run_sequential(map, cfg, single_host(cfg, 0));
}

RunResult run_sequential(const IterationMap& map, const ModeledConfig& cfg,
                         const ClusterRunOptions& options) {
  const int dim = map.params().dim;
  ClusterReplay run(options, 1);
  ModeledHost seq(&run.node(0), "seq");
  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  for (int i = 0; i < dim; ++i) {
    render_line(map, i, image);
    const double cost = line_cost(map, cfg, i) + show_cost(cfg.host, dim, 1);
    seq.work(cost);
    run.profile(0, static_cast<std::uint64_t>(i), cost);
  }
  return finish(run, "sequential", seq.finish_time(), image);
}

RunResult run_cpu_pipeline(const IterationMap& map, const ModeledConfig& cfg,
                           CpuModel model) {
  return run_cpu_pipeline(map, cfg, model, single_host(cfg, 0));
}

RunResult run_cpu_pipeline(const IterationMap& map, const ModeledConfig& cfg,
                           CpuModel model, const ClusterRunOptions& options) {
  const int dim = map.params().dim;
  const double ovh = item_overhead(cfg.host, model);
  const int nworkers = std::max(1, cfg.cpu_workers);
  ClusterReplay run(options, 2 + static_cast<std::size_t>(nworkers));
  cluster::Fabric& fabric = run.fabric();

  ModeledHost source(&run.node(0), "source");
  ModeledHost sink(&run.node(1), "sink");
  std::vector<ModeledHost> workers = farm_workers(run, nworkers);

  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  std::vector<des::TaskId> sink_tasks(static_cast<std::size_t>(dim));
  const bool tbb = model == CpuModel::kTbb;
  for (int i = 0; i < dim; ++i) {
    const auto item = static_cast<std::size_t>(i);
    // TBB throttles in-flight items with max_number_of_live_tokens: item i
    // cannot enter before item (i - tokens) has retired at the sink.
    des::TaskId throttle{};
    if (tbb && item >= cfg.tbb_tokens) {
      throttle = sink_tasks[item - cfg.tbb_tokens];
    }
    des::TaskId emitted = source.work_after(ovh, throttle);
    run.profile(0, item, ovh);

    // Worker choice: round-robin (FastFlow/SPar default scheduling) or
    // earliest-available (work stealing evens the load).
    const std::size_t w =
        tbb ? static_cast<std::size_t>(
                  std::ranges::min_element(workers, {},
                                           &ModeledHost::finish_time) -
                  workers.begin())
            : item % workers.size();
    render_line(map, i, image);
    des::TaskId arrived = fabric.send(run.node_of(0), run.node_of(2 + w),
                                      cluster::kDescriptorBytes, emitted,
                                      "line");
    const double compute = line_cost(map, cfg, i) + ovh;
    des::TaskId computed = workers[w].work_after(compute, arrived);
    run.profile(2 + w, item, compute);
    des::TaskId delivered =
        fabric.send(run.node_of(2 + w), run.node_of(1),
                    static_cast<std::uint64_t>(dim), computed, "pixels");
    const double show = show_cost(cfg.host, dim, 1) + ovh;
    sink_tasks[item] = sink.work_after(show, delivered);
    run.profile(1, item, show);
  }
  return finish(run, std::string(cpu_model_name(model)) + " cpu",
                sink.finish_time(), image);
}

RunResult run_gpu_single_thread(const IterationMap& map,
                                const ModeledConfig& cfg, GpuApi api,
                                GpuMode mode) {
  const int dim = map.params().dim;
  const double ovh = enqueue_overhead(cfg.host, api);
  ClusterReplay run(single_host(cfg, cfg.devices), 1);
  apply_device_knobs(run.machine(), cfg);
  gpusim::Machine& node = run.node(0);
  ModeledHost host(&node, "driver");
  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  std::string label(gpu_api_name(api));
  std::uint64_t adaptive_batch_lines = 0;

  if (mode == GpuMode::kPerLine1D || mode == GpuMode::kPerLine2D) {
    // One kernel + one copy + one show per line, all serialized on the
    // default stream of device 0 (the paper's naive port uses one GPU).
    // 1D maps one thread per column. "2D of threads and blocks" (the paper
    // does not give its exact geometry) uses a 16x16 block whose
    // FASTEST-varying thread dimension strides across columns (j = base +
    // tx*16 + ty) — the classic pitfall when switching to 2D indexing. Each
    // warp then samples columns spread across a 256-wide tile instead of 32
    // adjacent ones, so nearly every warp contains a slow (deep-iteration)
    // lane and pays its cost: SIMT divergence destroys the coherence the 1D
    // row mapping gets for free, reproducing the reported ~2x degradation.
    const bool two_d = mode == GpuMode::kPerLine2D;
    const Dim3 grid{static_cast<std::uint32_t>((dim + 255) / 256), 1, 1};
    const Dim3 block = two_d ? Dim3{16, 16, 1} : Dim3{256, 1, 1};
    Device& dev = node.device(0);
    auto buf = dev.malloc(static_cast<std::uint64_t>(dim));
    assert(buf.ok());
    auto* dev_row = static_cast<std::uint8_t*>(buf.value());
    for (int i = 0; i < dim; ++i) {
      des::TaskId enq = host.work(2 * ovh);
      perfmodel::stream_wait_host(dev, dev.default_stream(), enq);
      auto launched = dev.launch(
          grid, block, {}, dev.default_stream(),
          [&map, dev_row, i, dim, two_d](const ThreadCtx& ctx)
              -> std::uint64_t {
            const std::uint64_t j =
                two_d ? static_cast<std::uint64_t>(ctx.block_idx.x) * 256 +
                            static_cast<std::uint64_t>(ctx.thread_idx.x) * 16 +
                            ctx.thread_idx.y
                      : ctx.global_x();
            if (j >= static_cast<std::uint64_t>(dim)) return 1;
            dev_row[j] = map.color(i, static_cast<int>(j));
            return map.lane_cost(i, static_cast<int>(j));
          });
      assert(launched.ok());
      (void)launched;
      auto copied = dev.memcpy_d2h(
          image.data() + static_cast<std::size_t>(i) * dim, dev_row,
          static_cast<std::uint64_t>(dim), dev.default_stream(),
          gpusim::HostMem::kPinned);
      assert(copied.ok());
      host.wait(copied.value().task);
      host.work(show_cost(cfg.host, dim, 1));
    }
    (void)dev.free(buf.value());
    label += mode == GpuMode::kPerLine1D ? " per-line" : " 2d";
  } else {
    // Batched mode with cfg.buffers_per_gpu memory spaces per device
    // (§IV-A), assigned round-robin across devices then buffers — or, under
    // kAdaptive, to the least-loaded space.
    const int devices = node.device_count();
    const int nbuf = std::max(1, cfg.buffers_per_gpu);
    BatchSizer sizer(cfg, dim);
    std::vector<MemSpace> spaces;
    for (int d = 0; d < devices; ++d) {
      Device& dev = node.device(d);
      for (int b = 0; b < nbuf; ++b) {
        MemSpace space;
        space.device = &dev;
        space.stream = b == 0 ? dev.default_stream() : dev.create_stream();
        spaces.push_back(space);
      }
    }

    // With multiple memory spaces the host issues the next batch BEFORE
    // displaying the previous one (that is what the extra space buys: "one
    // for copying data and another to perform computations"); the
    // single-space version runs the paper's synchronous loop.
    const bool overlap_show = nbuf > 1 || devices > 1;
    // Adaptive: the space whose in-flight d2h lands first (an idle space
    // scores 0, so every space gets primed first; ties go to the lowest
    // index).
    const auto d2h_done = [](const MemSpace& s) {
      return s.last_d2h.task.finish;
    };
    int first = 0;
    for (int b = 0; first < dim; ++b) {
      MemSpace& space =
          sizer.adaptive()
              ? *std::ranges::min_element(spaces, {}, d2h_done)
              : spaces[static_cast<std::size_t>(
                    (b % devices) * nbuf + (b / devices) % nbuf)];
      const int count = sizer.reserve(space, first);

      // Reusing a space requires its previous transfer to have landed.
      int to_show_later = 0;
      if (space.last_d2h.valid()) {
        host.wait(space.last_d2h.task);
        if (overlap_show) {
          to_show_later = space.pending_lines;
        } else {
          host.work(show_cost(cfg.host, dim, space.pending_lines));
        }
      }
      des::TaskId enq = host.work(2 * ovh);
      perfmodel::stream_wait_host(*space.device, space.stream, enq);
      const double busy0 = space.device->compute_busy_seconds();
      space.last_d2h = launch_batch(map, space, first, count, image);
      sizer.observe(count, space.device->compute_busy_seconds() - busy0,
                    2 * ovh);
      space.pending_lines = count;
      if (to_show_later > 0) host.work(show_cost(cfg.host, dim, to_show_later));
      first += count;
    }
    // Drain: wait and show the final batch of every space.
    for (MemSpace& space : spaces) {
      if (space.last_d2h.valid()) {
        host.wait(space.last_d2h.task);
        host.work(show_cost(cfg.host, dim, space.pending_lines));
      }
    }

    adaptive_batch_lines = sizer.converged();
    label += sizer.adaptive() ? " adaptive"
                              : " batch" + std::to_string(cfg.batch_lines);
    if (cfg.buffers_per_gpu > 1) {
      label += " x" + std::to_string(cfg.buffers_per_gpu) + "buf";
    }
    if (cfg.devices > 1) label += " " + std::to_string(cfg.devices) + "gpu";
  }

  RunResult out =
      finish(run, std::move(label),
             std::max(host.finish_time(), run.machine().makespan()), image);
  out.adaptive_batch_lines = adaptive_batch_lines;
  return out;
}

RunResult run_combined(const IterationMap& map, const ModeledConfig& cfg,
                       CpuModel model, GpuApi api) {
  return run_combined(map, cfg, model, api, single_host(cfg, cfg.devices));
}

RunResult run_combined(const IterationMap& map, const ModeledConfig& cfg,
                       CpuModel model, GpuApi api,
                       const ClusterRunOptions& options) {
  const int dim = map.params().dim;
  const double movh = item_overhead(cfg.host, model);
  const double govh = enqueue_overhead(cfg.host, api);
  const int nworkers = std::max(1, cfg.combined_workers);

  ClusterReplay run(options, 2 + static_cast<std::size_t>(nworkers));
  cluster::ClusterMachine& machine = run.machine();
  cluster::Fabric& fabric = run.fabric();
  apply_device_knobs(machine, cfg);
  ModeledHost source(&run.node(0), "source");
  ModeledHost collector(&run.node(1), "collector");
  std::vector<ModeledHost> workers = farm_workers(run, nworkers);

  // Each worker owns one memory space (buffer + stream) per GPU of its
  // node — the paper attaches a cudaStream/cl_command_queue to every stream
  // item; a worker has one item in flight per device at a time, so this is
  // the same concurrency.
  std::vector<std::vector<MemSpace>> spaces(
      static_cast<std::size_t>(nworkers));
  for (std::size_t w = 0; w < spaces.size(); ++w) {
    gpusim::Machine& node = run.node(2 + w);
    assert(node.device_count() > 0 &&
           "combined worker placed on a node without GPUs");
    for (int d = 0; d < node.device_count(); ++d) {
      MemSpace space;
      space.device = &node.device(d);
      space.stream = space.device->create_stream();
      spaces[w].push_back(space);
    }
    run.set_binding(2 + w, cluster::GpuBinding::kPerItem);
  }
  // Modeled completion of the last batch enqueued on each device of each
  // node. Under kAdaptive workers still arrive round-robin (the farm
  // emitter), but each batch goes to the least-loaded device of the
  // worker's node, in the worker's own space there. Per-space selection
  // would be wrong here: a worker's spaces all start idle, so every
  // worker's first batch would pile onto device 0 while device 1 sat dark.
  std::vector<std::vector<double>> device_free(
      static_cast<std::size_t>(machine.node_count()));
  for (int n = 0; n < machine.node_count(); ++n) {
    device_free[static_cast<std::size_t>(n)].assign(
        static_cast<std::size_t>(machine.node(n).device_count()), 0.0);
  }

  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  std::vector<des::TaskId> collected;
  BatchSizer sizer(cfg, dim);
  int first = 0;
  for (int b = 0; first < dim; ++b) {
    const auto item = static_cast<std::size_t>(b);
    des::TaskId throttle{};
    if (model == CpuModel::kTbb && item >= cfg.tbb_tokens) {
      throttle = collected[item - cfg.tbb_tokens];
    }
    des::TaskId emitted = source.work_after(movh, throttle);
    run.profile(0, item, movh);

    const std::size_t w = item % static_cast<std::size_t>(nworkers);
    std::vector<double>& free_at =
        device_free[static_cast<std::size_t>(run.node_of(2 + w))];
    const std::size_t d =
        sizer.adaptive()
            ? static_cast<std::size_t>(std::ranges::min_element(free_at) -
                                       free_at.begin())
            : item % spaces[w].size();
    MemSpace& space = spaces[w][d];
    ModeledHost& worker = workers[w];
    const int count = sizer.reserve(space, first);

    // The worker must not reuse its buffer before the previous transfer
    // finished (the collector synchronizes, but the buffer belongs to the
    // worker's space).
    if (space.last_d2h.valid()) worker.wait(space.last_d2h.task);
    des::TaskId arrived = fabric.send(run.node_of(0), run.node_of(2 + w),
                                      cluster::kDescriptorBytes, emitted,
                                      "batch");
    des::TaskId deps[1] = {arrived};
    worker.work(movh + 2 * govh, deps);
    perfmodel::stream_wait_host(*space.device, space.stream, worker.tail());
    const double busy0 = space.device->compute_busy_seconds();
    space.last_d2h = launch_batch(map, space, first, count, image);
    const double busy = space.device->compute_busy_seconds() - busy0;
    sizer.observe(count, busy, 2 * govh);
    free_at[d] = space.last_d2h.task.finish;
    run.profile(2 + w, item, movh + 2 * govh, busy,
                run.task_seconds(space.last_d2h.task));

    // Collector: cudaStreamSynchronize / clWaitForEvents, then show.
    des::TaskId delivered = fabric.send(
        run.node_of(2 + w), run.node_of(1),
        static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim),
        space.last_d2h.task, "pixels");
    collector.wait(delivered);
    const double show = show_cost(cfg.host, dim, count) + movh;
    collected.push_back(collector.work(show));
    run.profile(1, item, show);
    first += count;
  }

  std::string label = std::string(cpu_model_name(model)) + "+" +
                      std::string(gpu_api_name(api));
  if (sizer.adaptive()) label += " adaptive";
  const int max_dev = run.max_node_devices();
  if (max_dev > 1) label += " " + std::to_string(max_dev) + "gpu";
  RunResult out =
      finish(run, std::move(label),
             std::max(collector.finish_time(), machine.makespan()), image);
  out.adaptive_batch_lines = sizer.converged();
  return out;
}

}  // namespace hs::mandel
