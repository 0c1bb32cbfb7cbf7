#include "mandel/pipelines.hpp"

#include <optional>

#include "flow/adapters.hpp"
#include "flow/pipeline.hpp"
#include "oclx/oclx.hpp"
#include "spar/gpu_stage.hpp"
#include "spar/spar.hpp"
#include "taskx/pipeline.hpp"
#include "taskx/pool.hpp"

namespace hs::mandel {

namespace {

/// One stream item: a rendered fractal line.
struct Line {
  int index = 0;
  std::vector<std::uint8_t> pixels;
};

std::vector<std::uint8_t> make_image(int dim) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(dim) *
                                   static_cast<std::size_t>(dim));
}

void store_line(std::vector<std::uint8_t>& image, int dim, const Line& line) {
  std::copy(line.pixels.begin(), line.pixels.end(),
            image.begin() + static_cast<std::size_t>(line.index) * dim);
}

}  // namespace

std::vector<std::uint8_t> render_sequential(const MandelParams& params) {
  auto image = make_image(params.dim);
  for (int i = 0; i < params.dim; ++i) {
    kernels::mandel_line(
        params, i,
        std::span<std::uint8_t>(
            image.data() + static_cast<std::size_t>(i) * params.dim,
            static_cast<std::size_t>(params.dim)));
  }
  return image;
}

Result<std::vector<std::uint8_t>> render_flow(const MandelParams& params,
                                              int workers) {
  auto image = make_image(params.dim);
  flow::Pipeline pipe;
  pipe.add_stage(flow::make_source<Line>(
                     [i = 0, &params]() mutable -> std::optional<Line> {
                       if (i >= params.dim) return std::nullopt;
                       return Line{i++, {}};
                     }),
                 "source");
  pipe.add_farm(
      [&params] {
        return flow::make_stage<Line, Line>([&params](Line line) {
          line.pixels.resize(static_cast<std::size_t>(params.dim));
          kernels::mandel_line(params, line.index, line.pixels);
          return line;
        });
      },
      workers, "compute");
  pipe.add_stage(flow::make_sink<Line>([&image, &params](Line line) {
                   store_line(image, params.dim, line);
                 }),
                 "show");
  HS_RETURN_IF_ERROR(pipe.run_and_wait());
  return image;
}

Result<std::vector<std::uint8_t>> render_taskx(const MandelParams& params,
                                               int workers,
                                               std::size_t max_tokens) {
  auto image = make_image(params.dim);
  taskx::ThreadPool pool(static_cast<unsigned>(workers));
  taskx::Pipeline pipe([i = 0, &params]() mutable
                           -> std::optional<taskx::Item> {
    if (i >= params.dim) return std::nullopt;
    return taskx::Item::of<Line>(Line{i++, {}});
  });
  pipe.add_filter(
      taskx::FilterMode::kParallel,
      [&params](taskx::Item item) {
        Line line = item.take<Line>();
        line.pixels.resize(static_cast<std::size_t>(params.dim));
        kernels::mandel_line(params, line.index, line.pixels);
        return taskx::Item::of<Line>(std::move(line));
      },
      "compute");
  pipe.add_filter(
      taskx::FilterMode::kSerialInOrder,
      [&image, &params](taskx::Item item) {
        store_line(image, params.dim, item.as<Line>());
        return item;
      },
      "store");
  HS_RETURN_IF_ERROR(pipe.run(pool, max_tokens));
  return image;
}

Result<std::vector<std::uint8_t>> render_spar(const MandelParams& params,
                                              int workers) {
  auto image = make_image(params.dim);
  spar::ToStream region("mandel");
  region.source<Line>([i = 0, &params]() mutable -> std::optional<Line> {
    if (i >= params.dim) return std::nullopt;
    return Line{i++, {}};
  });
  region.stage<Line, Line>(spar::Replicate(workers), [&params](Line line) {
    line.pixels.resize(static_cast<std::size_t>(params.dim));
    kernels::mandel_line(params, line.index, line.pixels);
    return line;
  });
  region.last_stage<Line>([&image, &params](Line line) {
    store_line(image, params.dim, line);
  });
  HS_RETURN_IF_ERROR(region.run());
  return image;
}

namespace {

/// One GPU pass over a line: launch, D2H copy into host staging, stream
/// synchronize — three device calls. Idempotent (the kernel rewrites the
/// whole row).
Status render_line_pass(const MandelParams& p, spar::CudaDevice& dev,
                        Line& line) {
  const auto row_bytes = static_cast<std::size_t>(p.dim);
  auto row = dev.scratch(0, row_bytes);
  if (!row.ok()) return row.status();
  auto* dev_row = static_cast<std::uint8_t*>(row.value());
  const int i = line.index;
  HS_RETURN_IF_ERROR(dev.launch(
      row_bytes, 256, "mandel.kernel",
      [p, i, dev_row](std::uint64_t j) -> std::uint64_t {
        const int k = kernels::mandel_iterations(p, i, static_cast<int>(j));
        dev_row[j] = kernels::mandel_color(k, p.niter);
        return static_cast<std::uint64_t>(k) + 1;
      }));
  std::uint8_t* host_row = dev.staging(row_bytes);
  HS_RETURN_IF_ERROR(dev.download(host_row, dev_row, row_bytes, "mandel.d2h"));
  // The real implementation forwards the item with its stream and lets the
  // last stage synchronize; functionally the simulated copy has already
  // landed, and the virtual completion is the stream's tail.
  HS_RETURN_IF_ERROR(dev.sync("mandel.sync"));
  line.pixels.assign(host_row, host_row + row_bytes);
  return OkStatus();
}

}  // namespace

Result<std::vector<std::uint8_t>> render_spar_cuda(
    const MandelParams& params, int workers, gpusim::Machine& machine,
    RetryStats* stats, const RetryPolicy& policy,
    sched::DeviceLoadTracker* tracker, flow::FailureReport* failures) {
  if (machine.device_count() == 0) {
    return InvalidArgument("machine has no devices");
  }
  auto image = make_image(params.dim);
  spar::ToStream region("mandel-cuda");
  region.source<Line>([i = 0, &params]() mutable -> std::optional<Line> {
    if (i >= params.dim) return std::nullopt;
    return Line{i++, {}};
  });
  spar::GpuStage stage;
  stage.machine = &machine;
  stage.replicas = workers;
  stage.ladder.tracker = tracker;
  stage.ladder.policy = policy;
  stage.ladder.stats = stats;
  stage.ladder.label = "mandel.line";
  stage.ladder.setup_label = "mandel.setup";
  stage.ladder.seed = 0x6d616e64656cull;
  spar::gpu_stage<Line>(
      region, stage,
      [params](spar::CudaDevice& dev, Line& line) {
        return render_line_pass(params, dev, line);
      },
      [params](Line& line) {
        line.pixels.resize(static_cast<std::size_t>(params.dim));
        kernels::mandel_line(params, line.index, line.pixels);
      });
  region.last_stage<Line>([&image, &params](Line line) {
    store_line(image, params.dim, line);
  });
  Status run_status = region.run();
  if (failures != nullptr) *failures = region.failure_report();
  HS_RETURN_IF_ERROR(run_status);
  return image;
}

Result<std::vector<std::uint8_t>> render_opencl_batched(
    const MandelParams& params, gpusim::Machine& machine, int batch_lines) {
  spar::ClDevice device(&machine);
  HS_RETURN_IF_ERROR(device.bind(0));
  oclx::CommandQueue& queue = device.queue();

  const int dim = params.dim;
  const int batch = std::max(1, batch_lines);
  auto buffer = device.buffer(static_cast<std::size_t>(batch) *
                              static_cast<std::size_t>(dim));
  if (!buffer.ok()) return buffer.status();

  auto image = make_image(dim);
  auto* dev_buf = static_cast<std::uint8_t*>(buffer.value()->data());
  for (int first = 0; first < dim; first += batch) {
    const int count = std::min(batch, dim - first);
    const MandelParams p = params;
    // Listing 2 kernel, OpenCL form: global id -> (i_batch, j).
    oclx::Kernel kernel = oclx::Kernel::create(
        "mandel_kernel",
        [p, dev_buf, first, count, dim](const oclx::ThreadCtx& ctx2)
            -> std::uint64_t {
          std::uint64_t tid = ctx2.global_x();
          std::uint64_t i_batch = tid / static_cast<std::uint64_t>(dim);
          std::uint64_t j = tid - i_batch * static_cast<std::uint64_t>(dim);
          if (i_batch >= static_cast<std::uint64_t>(count) ||
              j >= static_cast<std::uint64_t>(dim)) {
            return 1;
          }
          int i = first + static_cast<int>(i_batch);
          int k = kernels::mandel_iterations(p, i, static_cast<int>(j));
          dev_buf[i_batch * static_cast<std::uint64_t>(dim) + j] =
              kernels::mandel_color(k, p.niter);
          return static_cast<std::uint64_t>(k) + 1;
        });
    std::uint64_t total =
        static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim);
    oclx::Event done;
    if (queue.enqueue_ndrange(
            kernel,
            oclx::Dim3{static_cast<std::uint32_t>((total + 255) / 256 * 256),
                       1, 1},
            oclx::Dim3{256, 1, 1}, &done) != oclx::ClStatus::kSuccess) {
      return Internal("ndrange failed: " + queue.last_error());
    }
    oclx::Event read_done;
    if (queue.enqueue_read(
            *buffer.value(), 0,
            image.data() + static_cast<std::size_t>(first) * dim,
            static_cast<std::size_t>(count) * dim, /*blocking=*/false,
            &read_done) != oclx::ClStatus::kSuccess) {
      return Internal("read failed: " + queue.last_error());
    }
    auto waited = oclx::Event::wait_for_events({done, read_done});
    if (!waited.ok()) return waited.status();
  }
  return image;
}

}  // namespace hs::mandel
