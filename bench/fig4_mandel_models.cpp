// Fig. 4 reproduction: "Mandelbrot results" across programming models.
//
// Rows match the paper's bars: sequential; CPU-only SPar/TBB/FastFlow with
// 19 workers; GPU-only CUDA/OpenCL with 4 memory spaces; and every
// multicore-model x GPU-API combination with 10 workers, on 1 and 2 GPUs.
// TBB uses max_number_of_live_tokens = 38 (CPU-only) / 50 (GPU-combined),
// the paper's tuned values.
//
// Flags: --paper-scale | --quick | --dim=N --niter=N | --csv
//        --cpu-workers=N (19) | --combined-workers=N (10) | --batch=N (32)
//        --sched=static|adaptive (default static). static reproduces the
//        figure bit-for-bit; adaptive appends GPU-only and combined rows
//        where the batch size is AIMD-discovered and multi-GPU dispatch is
//        least-loaded (DESIGN.md §4h).
//        --json=PATH (also write every row — label, modeled time, speedup —
//        as machine-readable JSON, same shape as the fig1/fig5 outputs)
//        --trace=FILE --metrics=FILE (run the functional TBB-equivalent
//        token pipeline and the SPar+CUDA pipeline with runtime telemetry
//        on, exporting a measured Chrome trace and/or a metrics dump:
//        .json gets JSON, anything else Prometheus text)
#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "cudax/cudax.hpp"
#include "gpusim/device.hpp"
#include "mandel/calibrate.hpp"
#include "mandel/modeled.hpp"
#include "mandel/pipelines.hpp"
#include "sched/sched.hpp"

namespace hs {
namespace {

using benchtool::speedup_cell;
using mandel::CpuModel;
using mandel::GpuApi;
using mandel::GpuMode;
using mandel::ModeledConfig;
using mandel::RunResult;

/// --trace/--metrics demo: the real (functional) pipelines of two of the
/// figure's models — the TBB-equivalent token pipeline and SPar+CUDA —
/// with the process-wide telemetry singletons capturing. Returns 0 on
/// success.
int run_telemetry_demo(const benchtool::TelemetryOutputs& outs,
                       kernels::MandelParams params) {
  // The functional pipelines compute for real; keep the workload modest.
  params.dim = std::min(params.dim, 256);
  params.niter = std::min(params.niter, 2000);
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  benchtool::begin_telemetry_capture(outs);
  auto tbb_image = mandel::render_taskx(params, 4, 8);
  flow::FailureReport failures;
  auto spar_image = mandel::render_spar_cuda(params, 4, *machine, nullptr, {},
                                             nullptr, &failures);
  int rc = benchtool::end_telemetry_capture(outs);
  cudax::unbind_machine();
  for (const auto* image : {&tbb_image, &spar_image}) {
    if (!image->ok()) {
      std::cerr << "[bench] telemetry demo run failed: "
                << image->status().ToString() << "\n";
      return 1;
    }
  }
  if (!failures.ok()) {
    std::cerr << "[bench] unrecovered stage failures: " << failures.ToString()
              << "\n";
    return 1;
  }
  if (tbb_image.value() != spar_image.value()) {
    std::cerr << "[bench] telemetry demo: taskx and spar+cuda images "
                 "differ\n";
    return 1;
  }
  return rc;
}

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << args_or.status().ToString() << "\n";
    return 1;
  }
  const CliArgs& args = args_or.value();
  kernels::MandelParams params = benchtool::mandel_workload(args);
  mandel::IterationMap map = benchtool::load_map(args, params);

  auto batch_or = args.get_positive_int("batch", 32);
  auto cpu_workers_or = args.get_positive_int("cpu-workers", 19);
  auto combined_workers_or = args.get_positive_int("combined-workers", 10);
  auto sched_or = sched::parse_sched_mode(args.get_string("sched", "static"));
  for (const Status& s :
       {batch_or.status(), cpu_workers_or.status(),
        combined_workers_or.status(), sched_or.status()}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  const sched::SchedMode sched_mode = sched_or.value();

  ModeledConfig cfg;
  cfg.batch_lines = static_cast<int>(batch_or.value());
  if (args.get_bool("calibrate", true)) {
    cfg = mandel::calibrate_to_paper(map, {}, cfg);
  }
  cfg.cpu_workers = static_cast<int>(cpu_workers_or.value());
  cfg.combined_workers = static_cast<int>(combined_workers_or.value());

  Table table("Fig. 4 — Mandelbrot results across programming models "
              "(modeled)");
  table.set_header({"version", "modeled time", "speedup"});

  const std::string json_path = args.get_string("json", "");
  struct JsonRow {
    std::string label;
    double modeled_seconds;
    double speedup;
  };
  std::vector<JsonRow> json_rows;

  RunResult seq = run_sequential(map, cfg);
  bool mismatch = false;
  auto add = [&](RunResult r, const std::string& label = "") {
    if (!label.empty()) r.label = label;
    if (r.checksum != seq.checksum) {
      std::cerr << "[bench] CHECKSUM MISMATCH in '" << r.label << "'\n";
      mismatch = true;
    }
    table.add_row({r.label, format_seconds(r.modeled_seconds),
                   speedup_cell(seq.modeled_seconds, r.modeled_seconds)});
    json_rows.push_back({r.label, r.modeled_seconds,
                         r.modeled_seconds > 0
                             ? seq.modeled_seconds / r.modeled_seconds
                             : 0});
  };

  add(seq);
  table.add_separator();

  // CPU-only rows: 19 workers, TBB with 38 tokens (2 x 19).
  {
    ModeledConfig c = cfg;
    c.tbb_tokens = 38;
    for (CpuModel m :
         {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
      add(run_cpu_pipeline(map, c, m));
    }
  }
  table.add_separator();

  // GPU-only rows: single host thread, 4 memory spaces (the paper's best
  // single-thread configuration), 1 and 2 GPUs.
  for (int devices : {1, 2}) {
    ModeledConfig c = cfg;
    c.devices = devices;
    c.buffers_per_gpu = 4 / devices;  // 4x total memory, as in §IV-A
    for (GpuApi api : {GpuApi::kCuda, GpuApi::kOpenCl}) {
      add(run_gpu_single_thread(map, c, api, GpuMode::kBatched));
    }
  }
  table.add_separator();

  // Combined rows: 10 workers, TBB with 50 tokens (5 x 10).
  for (int devices : {1, 2}) {
    ModeledConfig c = cfg;
    c.devices = devices;
    c.tbb_tokens = 50;
    for (CpuModel m :
         {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
      for (GpuApi api : {GpuApi::kCuda, GpuApi::kOpenCl}) {
        add(run_combined(map, c, m, api));
      }
    }
    if (devices == 1) table.add_separator();
  }

  // Adaptive rows: same GPU-only and combined shapes, but the batch size
  // is discovered by the AIMD sizer and multi-GPU dispatch is least-loaded
  // instead of the per-worker round-robin. No paper bars exist for these;
  // compare against the hand-tuned static rows above.
  if (sched_mode == sched::SchedMode::kAdaptive) {
    table.add_separator();
    for (int devices : {1, 2}) {
      ModeledConfig c = cfg;
      c.sched = sched::SchedMode::kAdaptive;
      c.devices = devices;
      c.buffers_per_gpu = 4 / devices;
      for (GpuApi api : {GpuApi::kCuda, GpuApi::kOpenCl}) {
        add(run_gpu_single_thread(map, c, api, GpuMode::kBatched));
      }
    }
    table.add_separator();
    for (int devices : {1, 2}) {
      ModeledConfig c = cfg;
      c.sched = sched::SchedMode::kAdaptive;
      c.devices = devices;
      c.tbb_tokens = 50;
      for (CpuModel m :
           {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
        for (GpuApi api : {GpuApi::kCuda, GpuApi::kOpenCl}) {
          auto r = run_combined(map, c, m, api);
          if (m == CpuModel::kSpar && api == GpuApi::kCuda) {
            std::fprintf(stderr,
                         "[bench] combined adaptive %dgpu: sizer at %llu "
                         "lines/batch\n",
                         devices,
                         static_cast<unsigned long long>(
                             r.adaptive_batch_lines));
          }
          add(std::move(r));
        }
      }
    }
  }

  if (args.get_bool("csv", false)) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::cout
        << "\npaper findings reproduced: all models perform similarly; with "
           "1 GPU the single-thread versions match the combined ones; with "
           "2 GPUs a single host thread degrades while multicore+GPU "
           "combinations gain (see EXPERIMENTS.md).\n";
  }
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"fig4_mandel_models\",\n";
    json << "  \"dim\": " << params.dim << ",\n";
    json << "  \"niter\": " << params.niter << ",\n";
    json << "  \"cpu_workers\": " << cfg.cpu_workers << ",\n";
    json << "  \"combined_workers\": " << cfg.combined_workers << ",\n";
    json << "  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& r = json_rows[i];
      json << "    {\"label\": \"" << r.label
           << "\", \"modeled_seconds\": " << r.modeled_seconds
           << ", \"speedup\": " << r.speedup << "}"
           << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (Status s = write_file(json_path, json.str()); !s.ok()) {
      std::cerr << "[bench] " << s.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "[bench] json written to %s\n", json_path.c_str());
  }
  if (const auto outs = benchtool::telemetry_outputs(args); outs.active()) {
    if (int rc = run_telemetry_demo(outs, params); rc != 0) return rc;
  }
  return mismatch ? 1 : 0;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
