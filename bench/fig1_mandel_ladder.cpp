// Fig. 1 reproduction: "Optimizing Mandelbrot Streaming application".
//
// Replays the paper's optimization ladder on the modeled machine
// (i9-7900X + 2x simulated Titan XP) and prints execution time and speedup
// versus sequential for every rung, next to the paper's reported numbers
// (which were measured at dim=2000, niter=200000; run with --paper-scale
// to model the same workload).
//
// Flags: --paper-scale | --quick | --dim=N --niter=N | --csv
//        --batch=N (default 32) | --map-cache=DIR
//        --sched=static|adaptive (default static). static reproduces the
//                          paper's ladder bit-for-bit; adaptive appends
//                          rows where the batch size is discovered by the
//                          AIMD sizer and multi-GPU dispatch is least-
//                          loaded instead of round-robin (DESIGN.md §4h).
//                          The fault/telemetry demos also switch the
//                          functional pipeline to tracker-driven dispatch.
//        --json=PATH      (also write every row — label, modeled time,
//                          speedup, kernel launches — as machine-readable
//                          JSON, same shape as the fig5/micro outputs)
//        --trace-dir=DIR  (dump each variant's modeled schedule as Chrome
//                          trace JSON, viewable in ui.perfetto.dev)
//        --faults=SPEC    (run the functional SPar+CUDA pipeline under an
//                          injected fault plan — see gpusim/fault_plan.hpp
//                          for the spec grammar, e.g. "d2h.p=0.1,lost.nth=50"
//                          — and verify the image is bit-exact vs fault-free)
//        --trace=FILE --metrics=FILE (run the functional SPar+CUDA pipeline
//                          with runtime telemetry on and export a *measured*
//                          Chrome trace — same event schema as --trace-dir's
//                          modeled schedules, so both load side by side in
//                          ui.perfetto.dev — and/or a metrics dump: .json
//                          gets JSON, anything else Prometheus text)
#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "cudax/cudax.hpp"
#include "gpusim/fault_plan.hpp"
#include "mandel/calibrate.hpp"
#include "mandel/modeled.hpp"
#include "mandel/pipelines.hpp"
#include "sched/sched.hpp"

namespace hs {
namespace {

using benchtool::speedup_cell;
using mandel::GpuApi;
using mandel::GpuMode;
using mandel::ModeledConfig;
using mandel::RunResult;

struct PaperRef {
  const char* time;
  const char* speedup;
};

/// --faults demo: the real (functional) SPar+CUDA pipeline under an
/// injected fault plan must produce the bit-exact fault-free image.
/// Returns 0 on success.
int run_fault_demo(const std::string& spec, kernels::MandelParams params,
                   sched::SchedMode mode) {
  auto plan = gpusim::FaultPlan::Parse(spec);
  if (!plan.ok()) {
    std::cerr << "[bench] bad --faults spec: " << plan.status().ToString()
              << "\n";
    return 1;
  }
  // The functional pipeline computes for real; keep the workload modest.
  params.dim = std::min(params.dim, 256);
  params.niter = std::min(params.niter, 2000);

  const bool adaptive = mode == sched::SchedMode::kAdaptive;
  auto clean_machine =
      gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(clean_machine.get());
  sched::DeviceLoadTracker clean_tracker(clean_machine->device_count());
  auto clean = mandel::render_spar_cuda(params, 4, *clean_machine, nullptr, {},
                                        adaptive ? &clean_tracker : nullptr);
  cudax::unbind_machine();
  if (!clean.ok()) {
    std::cerr << "[bench] fault-free run failed: " << clean.status().ToString()
              << "\n";
    return 1;
  }

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < machine->device_count(); ++d) {
    machine->device(d).set_fault_plan(plan.value());
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  sched::DeviceLoadTracker tracker(machine->device_count());
  flow::FailureReport failures;
  auto faulty = mandel::render_spar_cuda(params, 4, *machine, &stats, {},
                                         adaptive ? &tracker : nullptr,
                                         &failures);
  cudax::unbind_machine();

  std::cout << "\n--faults=" << spec << " (dim=" << params.dim
            << ", functional SPar+CUDA pipeline, sched="
            << sched::to_string(mode) << ")\n";
  for (int d = 0; d < machine->device_count(); ++d) {
    std::cout << "  device " << d << ": "
              << machine->device(d).fault_telemetry().ToString() << "\n";
  }
  std::cout << "  recovery: " << stats.ToString() << "\n";
  if (adaptive) {
    std::cout << "  scheduler: picks=" << tracker.picks()
              << " steals=" << tracker.steals() << "\n";
  }
  if (!faulty.ok()) {
    std::cerr << "[bench] faulty run failed: " << faulty.status().ToString()
              << "\n";
    return 1;
  }
  if (faulty.value() != clean.value()) {
    std::cerr << "[bench] FAULT DEMO MISMATCH: image differs from fault-free "
                 "run\n";
    return 1;
  }
  if (!failures.ok()) {
    // The retry ladder is supposed to absorb every injected fault; a stage
    // failure on record means something went unrecovered.
    std::cerr << "[bench] unrecovered stage failures: " << failures.ToString()
              << "\n";
    return 1;
  }
  std::cout << "  image bit-exact vs fault-free run: OK\n";
  return 0;
}

/// --trace/--metrics demo: the real (functional) SPar+CUDA pipeline with
/// the process-wide telemetry singletons capturing, exported to the
/// requested files. Returns 0 on success.
int run_telemetry_demo(const benchtool::TelemetryOutputs& outs,
                       kernels::MandelParams params, sched::SchedMode mode) {
  // The functional pipeline computes for real; keep the workload modest.
  params.dim = std::min(params.dim, 256);
  params.niter = std::min(params.niter, 2000);
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  benchtool::begin_telemetry_capture(outs);
  sched::DeviceLoadTracker tracker(machine->device_count());
  if (mode == sched::SchedMode::kAdaptive) {
    // Export the scheduler's decisions alongside the pipeline's metrics.
    tracker.bind_metrics(&telemetry::Registry::Default(), "sched");
  }
  auto image = mandel::render_spar_cuda(
      params, 4, *machine, nullptr, {},
      mode == sched::SchedMode::kAdaptive ? &tracker : nullptr);
  int rc = benchtool::end_telemetry_capture(outs);
  cudax::unbind_machine();
  if (!image.ok()) {
    std::cerr << "[bench] telemetry demo run failed: "
              << image.status().ToString() << "\n";
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
  if (!batch_or.ok()) {
    std::cerr << batch_or.status().ToString() << "\n";
    return 1;
  }
  auto sched_or = sched::parse_sched_mode(args.get_string("sched", "static"));
  if (!sched_or.ok()) {
    std::cerr << sched_or.status().ToString() << "\n";
    return 1;
  }
  const sched::SchedMode sched_mode = sched_or.value();

  ModeledConfig cfg;
  cfg.batch_lines = static_cast<int>(batch_or.value());
  if (args.get_bool("calibrate", true)) {
    cfg = mandel::calibrate_to_paper(map, {}, cfg);
  }
  const std::string trace_dir = args.get_string("trace-dir", "");
  int trace_seq = 0;
  auto with_trace = [&](ModeledConfig c, const std::string& name) {
    if (!trace_dir.empty()) {
      c.trace_path = trace_dir + "/fig1_" + std::to_string(trace_seq++) +
                     "_" + name + ".json";
    }
    return c;
  };

  Table table("Fig. 1 — Optimizing Mandelbrot Streaming (modeled)");
  table.set_header({"version", "modeled time", "speedup", "kernels",
                    "paper time", "paper speedup"});

  const std::string json_path = args.get_string("json", "");
  struct JsonRow {
    std::string label;
    double modeled_seconds;
    double speedup;
    std::uint64_t kernel_launches;
  };
  std::vector<JsonRow> json_rows;

  RunResult seq = run_sequential(map, with_trace(cfg, "sequential"));
  double base = seq.modeled_seconds;
  bool mismatch = false;
  bool trace_failed = false;
  auto add = [&](const RunResult& r, PaperRef ref) {
    if (r.checksum != seq.checksum) {
      std::cerr << "[bench] CHECKSUM MISMATCH in variant '" << r.label
                << "'\n";
      mismatch = true;
    }
    if (!r.trace_status.ok()) {
      std::cerr << "[bench] trace of '" << r.label
                << "' not written: " << r.trace_status.ToString() << "\n";
      trace_failed = true;
    }
    table.add_row({r.label, format_seconds(r.modeled_seconds),
                   speedup_cell(base, r.modeled_seconds),
                   r.kernel_launches ? std::to_string(r.kernel_launches) : "-",
                   ref.time, ref.speedup});
    json_rows.push_back({r.label, r.modeled_seconds,
                         r.modeled_seconds > 0 ? base / r.modeled_seconds : 0,
                         r.kernel_launches});
  };

  add(seq, {"400s", "1.0x"});

  {
    ModeledConfig c = cfg;
    c.cpu_workers = 20;
    auto r = run_cpu_pipeline(map, c, mandel::CpuModel::kSpar);
    r.label = "cpu 20 threads (spar)";
    add(r, {"~23.5s", "17x"});
  }
  table.add_separator();
  add(run_gpu_single_thread(map, with_trace(cfg, "per_line"), GpuApi::kCuda,
                            GpuMode::kPerLine1D),
      {"129s", "3.1x"});
  add(run_gpu_single_thread(map, with_trace(cfg, "2d"), GpuApi::kCuda,
                            GpuMode::kPerLine2D),
      {"250s", "1.6x"});
  add(run_gpu_single_thread(map, with_trace(cfg, "batch32"), GpuApi::kCuda,
                            GpuMode::kBatched),
      {"8.9s", "45x"});
  add(run_gpu_single_thread(map, cfg, GpuApi::kOpenCl, GpuMode::kBatched),
      {"9.1s", "44x"});
  {
    ModeledConfig c = with_trace(cfg, "batch32_2buf");
    c.buffers_per_gpu = 2;
    add(run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched),
        {"5.98s", "67x"});
  }
  {
    ModeledConfig c = cfg;
    c.buffers_per_gpu = 4;
    add(run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched),
        {"5.4s", "74x"});
  }
  table.add_separator();
  {
    ModeledConfig c = cfg;
    c.devices = 2;
    c.buffers_per_gpu = 1;
    add(run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched),
        {"4.48s", "89x"});
  }
  {
    ModeledConfig c = cfg;
    c.devices = 2;
    c.buffers_per_gpu = 2;
    add(run_gpu_single_thread(map, with_trace(c, "batch32_2buf_2gpu"),
                              GpuApi::kCuda, GpuMode::kBatched),
        {"3.02s", "132x"});
    add(run_gpu_single_thread(map, with_trace(c, "opencl_batch32_2buf_2gpu"),
                              GpuApi::kOpenCl, GpuMode::kBatched),
        {"3.07s", "130x"});
  }

  // Adaptive rows: the AIMD sizer discovers the batch size and multi-GPU
  // dispatch goes least-loaded. The paper has no reference numbers for
  // these; the interesting comparison is against the hand-tuned static
  // rungs above (the sizer should land at or past the 32-line break-even).
  std::uint64_t adaptive_lines = 0;
  if (sched_mode == sched::SchedMode::kAdaptive) {
    table.add_separator();
    {
      ModeledConfig c = with_trace(cfg, "adaptive");
      c.sched = sched::SchedMode::kAdaptive;
      auto r = run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched);
      adaptive_lines = r.adaptive_batch_lines;
      add(r, {"-", "-"});
    }
    {
      ModeledConfig c = cfg;
      c.sched = sched::SchedMode::kAdaptive;
      c.buffers_per_gpu = 2;
      add(run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched),
          {"-", "-"});
    }
    {
      ModeledConfig c = cfg;
      c.sched = sched::SchedMode::kAdaptive;
      c.devices = 2;
      c.buffers_per_gpu = 1;
      add(run_gpu_single_thread(map, c, GpuApi::kCuda, GpuMode::kBatched),
          {"-", "-"});
    }
    {
      ModeledConfig c = cfg;
      c.sched = sched::SchedMode::kAdaptive;
      c.devices = 2;
      c.buffers_per_gpu = 2;
      add(run_gpu_single_thread(map, with_trace(c, "adaptive_2buf_2gpu"),
                                GpuApi::kCuda, GpuMode::kBatched),
          {"-", "-"});
      add(run_gpu_single_thread(
              map, with_trace(c, "opencl_adaptive_2buf_2gpu"), GpuApi::kOpenCl,
              GpuMode::kBatched),
          {"-", "-"});
    }
  }

  if (args.get_bool("csv", false)) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::cout << "\npaper columns: reported at dim=2000, niter=200000 on "
                 "2x Titan XP; modeled columns use the calibrated simulator "
                 "(DESIGN.md S2). Checksums of all variants verified equal.\n";
    if (sched_mode == sched::SchedMode::kAdaptive) {
      std::cout << "adaptive rows: AIMD batch sizer converged at "
                << adaptive_lines
                << " lines/batch (hand-tuned static value: "
                << cfg.batch_lines << "); multi-GPU dispatch least-loaded.\n";
    }
  }

  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"fig1_mandel_ladder\",\n";
    json << "  \"dim\": " << params.dim << ",\n";
    json << "  \"niter\": " << params.niter << ",\n";
    json << "  \"batch_lines\": " << cfg.batch_lines << ",\n";
    json << "  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& r = json_rows[i];
      json << "    {\"label\": \"" << r.label
           << "\", \"modeled_seconds\": " << r.modeled_seconds
           << ", \"speedup\": " << r.speedup
           << ", \"kernel_launches\": " << r.kernel_launches << "}"
           << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (Status s = write_file(json_path, json.str()); !s.ok()) {
      std::cerr << "[bench] " << s.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "[bench] json written to %s\n", json_path.c_str());
  }

  if (const std::string spec = args.get_string("faults", ""); !spec.empty()) {
    if (int rc = run_fault_demo(spec, params, sched_mode); rc != 0) return rc;
  }
  if (const auto outs = benchtool::telemetry_outputs(args); outs.active()) {
    if (int rc = run_telemetry_demo(outs, params, sched_mode); rc != 0) {
      return rc;
    }
  }

  // Cross-variant functional check: every rung rendered the same image,
  // and every requested trace was written.
  return mismatch || trace_failed ? 1 : 0;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
