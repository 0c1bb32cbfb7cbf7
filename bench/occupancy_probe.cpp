// §IV-A occupancy analysis: "we need to process 30.7 lines on each kernel
// call" to fill the Titan XP's 61,440 resident threads.
//
// Sweeps the lines-per-kernel batch size and reports modeled time, kernel
// launches, and device compute utilization, locating the break-even where
// larger batches stop helping. Also exposes the DESIGN.md ablations:
//   --model=sum    lane-sum divergence model instead of warp-max
//   --no-overlap   copies share the compute engine (no copy/compute overlap)
//
// Flags: --quick | --dim=N --niter=N | --batches=1,2,4,... | --csv
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "mandel/calibrate.hpp"
#include "mandel/modeled.hpp"

namespace hs {
namespace {

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << args_or.status().ToString() << "\n";
    return 1;
  }
  const CliArgs& args = args_or.value();
  kernels::MandelParams params = benchtool::mandel_workload(args);
  mandel::IterationMap map = benchtool::load_map(args, params);

  std::vector<int> batches;
  {
    std::stringstream ss(args.get_string("batches", "1,2,4,8,16,24,31,32,48,64"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      if (const int v = parse_int<int>(tok).value_or(0); v > 0) {
        batches.push_back(v);
      }
    }
  }
  const bool sum_model = args.get_string("model", "max") == "sum";
  const bool no_overlap = args.get_bool("no-overlap", false) ||
                          !args.get_bool("overlap", true);

  // The resident-thread arithmetic from the paper.
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::TitanXP();
  const std::uint64_t resident =
      static_cast<std::uint64_t>(spec.sm_count) * spec.max_threads_per_sm;
  std::cout << "device: " << spec.name << ", " << spec.sm_count << " SMs x "
            << spec.max_threads_per_sm << " resident threads = " << resident
            << " device-wide\n";
  std::cout << "lines of " << params.dim
            << " pixels to fill the device: " << format_fixed(
                   static_cast<double>(resident) / params.dim, 1)
            << " (the paper's 30.7 at dim=2000)\n";
  if (sum_model) std::cout << "[ablation] divergence model: lane-sum\n";
  if (no_overlap) std::cout << "[ablation] copy/compute overlap disabled\n";
  std::cout << "\n";

  Table table("Occupancy probe — lines per kernel call sweep");
  table.set_header({"batch lines", "modeled time", "speedup vs batch=1",
                    "kernel launches", "compute engine busy"});

  double base = 0;
  for (int batch : batches) {
    mandel::ModeledConfig cfg;
    if (args.get_bool("calibrate", true)) {
      cfg = mandel::calibrate_to_paper(map, {}, cfg);
    }
    cfg.batch_lines = batch;
    cfg.buffers_per_gpu = 2;
    if (sum_model) cfg.divergence = gpusim::DivergenceModel::kSumLane;
    cfg.copy_compute_overlap = !no_overlap;
    mandel::RunResult r = run_gpu_single_thread(
        map, cfg, mandel::GpuApi::kCuda, mandel::GpuMode::kBatched);
    if (base == 0) base = r.modeled_seconds;
    table.add_row({std::to_string(batch), format_seconds(r.modeled_seconds),
                   benchtool::speedup_cell(base, r.modeled_seconds),
                   std::to_string(r.kernel_launches),
                   format_fixed(r.gpu_compute_utilization * 100, 0) + "%"});
  }

  if (args.get_bool("csv", false)) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
  }
  return 0;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
