// Modeled Mandelbrot Streaming variants — the engine behind Fig. 1/Fig. 4.
//
// Each runner executes the *real* algorithm structure of one of the paper's
// implementations — the same loops, batch shapes, stream round-robins,
// buffer-reuse synchronization, and pipeline topology — with pixels
// produced functionally from the IterationMap and durations charged to the
// modeled host workers (perfmodel) and simulated devices (gpusim). The
// returned modeled time is the makespan of that schedule.
//
// Every runner renders the full image and returns its checksum; all
// variants must agree bit-for-bit (asserted by tests and the benches).
//
// Each variant is one loop over a cluster::ClusterMachine
// (cluster/replay.hpp). The overloads without ClusterRunOptions run it on
// cluster::single_host with the GPUs the variant drives — the paper's
// machine — and trace to cfg.trace_path. With options, the topology and
// options.trace_path take the place of cfg.devices and cfg.trace_path, and
// stage instances sit on the nodes their placement names
// (Placement::node_of index):
//   pipeline / combined: [0]=source  [1]=sink/collector  [2+w]=worker w
//   sequential:          [0]=the one host thread
// An item crossing nodes pays a Fabric::send: a 64-byte descriptor to the
// worker, the rendered lines to the sink. Workers drive the GPUs of their
// own node.
//
// The CUDA and OpenCL paths share the scheduling code (the paper measured
// them within ~2% everywhere); they differ by the per-call API overhead
// charged and the reported label. The API shims themselves (cudax/oclx) are
// exercised by the real small-scale pipelines in mandel/pipelines.hpp and
// their tests.
#pragma once

#include <string>

#include "cluster/replay.hpp"
#include "gpusim/device.hpp"
#include "mandel/iteration_map.hpp"
#include "perfmodel/host_model.hpp"
#include "sched/sched.hpp"

namespace hs::mandel {

enum class CpuModel { kSpar, kTbb, kFastFlow };
enum class GpuApi { kCuda, kOpenCl };
enum class GpuMode {
  kPerLine1D,  ///< naive: one kernel per fractal line (paper's 3.1x)
  kPerLine2D,  ///< "2D of threads and blocks" (paper's 1.6x). The paper
               ///< does not specify its geometry; we model the classic 2D
               ///< indexing pitfall — a 16x16 block whose fastest-varying
               ///< thread dimension strides across columns, so each warp
               ///< samples columns spread over a 256-wide tile and loses
               ///< its divergence coherence (EXPERIMENTS.md note A)
  kBatched,    ///< Listing 2: batches of lines per kernel call
};

std::string_view cpu_model_name(CpuModel m);
std::string_view gpu_api_name(GpuApi a);

struct ModeledConfig {
  perfmodel::HostProfile host = perfmodel::HostProfile::I9_7900X();
  gpusim::DeviceSpec device_spec = gpusim::DeviceSpec::TitanXP();
  int devices = 1;
  int batch_lines = 32;     ///< lines per kernel call in kBatched mode
  int buffers_per_gpu = 1;  ///< "memory spaces": concurrent buffers/streams
  int cpu_workers = 19;     ///< middle-stage replicas, CPU-only versions
  int combined_workers = 10;  ///< middle-stage replicas, GPU-combined
  std::size_t tbb_tokens = 38;  ///< max_number_of_live_tokens

  // --- ablation knobs (DESIGN.md §4) ---
  gpusim::DivergenceModel divergence = gpusim::DivergenceModel::kMaxLane;
  bool copy_compute_overlap = true;

  /// kStatic reproduces the paper's schedules bit-for-bit (fixed
  /// batch_lines, batch->device round-robin). kAdaptive replaces the
  /// round-robin with least-loaded selection over the modeled completion
  /// times and grows the batch with sched::AimdBatchSizer until the
  /// measured per-line cost flattens (the occupancy break-even) or device
  /// memory rejects the allocation.
  sched::SchedMode sched = sched::SchedMode::kStatic;

  /// When set, the variant's modeled schedule is dumped as Chrome
  /// trace-event JSON (see des/trace_export.hpp) to this path.
  std::string trace_path;
};

/// Fabric fields (cluster::ClusterRunResult) are zero on one node.
struct RunResult : cluster::ClusterRunResult {
  std::string label;
  double modeled_seconds = 0;
  std::uint64_t checksum = 0;
  std::uint64_t kernel_launches = 0;  ///< summed over every node
  /// Compute busy / makespan of device 0 of the first node with a GPU.
  double gpu_compute_utilization = 0;
  /// Batch size the AIMD sizer converged to; 0 under SchedMode::kStatic.
  std::uint64_t adaptive_batch_lines = 0;
};

/// The sequential baseline (the paper's 400 s reference).
RunResult run_sequential(const IterationMap& map, const ModeledConfig& cfg);
RunResult run_sequential(const IterationMap& map, const ModeledConfig& cfg,
                         const cluster::ClusterRunOptions& options);

/// CPU-only pipeline: source -> replicated compute stage -> ordered sink.
/// kTbb additionally applies the live-token cap and steal-style (earliest
/// worker) scheduling; kSpar/kFastFlow use round-robin.
RunResult run_cpu_pipeline(const IterationMap& map, const ModeledConfig& cfg,
                           CpuModel model);
RunResult run_cpu_pipeline(const IterationMap& map, const ModeledConfig& cfg,
                           CpuModel model,
                           const cluster::ClusterRunOptions& options);

/// Single-host-thread GPU version (the paper's CUDA/OpenCL-only bars).
RunResult run_gpu_single_thread(const IterationMap& map,
                                const ModeledConfig& cfg, GpuApi api,
                                GpuMode mode);

/// Multicore pipeline with GPU offload in the replicated middle stage
/// (SPar/TBB/FastFlow x CUDA/OpenCL): workers own per-item streams, issue
/// async copies, and the collector synchronizes — the paper's Fig. 4
/// combined versions.
RunResult run_combined(const IterationMap& map, const ModeledConfig& cfg,
                       CpuModel model, GpuApi api);
RunResult run_combined(const IterationMap& map, const ModeledConfig& cfg,
                       CpuModel model, GpuApi api,
                       const cluster::ClusterRunOptions& options);

}  // namespace hs::mandel
