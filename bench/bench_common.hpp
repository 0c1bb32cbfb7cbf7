// Shared helpers for the figure benches: workload scaling flags, the
// iteration-map cache, and paper-reference reporting.
#pragma once

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "cudax/cudax.hpp"
#include "mandel/iteration_map.hpp"
#include "telemetry/queue_sampler.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::benchtool {

/// Resolves the Mandelbrot workload from flags:
///   --paper-scale        dim=2000 niter=200000 (the paper's workload;
///                        first run computes ~1.3e11 iterations and caches
///                        the map on disk, later runs load it instantly)
///   --dim=N --niter=N    explicit values
///   --quick              dim=400 niter=5000
/// Default: dim=800 niter=30000 (about 10 s of one-time map compute).
inline kernels::MandelParams mandel_workload(const CliArgs& args) {
  kernels::MandelParams p;
  if (args.get_bool("paper-scale", false)) {
    p.dim = 2000;
    p.niter = 200000;
  } else if (args.get_bool("quick", false)) {
    p.dim = 400;
    p.niter = 5000;
  } else {
    p.dim = 800;
    p.niter = 30000;
  }
  p.dim = static_cast<int>(args.get_int("dim", p.dim));
  p.niter = static_cast<int>(args.get_int("niter", p.niter));
  return p;
}

/// Loads or computes (and caches) the iteration map under --map-cache
/// (default: ./.cache).
inline mandel::IterationMap load_map(const CliArgs& args,
                                     const kernels::MandelParams& params) {
  std::string dir = args.get_string("map-cache", ".cache");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/mandel_map_" + std::to_string(params.dim) +
                     "_" + std::to_string(params.niter) + ".bin";
  std::fprintf(stderr,
               "[bench] mandel workload dim=%d niter=%d (map cache: %s)\n",
               params.dim, params.niter, path.c_str());
  auto map = mandel::IterationMap::load_or_compute(path, params);
  if (!map.ok()) {
    std::fprintf(stderr, "[bench] map error: %s\n",
                 map.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(map).value();
}

/// "12.3x" speedup cell.
inline std::string speedup_cell(double baseline_seconds, double seconds) {
  if (seconds <= 0) return "-";
  return format_fixed(baseline_seconds / seconds, 1) + "x";
}

/// --trace=FILE / --metrics=FILE output destinations for the telemetry
/// demo runs (a *real* functional pipeline executed under the process-wide
/// telemetry singletons, as opposed to the modeled tables).
struct TelemetryOutputs {
  std::string trace_path;    ///< Chrome trace-event JSON (ui.perfetto.dev)
  std::string metrics_path;  ///< .json -> JSON, else Prometheus exposition
  [[nodiscard]] bool active() const {
    return !trace_path.empty() || !metrics_path.empty();
  }
};

inline TelemetryOutputs telemetry_outputs(const CliArgs& args) {
  return {args.get_string("trace", ""), args.get_string("metrics", "")};
}

/// Turns the process-wide telemetry on for a capture run: metrics registry,
/// pool gauges, queue-depth sampler, and (when a trace is requested) the
/// span recorder. Pair with end_telemetry_capture.
inline void begin_telemetry_capture(const TelemetryOutputs& outs) {
  telemetry::set_enabled(true);
  telemetry::register_buffer_pool_gauges(telemetry::Registry::Default(),
                                         BufferPool::Default(), "buffer_pool");
  telemetry::register_buffer_pool_gauges(telemetry::Registry::Default(),
                                         cudax::pinned_pool(), "pinned_pool");
  if (!outs.trace_path.empty()) {
    telemetry::SpanRecorder::Default().set_recording(true);
  }
  (void)telemetry::QueueDepthSampler::Default().start(
      std::chrono::microseconds(200));
}

/// Stops capture and writes the requested files. Returns 0 on success.
inline int end_telemetry_capture(const TelemetryOutputs& outs) {
  telemetry::QueueDepthSampler::Default().stop();
  telemetry::SpanRecorder::Default().set_recording(false);
  telemetry::set_enabled(false);
  int rc = 0;
  if (!outs.trace_path.empty()) {
    Status s = telemetry::SpanRecorder::Default().write_chrome_trace(
        outs.trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "[bench] trace write failed: %s\n",
                   s.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "[bench] chrome trace written to %s\n",
                   outs.trace_path.c_str());
    }
  }
  if (!outs.metrics_path.empty()) {
    Status s = telemetry::Registry::Default().write_metrics(outs.metrics_path);
    if (!s.ok()) {
      std::fprintf(stderr, "[bench] metrics write failed: %s\n",
                   s.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "[bench] metrics written to %s\n",
                   outs.metrics_path.c_str());
    }
  }
  return rc;
}

}  // namespace hs::benchtool
