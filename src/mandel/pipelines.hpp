// Real, functional Mandelbrot Streaming pipelines over the actual runtimes
// (flow / taskx / spar) and API shims (cudax / oclx), computing the fractal
// with the true per-pixel math. These are the implementations a user of
// the library runs (see examples/); the figure benches use the modeled
// runners in mandel/modeled.hpp instead, which replay the same structures
// at paper scale.
//
// All functions return the rendered dim*dim grayscale image; every variant
// must produce identical bytes (tests assert this).
#pragma once

#include <cstdint>
#include <vector>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "flow/pipeline.hpp"
#include "gpusim/device.hpp"
#include "kernels/mandel.hpp"
#include "sched/sched.hpp"

namespace hs::mandel {

using kernels::MandelParams;

/// Plain sequential rendering (the paper's baseline).
std::vector<std::uint8_t> render_sequential(const MandelParams& params);

/// FastFlow-equivalent: pipeline(source, farm(worker x N, ordered), sink).
Result<std::vector<std::uint8_t>> render_flow(const MandelParams& params,
                                              int workers);

/// TBB-equivalent: token pipeline with a parallel compute filter and a
/// serial-in-order display filter.
Result<std::vector<std::uint8_t>> render_taskx(const MandelParams& params,
                                               int workers,
                                               std::size_t max_tokens);

/// SPar-equivalent: the Listing 1 annotation structure.
Result<std::vector<std::uint8_t>> render_spar(const MandelParams& params,
                                              int workers);

/// SPar pipeline whose replicated middle stage offloads each line to a
/// simulated GPU through the CUDA shim: the generated SPar GPU stage
/// (spar::gpu_stage) with a per-line pass of three device calls (launch,
/// D2H copy, stream sync). Replica r starts on device r % devices with its
/// own stream (per-thread cudaSetDevice, the paper's multi-GPU scheme).
/// `machine` must stay bound to cudax for the duration.
///
/// Fault tolerance is the device ladder's (sched/ladder.hpp): transient
/// device errors (failed copies/launches, allocation pressure) are retried
/// under `policy`; a lost device is excluded and its worker migrates to a
/// surviving device or — when none remain — to the bit-exact CPU kernel, so
/// the rendered image is identical under any injected fault sequence. Pass
/// `stats` to collect per-attempt telemetry (may be shared across calls;
/// null to skip). With `tracker` set (sched::SchedMode::kAdaptive), the
/// static binding is replaced by least-loaded device selection with
/// idle-device stealing: service times feed the tracker's EWMA, a lost
/// device is excluded for every worker, and a worker that moves frees what
/// it left on the old device. The rendered image is identical either way.
/// With `failures` set, the region's full per-stage failure report is
/// copied out after the run (empty on clean runs) — callers can flag
/// unrecovered stage failures even when a full image was produced.
Result<std::vector<std::uint8_t>> render_spar_cuda(
    const MandelParams& params, int workers, gpusim::Machine& machine,
    RetryStats* stats = nullptr, const RetryPolicy& policy = {},
    sched::DeviceLoadTracker* tracker = nullptr,
    flow::FailureReport* failures = nullptr);

/// Single-host-thread OpenCL version with line batches (Listing 2 port per
/// §IV-A), exercising platform discovery, buffers, queues and events.
Result<std::vector<std::uint8_t>> render_opencl_batched(
    const MandelParams& params, gpusim::Machine& machine, int batch_lines);

}  // namespace hs::mandel
