// Functional Dedup pipeline variants. All compose the stage functions of
// stages.hpp, so every variant emits a bit-identical archive; the GPU
// variants execute their hashing and FindMatch stages as simulated-GPU
// kernels through the cudax/oclx shims (real data flows through simulated
// device memory).
//
// The figure bench (Fig. 5) uses the modeled runners in dedup/modeled.hpp;
// these functional pipelines are the user-facing implementations (see
// examples/dedup_file.cpp) and the equivalence/roundtrip test subjects.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "dedup/container.hpp"
#include "dedup/dup_store.hpp"
#include "flow/pipeline.hpp"
#include "gpusim/device.hpp"
#include "sched/sched.hpp"

namespace hs::spar {
class CudaDevice;
}  // namespace hs::spar

namespace hs::dedup {

/// Sequential reference: all five stages in a loop. With `store` non-null,
/// every block digest is also recorded into the persistent DupStore as it
/// is hashed (store_hit telemetry; see dup_store.hpp) — the archive bytes
/// are identical with or without a store attached.
Result<std::vector<std::uint8_t>> archive_sequential(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    DupStore* store);
inline Result<std::vector<std::uint8_t>> archive_sequential(
    std::span<const std::uint8_t> input, const DedupConfig& config) {
  return archive_sequential(input, config, nullptr);
}

/// Knobs for the SPar CPU pipeline's replicated hot stages. The hash and
/// compress stages always lower to farms (emitter/workers/collector), so
/// their scheduling and queue telemetry keep the same shape at any worker
/// count; the two farms are sized independently because their per-batch
/// costs differ by an order of magnitude (SHA-1 vs LZSS match search).
struct SparCpuOptions {
  int workers_hash = 1;      ///< SHA-1 farm replicas
  int workers_compress = 1;  ///< LZSS farm replicas
  /// Keep the hash farm ordered (the default). When false the farm's
  /// collector forwards batches in hash-completion order and its emitter
  /// schedules least-loaded, so a slow worker never head-of-line-blocks
  /// the others; the serial duplicate-check stage then restores stream
  /// order with a reorder buffer (the container format numbers unique
  /// blocks in stream order), so the archive is byte-identical to the
  /// sequential reference either way.
  bool hash_ordered = true;
  /// Core affinity for every runtime thread of the lowered pipeline.
  flow::PinPolicy pin;
  /// Optional persistent content store: when set, every hash worker
  /// record()s its block digests concurrently (the store is lock-striped
  /// for exactly this). Telemetry only — archive bytes are unchanged.
  DupStore* store = nullptr;
};

/// SPar CPU pipeline: source -> farm(SHA-1) -> serial duplicate check ->
/// farm(LZSS) -> writer (Fig. 3 graph on the CPU).
Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    const SparCpuOptions& options);

/// Back-compat form: both farms sized to `replicas`, ordered, unpinned.
Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas);

/// SPar + CUDA-shim pipeline: the hashing and FindMatch stages are
/// generated SPar GPU stages (spar::gpu_stage) offloading to the simulated
/// GPUs — the Fig. 3 graph as implemented in the paper. Replica r starts on
/// device r % devices with its own stream. `machine` must be bound to cudax
/// by the caller.
///
/// Fault tolerance is the device ladder's (sched/ladder.hpp): transient
/// device errors retry under `policy`; a lost device is excluded and
/// workers migrate to a survivor or run the equivalent CPU stage
/// (hash_blocks / compress_blocks_cpu), so the archive is bit-identical
/// under any injected fault sequence. Pass `stats` for per-attempt
/// telemetry (null to skip).
///
/// With `tracker` set (sched::SchedMode::kAdaptive) the static binding is
/// replaced by least-loaded selection with idle-device stealing; lost
/// devices are excluded tracker-wide so their queued batches drain through
/// the survivors. The archive bytes are identical either way.
/// With `failures` set, the region's full per-stage failure report is
/// copied out after the run (empty on clean runs) — callers can flag
/// unrecovered stage failures even when a partial archive was produced.
Result<std::vector<std::uint8_t>> archive_spar_cuda(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas, gpusim::Machine& machine, RetryStats* stats = nullptr,
    const RetryPolicy& policy = {},
    sched::DeviceLoadTracker* tracker = nullptr,
    flow::FailureReport* failures = nullptr);

/// Stage 2 as one device pass on a bound CUDA device: upload the batch,
/// hash one block per thread (sha1_lane), download the digests into the
/// blocks. Idempotent; the hashing stage of archive_spar_cuda and serve's
/// dedup jobs both run it.
Status hash_blocks_cuda(spar::CudaDevice& dev, Batch& batch);

/// Single-host-thread OpenCL-shim version. `batched_kernel` selects the
/// paper's optimized single FindMatch kernel per batch (true) or the
/// pre-optimization one-kernel-per-block form (false); outputs are
/// identical either way.
Result<std::vector<std::uint8_t>> archive_opencl_single_thread(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    gpusim::Machine& machine, bool batched_kernel);

}  // namespace hs::dedup
