// Job requests and the per-worker execution engine of the serve layer.
//
// A job is a self-contained unit of pipeline work (one small Mandelbrot
// frame, or one dedup-archive pass over a payload) that a farm worker
// executes end to end. The engine runs the degradation ladder per job:
//
//   breaker-gated device choice -> jittered retries -> device migration
//   -> bit-exact CPU fallback
//
// Both paths of each job kind produce the identical checksum, so a result
// is valid regardless of which rung computed it — the ladder only affects
// latency, never bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "dedup/types.hpp"
#include "gpusim/device.hpp"
#include "kernels/mandel.hpp"
#include "sched/sched.hpp"
#include "serve/breaker.hpp"

namespace hs::serve {

enum class JobKind : std::uint8_t {
  kMandel = 0,
  kDedup = 1,
  /// Fixed-duration job: the worker blocks wall-clock for `synthetic_ns`
  /// and produces no output. Models work bound on an external resource
  /// (remote accelerator, storage, downstream service), so farm capacity is
  /// exactly workers / duration regardless of host core count — the load
  /// shape elasticity harnesses need to measure worker scaling on any
  /// machine. Skips the GPU ladder entirely.
  kSynthetic = 2,
};

/// One unit of work a tenant submits. `deadline_budget_ns` is relative to
/// submission (0 = use the service default; the service may still leave the
/// job deadline-free).
struct JobRequest {
  JobKind kind = JobKind::kMandel;
  kernels::MandelParams mandel;           ///< kMandel: frame to render
  std::vector<std::uint8_t> payload;      ///< kDedup: bytes to archive
  dedup::DedupConfig dedup;               ///< kDedup: fragmentation config
  std::uint64_t synthetic_ns = 0;         ///< kSynthetic: blocking duration
  std::uint64_t deadline_budget_ns = 0;
};

struct JobResult {
  Status status;
  std::uint64_t checksum = 0;      ///< path-independent output fingerprint
  std::uint64_t output_bytes = 0;  ///< rendered pixels / compressed bytes
  bool cpu_path = false;           ///< final rung computed the result
  bool deadline_missed = false;    ///< set by the service sink
  std::uint64_t latency_ns = 0;    ///< submit -> completion (service sink)
  int device = -1;                 ///< device that computed it (-1 = CPU)
};

/// Per-worker-replica executor. Not thread-safe; each farm worker owns one.
/// The breaker board, tracker and retry stats are shared across replicas.
class JobEngine {
 public:
  JobEngine(gpusim::Machine* machine, BreakerBoard* breakers,
            sched::DeviceLoadTracker* tracker, RetryPolicy policy,
            RetryStats* stats, int replica_id);

  /// Executes one job through the full ladder. Always returns a usable
  /// result: the CPU rung cannot fail.
  JobResult run(const JobRequest& req);

 private:
  /// Picks a breaker-admitted, surviving device (tracker-charged in
  /// adaptive mode). Returns -1 when every device is lost or open.
  int pick_device();
  /// One whole-job GPU pass on `device`; idempotent, safe to retry.
  Status gpu_once(int device, const JobRequest& req, JobResult& result);
  Status mandel_once(int device, const JobRequest& req, JobResult& result);
  Status dedup_once(int device, const JobRequest& req, JobResult& result);
  void run_cpu(const JobRequest& req, JobResult& result);

  gpusim::Machine* machine_;
  BreakerBoard* breakers_;
  sched::DeviceLoadTracker* tracker_;  ///< null = static replica binding
  RetryPolicy policy_;
  RetryStats* stats_;
  int replica_ = 0;
  int prev_device_ = -1;  ///< sticky routing hint
  BackoffSequence backoff_;
  std::vector<std::uint8_t> image_;     ///< reused mandel frame buffer
  std::vector<std::uint8_t> digests_;   ///< reused dedup digest staging
};

/// FNV-1a over a dedup job's per-block results (digest bytes, duplicate
/// flag, global id). Identical for the GPU and CPU hash paths by
/// construction, so it fingerprints the archive independent of the rung.
std::uint64_t dedup_job_checksum(const std::vector<dedup::Batch>& batches);

}  // namespace hs::serve
