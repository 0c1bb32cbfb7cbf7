// Long-running multi-tenant job service over the stream runtime.
//
// The service wraps the dedup and mandel pipelines behind named job
// submission: tenants submit() JobRequests into bounded per-tenant queues;
// a persistent flow::Pipeline (source -> worker farm -> sink) drains them.
// Overload protection is layered (paper §V's "the runtime must not fall
// over when the offered load exceeds the service rate"):
//
//   * admission control — a full tenant queue, a queue-depth watermark, or
//     the observed p99 latency crossing its budget sheds new work at
//     submit() with an explicit Rejected{kOverload} (counted in
//     "<prefix>.shed") instead of queueing it into a latency cliff;
//   * deadline budgets — accepted jobs carry an absolute deadline through
//     the pipeline; the flow runtime drops expired work at stage
//     boundaries (it never occupies a GPU slot) and the sink completes the
//     ticket as a miss ("<prefix>.deadline_miss");
//   * circuit breakers + jittered retries — per-device breakers gate the
//     JobEngine's device choice, with capped-exponential decorrelated
//     jitter between retry attempts (common/retry.hpp);
//   * per-tenant quotas — hard caps on one tenant's queued and in-flight
//     jobs, rejected with Rejected{kQuota} (counted in
//     "<prefix>.tenant.<name>.quota_rejects") so a single hot tenant
//     cannot monopolize the farm however much global capacity remains;
//   * elastic workers — when ServiceConfig::scale is enabled the farm is
//     provisioned at scale.max_workers and a controller thread grows and
//     shrinks the fed-worker count with the backlog (serve/scale.hpp);
//     "<prefix>.workers" gauges the current count and every resize bumps
//     "<prefix>.scale_up"/"<prefix>.scale_down" and records a span.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "sched/breaker.hpp"
#include "sched/sched.hpp"
#include "serve/jobs.hpp"
#include "serve/scale.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::serve {

/// Why a submission was not accepted.
enum class RejectCode : std::uint8_t {
  kOverload,      ///< shed: queue full / watermark / p99 over budget
  kShuttingDown,  ///< service is stopped or draining
  kQuota,         ///< tenant exceeded its queued or in-flight quota
};

std::string_view reject_code_name(RejectCode code);

struct Rejected {
  RejectCode code = RejectCode::kOverload;
  std::string detail;
};

/// Outcome of submit(). Accepted jobs optionally carry a future the caller
/// can wait on; rejected ones say why.
struct SubmitResult {
  std::optional<Rejected> rejected;
  std::uint64_t job_id = 0;
  std::future<JobResult> result;  ///< valid when accepted with want_result

  [[nodiscard]] bool accepted() const { return !rejected.has_value(); }
};

struct ServiceConfig {
  int workers = 4;
  /// Elastic worker scaling (serve/scale.hpp). Disabled by default; when
  /// scale.enabled() the farm is provisioned at scale.max_workers, starts
  /// with `workers` fed (clamped into [min, max]) and a controller thread
  /// resizes it with the backlog.
  ScalePolicy scale;
  /// Per-tenant quota on *queued* jobs (0 = unlimited). Checked before the
  /// shared queue-capacity/watermark sheds; rejections are kQuota, not
  /// kOverload, so callers can tell "you are over your share" from "the
  /// service is full".
  std::size_t tenant_quota_queued = 0;
  /// Per-tenant quota on jobs accepted but not yet completed (queued +
  /// executing). 0 = unlimited.
  std::size_t tenant_quota_inflight = 0;
  /// Bounded per-tenant queue: submissions beyond this are shed.
  std::size_t tenant_queue_capacity = 64;
  /// Soft admission watermark as a fraction of tenant_queue_capacity; a
  /// tenant whose backlog reaches it sheds even though space remains, so
  /// accepted jobs keep a bounded wait. >= 1.0 disables the soft shed.
  double shed_watermark = 0.75;
  /// Weighted round-robin over the tenant queues: the drain loop serves up
  /// to `weight` consecutive jobs from a tenant before advancing to the
  /// next non-empty queue. Unlisted tenants (and weights < 1) get weight 1,
  /// which reduces WRR to the plain round-robin rotation — a service with
  /// no weights configured drains byte-identically to one predating them.
  /// Each tenant's effective weight is exported as the
  /// "<prefix>.tenant.<name>.weight" gauge.
  std::map<std::string, int, std::less<>> tenant_weights;
  /// Shed everything while the observed completion p99 exceeds this budget
  /// (re-evaluated every admission_refresh submissions). 0 disables.
  std::uint64_t p99_shed_budget_ns = 0;
  int admission_refresh = 64;
  /// Deadline budget armed at submission for requests that do not carry
  /// their own. 0 = no deadline.
  std::uint64_t default_deadline_ns = 0;
  sched::SchedMode sched = sched::SchedMode::kStatic;
  RetryPolicy retry;
  sched::BreakerConfig breaker;
  /// flow queue capacity between source/farm/sink.
  std::size_t queue_capacity = 256;
  /// Telemetry sinks (null = uninstrumented). Metric names use `prefix`;
  /// besides the aggregate counters, each tenant gets a lazily-registered
  /// "<prefix>.tenant.<name>.{accepted,shed,deadline_miss,quota_rejects}"
  /// slice plus a "<prefix>.tenant.<name>.weight" gauge.
  telemetry::Registry* registry = nullptr;
  telemetry::SpanRecorder* spans = nullptr;
  telemetry::QueueDepthSampler* sampler = nullptr;
  std::string prefix = "serve";
};

/// Aggregate service counters (all monotonic since start()).
namespace detail {
struct ServiceImpl;
}  // namespace detail

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t quota_rejects = 0;   ///< Rejected{kQuota} submissions
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;       ///< accepted but resolved by stop()
  std::uint64_t deadline_miss = 0;
  std::uint64_t cpu_jobs = 0;        ///< jobs finished on the CPU rung
  std::uint64_t breaker_trips = 0;
  int breakers_open = 0;             ///< currently open (not half-open)
  int workers_active = 0;            ///< fed workers right now
  std::uint64_t scale_ups = 0;       ///< grow resizes since start()
  std::uint64_t scale_downs = 0;     ///< shrink resizes since start()
};

/// The service. Thread-safe submit(); start()/stop() from one owner thread.
class Service {
 public:
  /// `machine` may be null (CPU-only service). The config's telemetry
  /// sinks, machine and registry must outlive the service.
  explicit Service(gpusim::Machine* machine, ServiceConfig config = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawns the pipeline. Fails if already started.
  Status start();

  /// Drains accepted work, stops the pipeline and joins it. Idempotent.
  /// Returns the pipeline's run status.
  Status stop();

  /// Admission-controlled enqueue for `tenant`. With want_result=false the
  /// ticket completes without promise machinery (open-loop load drivers).
  SubmitResult submit(std::string_view tenant, JobRequest request,
                      bool want_result = true);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const RetryStats& retry_stats() const;
  [[nodiscard]] sched::BreakerBoard& breakers();
  /// Latency histogram snapshot of completed jobs ("<prefix>.latency_ns").
  [[nodiscard]] telemetry::HistogramSnapshot latency() const;
  /// Jobs currently queued across all tenants.
  [[nodiscard]] std::size_t backlog() const;
  /// Per-stage failure summary of the run ("" while running or when clean);
  /// meaningful after stop().
  [[nodiscard]] std::string failure_summary() const;

 private:
  std::unique_ptr<detail::ServiceImpl> impl_;
};

}  // namespace hs::serve
