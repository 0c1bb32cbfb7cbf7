// Pipeline + farm runtime — the FastFlow-equivalent substrate (paper §III-A).
//
// A Pipeline is a linear chain of stages; each plain stage runs on its own
// thread, connected by bounded lock-free SPSC queues. A stage may instead be
// a Farm: an implicit emitter thread distributing items to N replicated
// worker threads and an implicit collector thread merging (optionally
// reordering) their outputs — exactly the structure SPar generates for
// [[spar::Stage, spar::Replicate(n)]] regions.
//
//   source -> [emitter -> w0..wN -> collector] -> ... -> sink
//
// End-of-stream is a sentinel envelope broadcast through every branch; the
// collector forwards it once all workers have finished.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "flow/node.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::flow {

/// How queue waits behave when empty/full.
enum class WaitMode : std::uint8_t {
  kBackoff,   ///< escalate to short sleeps (the default; frees the core)
  kBlocking,  ///< park on a condition variable (FastFlow's blocking mode:
              ///< lowest CPU use, highest wakeup latency)
};

/// How an emitter assigns items to farm workers.
enum class SchedPolicy : std::uint8_t {
  kRoundRobin,   ///< strict rotation (FastFlow default scheduling)
  kLeastLoaded,  ///< worker with the shallowest queue: routing follows each
                 ///< worker's actual drain rate, so a slow worker sitting on
                 ///< a deep queue is never fed while an idle sibling starves.
};

struct PipelineOptions {
  std::size_t queue_capacity = 512;
  WaitMode wait_mode = WaitMode::kBackoff;
  /// Stage-stall watchdog: when > 0 and no runtime thread makes progress
  /// (queue traffic or completed svc calls) for this many seconds while the
  /// stream is still live, the run aborts with kAborted naming the stuck
  /// stage instead of hanging run_and_wait() forever. A thread still wedged
  /// inside svc() when run_and_wait() returns is reaped by the Pipeline
  /// destructor: it gets one more grace period to observe the abort and is
  /// joined if it unwinds in time. Node callables that capture references
  /// to caller state must therefore be declared *after* that state, so the
  /// Pipeline (and its reaper) is destroyed first. A thread that is still
  /// wedged after the grace period is detached — the runtime's own shared
  /// state stays alive until it unwinds, but any captured caller state it
  /// touches afterwards must outlive the process. 0 disables the watchdog
  /// (the default).
  double stall_timeout_seconds = 0.0;
  /// Telemetry sinks for this run. When left inactive the pipeline falls
  /// back to telemetry::default_instrumentation() — i.e. the process-wide
  /// registry/recorder/sampler singletons, but only while
  /// telemetry::set_enabled(true) is in effect; otherwise the run is not
  /// instrumented and each hook costs one branch. Per node stage the run
  /// records "<prefix>.<stage>.svc_ns" (histogram), "<prefix>.<stage>.items"
  /// (counter), a span per svc() call on the stage's thread, plus
  /// "<prefix>.queue_full" (pushes that found a queue full),
  /// "<prefix>.deadline_drops" (items whose deadline budget expired at a
  /// stage boundary — see Item::set_deadline_ns),
  /// "<prefix>.watchdog_aborts" / "<prefix>.stragglers_detached", and
  /// registers every channel with the sampler as "<prefix>.<queue>". The
  /// supplied registry/recorder/sampler must outlive the Pipeline.
  telemetry::StreamInstrumentation telemetry;
  /// Opt-in core affinity: every runtime thread (stages, emitters, workers,
  /// collectors) is pinned to one core chosen round-robin in thread-launch
  /// order, core(i) = i mod hardware_concurrency. When the run is
  /// instrumented each thread's core is the "<prefix>.<unit>.pinned_cpu"
  /// gauge. Best-effort: where pthread_setaffinity_np is missing or fails
  /// the thread runs unpinned and its gauge reads -1.
  bool pin = false;
};

/// Runtime resize handle for an elastic farm. The farm is *provisioned* at
/// FarmOptions::replicas workers (threads and channels exist for the whole
/// run), and the controller bounds how many of them the emitter feeds:
/// workers [0, active) receive items, the rest idle on empty queues in the
/// run's wait mode (backoff/blocking parks them off-CPU). Resizing is a
/// single relaxed atomic store — O(1), lock-free, safe from any thread while
/// the pipeline runs — and takes effect on the emitter's next routing
/// decision. In-flight items on a deactivated worker's queue still drain
/// (the collector keeps merging every replica), so shrink never strands or
/// reorders accepted work. Caller-owned: must outlive the run.
class FarmController {
 public:
  FarmController() = default;

  /// Sets the number of fed workers, clamped to [1, replicas] once the
  /// controller is bound to a farm (add_farm); before binding the value is
  /// only floored at 1.
  void set_active(int n) {
    const int max = replicas_.load(std::memory_order_relaxed);
    if (n < 1) n = 1;
    if (max > 0 && n > max) n = max;
    active_.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] int active() const {
    return active_.load(std::memory_order_relaxed);
  }
  /// Provisioned worker count (0 until bound to a farm).
  [[nodiscard]] int replicas() const {
    return replicas_.load(std::memory_order_relaxed);
  }

 private:
  friend class Pipeline;
  void bind(int replicas) {
    replicas_.store(replicas, std::memory_order_relaxed);
    int a = active_.load(std::memory_order_relaxed);
    if (a > replicas) active_.store(replicas, std::memory_order_relaxed);
  }

  std::atomic<int> active_{1 << 20};  ///< "all provisioned" until set
  std::atomic<int> replicas_{0};
};

struct FarmOptions {
  int replicas = 1;
  bool ordered = false;  ///< collector restores emission order
  SchedPolicy policy = SchedPolicy::kRoundRobin;
  /// Optional elastic-resize handle (see FarmController). Null = fixed farm.
  /// Bound to this farm's replica count by add_farm().
  FarmController* controller = nullptr;
};

/// One stage's failure during a run (exception escaping svc(), or the
/// watchdog naming a stalled stage).
struct StageFailure {
  std::string stage;
  Status status;
};

/// Structured per-stage failure record for a run. Replaces "first stage
/// error wins": every failing stage is recorded in the order the runtime
/// observed the failures; the first one is what run_and_wait() returns.
struct FailureReport {
  std::vector<StageFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] Status first() const {
    return failures.empty() ? OkStatus() : failures.front().status;
  }
  /// "stage-a: INTERNAL: ...; stage-b: ABORTED: ..." (empty when ok).
  [[nodiscard]] std::string ToString() const;
};

/// A runnable stream graph. Build with add_stage()/add_farm() in pipeline
/// order (first stage = source, last = sink), then run_and_wait().
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Appends a sequential stage. `name` labels its metrics, spans and
  /// failures.
  void add_stage(std::unique_ptr<Node> node, std::string name = "stage");

  /// Appends a farm of `options.replicas` workers built by `worker_factory`
  /// (one call per replica; replica id passed to Node::on_init).
  void add_farm(std::function<std::unique_ptr<Node>()> worker_factory,
                FarmOptions options, std::string name = "farm");

  /// Runs the whole graph and blocks until end-of-stream has flushed
  /// through the sink. Returns the first stage error (an exception thrown
  /// from svc(), or a watchdog abort) or a validation error; OK otherwise.
  /// The full per-stage picture is in failure_report(). Single-shot.
  Status run_and_wait();

  /// Every stage failure of the run, in observation order; valid after
  /// run_and_wait() (empty on success).
  [[nodiscard]] const FailureReport& failure_report() const;

  /// Total number of runtime threads the current graph will spawn.
  [[nodiscard]] int thread_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hs::flow
