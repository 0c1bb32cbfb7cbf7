// Pipeline + farm runtime — the FastFlow-equivalent substrate (paper §III-A).
//
// A Pipeline is a linear chain of stages; each plain stage runs on its own
// thread, connected by bounded lock-free SPSC queues. A stage may instead be
// a Farm: an implicit emitter thread dealing items round-robin to N
// replicated worker threads and an implicit collector thread merging their
// outputs back into emission order — exactly the structure SPar generates
// for [[spar::Stage, spar::Replicate(n)]] regions (FastFlow's ordered farm).
// Every wait on an empty or full queue parks the thread on the channel's
// condition variable.
//
//   source -> [emitter -> w0..wN -> collector] -> ... -> sink
//
// End-of-stream is a sentinel envelope broadcast through every branch; the
// collector forwards it once all workers have finished.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "flow/node.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::flow {

struct PipelineOptions {
  std::size_t queue_capacity = 512;
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

  /// Appends an ordered farm of `replicas` workers built by
  /// `worker_factory` (one call per replica; replica id passed to
  /// Node::on_init). Items reach the next stage in emission order.
  void add_farm(std::function<std::unique_ptr<Node>()> worker_factory,
                int replicas, std::string name = "farm");

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
