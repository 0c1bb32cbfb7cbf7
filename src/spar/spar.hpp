// SPar-equivalent embedded DSL (paper §III-C).
//
// SPar is a C++ attribute DSL: [[spar::ToStream]] marks a stream region,
// [[spar::Stage]] marks computing phases, [[spar::Replicate(n)]] replicates
// a stateless stage, and [[spar::Input]]/[[spar::Output]] declare the data
// flowing between stages. Its compiler performs source-to-source
// transformation onto FastFlow pipelines/farms.
//
// We reproduce that *lowering* as an embedded builder: the same five
// concepts, declared as typed calls in region order, validated with
// SPar-compiler-style diagnostics, then compiled onto the flow runtime
// (pipeline + ordered farms) — the exact structure SPar generates. The
// graph_description() string is the analogue of inspecting SPar's
// generated FastFlow code, and is what the lowering tests assert on.
//
//   spar::ToStream region("mandel");
//   region.source<Line>([&]() -> std::optional<Line> { ... });
//   region.stage<Line, Line>(spar::Replicate(workers),
//                            [](Line l) { compute(l); return l; });
//   region.last_stage<Line>([&](Line l) { show(l); });
//   hs::Status s = region.run();
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "flow/adapters.hpp"
#include "flow/pipeline.hpp"

namespace hs::spar {

/// [[spar::Replicate(n)]] — requested parallelism degree of a stage.
struct Replicate {
  int n = 1;
  constexpr explicit Replicate(int workers) : n(workers) {}
};

/// [[spar::Input(...)]] / [[spar::Output(...)]] — the data-flow
/// annotations of the SPar language. In the embedded DSL they are type
/// tags: the annotated stage form
///
///   region.stage(spar::Input<Line>{}, spar::Output<Line>{},
///                spar::Replicate(8), fn);
///
/// is equivalent to region.stage<Line, Line>(Replicate(8), fn) but reads
/// like the paper's Listing 1 annotations and keeps the declared types
/// next to the stage body.
template <typename... Ts>
struct Input {};
template <typename... Ts>
struct Output {};

/// Region-level options. A region always lowers the way SPar compiles
/// with -spar_ordered and -spar_blocking: replicated stages are ordered,
/// round-robin farms, and queue waits park on a condition variable. Stage
/// metrics go to the process-wide telemetry singletons while
/// telemetry::set_enabled(true), under the region's stage names
/// ("flow.<name>.stageN.svc_ns" etc.).
struct Options {
  /// Core affinity for the lowered pipeline's threads (off by default; see
  /// flow::PipelineOptions::pin).
  bool pin = false;
};

/// Per-stage lowering override.
struct StageOptions {
  /// Lower to an emitter/worker/collector farm even with Replicate(1):
  /// same items in the same order, at the cost of two extra threads. Used
  /// when a stage's farm shape (scheduling, ordering, queue telemetry)
  /// should not depend on the worker count.
  bool force_farm = false;
};

/// A [[spar::ToStream]] region under construction.
class ToStream {
 public:
  explicit ToStream(std::string name = "tostream");

  /// The stream-management preamble of the region (the for-loop in
  /// Listing 1, lines 4-5): a generator producing stream items;
  /// std::nullopt ends the stream. Must be declared exactly once, first.
  template <typename T, typename Fn>
  ToStream& source(Fn generator) {
    add_source(flow::make_source<T>(std::move(generator)));
    return *this;
  }

  /// [[spar::Stage, spar::Replicate(r)]] with Input(In) and Output(Out):
  /// a transforming stage. `fn` must be copyable (each replica owns a
  /// copy, the analogue of SPar replicating the stage body).
  template <typename In, typename Out, typename Fn>
  ToStream& stage(Replicate replicate, Fn fn) {
    add_stage(replicate.n, {}, flow::stage_factory<In, Out>(std::move(fn)));
    return *this;
  }

  /// Replicated stage with a per-stage lowering override.
  template <typename In, typename Out, typename Fn>
  ToStream& stage(Replicate replicate, StageOptions opts, Fn fn) {
    add_stage(replicate.n, opts, flow::stage_factory<In, Out>(std::move(fn)));
    return *this;
  }

  /// Non-replicated stage ([[spar::Stage]] alone).
  template <typename In, typename Out, typename Fn>
  ToStream& stage(Fn fn) {
    return stage<In, Out>(Replicate(1), std::move(fn));
  }

  /// Annotation-style forms with explicit Input/Output tags (single-type
  /// streams; the first Input/Output type is the stream item).
  template <typename In, typename Out, typename Fn>
  ToStream& stage(Input<In>, Output<Out>, Replicate replicate, Fn fn) {
    return stage<In, Out>(replicate, std::move(fn));
  }
  template <typename In, typename Out, typename Fn>
  ToStream& stage(Input<In>, Output<Out>, Fn fn) {
    return stage<In, Out>(std::move(fn));
  }
  template <typename In, typename Fn>
  ToStream& last_stage(Input<In>, Fn fn) {
    return last_stage<In>(std::move(fn));
  }

  /// Stage from a node factory, for stages with per-replica state (e.g. a
  /// per-worker GPU stream/command-queue, as the paper's combined versions
  /// require).
  ToStream& stage_nodes(Replicate replicate,
                        std::function<std::unique_ptr<flow::Node>()> factory);

  /// The final [[spar::Stage]] consuming the stream (Listing 1 line 22).
  /// Must be declared exactly once, last.
  template <typename In, typename Fn>
  ToStream& last_stage(Fn fn) {
    add_sink(flow::make_sink<In>(std::move(fn)));
    return *this;
  }

  /// Validates the region and reports the first diagnostic, in the style
  /// of SPar compiler errors. OK when the region is well-formed.
  [[nodiscard]] Status check() const;

  /// The FastFlow-equivalent structure the region lowers to, e.g.
  /// "pipeline(source, farm(stage x 8, ordered), sink)" — the analogue of
  /// inspecting SPar's generated code.
  [[nodiscard]] std::string graph_description() const;

  /// Number of runtime threads the lowered graph uses.
  [[nodiscard]] int thread_count() const;

  /// Compiles to the flow runtime and executes to completion. Single-shot.
  Status run(const Options& options = {});

  /// Every stage failure the lowered pipeline recorded, in observation
  /// order; valid after run() (empty before, and on clean runs). run()'s
  /// status is the first entry — this is the full per-stage picture, the
  /// analogue of flow::Pipeline::failure_report().
  [[nodiscard]] const flow::FailureReport& failure_report() const {
    return failure_report_;
  }

 private:
  struct StageDecl {
    int replicas = 1;
    StageOptions opts;
    std::function<std::unique_ptr<flow::Node>()> factory;
    [[nodiscard]] bool lowers_to_farm() const {
      return replicas > 1 || opts.force_farm;
    }
  };

  void add_source(std::unique_ptr<flow::Node> node);
  void add_stage(int replicas, StageOptions opts,
                 std::function<std::unique_ptr<flow::Node>()> factory);
  void add_sink(std::unique_ptr<flow::Node> node);

  std::string name_;
  std::unique_ptr<flow::Node> source_;
  int extra_sources_ = 0;  // duplicate source() declarations (diagnostic)
  std::vector<StageDecl> stages_;
  std::unique_ptr<flow::Node> sink_;
  int extra_sinks_ = 0;
  bool stage_after_sink_ = false;
  bool stage_before_source_ = false;
  bool has_bad_replicate_ = false;
  int bad_replicate_ = 0;  // first nonpositive Replicate seen
  bool ran_ = false;
  flow::FailureReport failure_report_;
};

}  // namespace hs::spar
