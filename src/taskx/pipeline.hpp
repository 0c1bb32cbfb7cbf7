// Token-based pipeline with typed filter modes — the TBB
// parallel_pipeline equivalent (paper §III-B).
//
// Semantics follow TBB:
//  * the source is pulled serially; each pulled item becomes a *token*;
//  * at most `max_live_tokens` tokens are in flight (the knob the paper
//    tuned to 38 for CPU-only and 50 for GPU-combined runs);
//  * kParallel filters run concurrently on any worker;
//  * kSerialInOrder filters process tokens in source order, one at a time;
//  * kSerialOutOfOrder filters process one token at a time, any order;
//  * a filter returning an empty Item drops the token's payload; the token
//    still traverses remaining serial gates (keeping order) and then
//    recycles back to the source.
//
// Tokens never block a worker thread: a token that cannot enter a serial
// gate is parked inside the gate and resumed by the releasing thread.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "flow/item.hpp"

namespace hs::taskx {

class ThreadPool;

/// Shared stream payload type (same type-erased item as the flow runtime).
using Item = hs::flow::Item;

enum class FilterMode : std::uint8_t {
  kParallel,
  kSerialInOrder,
  kSerialOutOfOrder,
};

/// A TBB-style pipeline: construct with a source, add filters, run.
class Pipeline {
 public:
  /// `source` is called serially; std::nullopt ends the stream.
  explicit Pipeline(std::function<std::optional<Item>()> source);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Appends a filter. The function receives the current payload and
  /// returns the transformed payload (empty Item = drop).
  void add_filter(FilterMode mode, std::function<Item(Item)> fn,
                  std::string name = "filter");

  /// Runs to completion on `pool`; the calling thread helps execute tasks.
  /// `max_live_tokens` must be >= 1. Single-shot. While
  /// telemetry::set_enabled(true) is in effect, each filter records
  /// "taskx.<filter>.svc_ns" (histogram), "taskx.<filter>.items" (counter)
  /// and a span per invocation on whichever pool thread ran it.
  Status run(ThreadPool& pool, std::size_t max_live_tokens);

  /// Items fully processed (reached past the last filter), valid after run.
  [[nodiscard]] std::uint64_t items_processed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hs::taskx
