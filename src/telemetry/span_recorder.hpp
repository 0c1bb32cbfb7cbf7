// SpanRecorder — begin/end spans from real execution, exported as Chrome
// trace-event JSON through des/trace_export's writer, the schema's one
// home, so a modeled DES schedule and a measured run load side-by-side in
// Perfetto (chrome://tracing or https://ui.perfetto.dev).
//
// Each thread records into its own fixed-capacity ring buffer, registered on
// first use and owned by the recorder (rings outlive their threads, so
// short-lived pipeline workers are safe). A record is three stores into the
// ring plus a monotonic-count publish — no locks, no allocation. When a ring
// wraps, the oldest spans are overwritten and counted as dropped.
//
// Span names are `const char*` identity: pass a string literal, or intern()
// a dynamic name once (stage names are interned at pipeline setup).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hs::telemetry {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// ring_capacity: spans kept per thread before the ring wraps.
  explicit SpanRecorder(std::size_t ring_capacity = 4096);
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Process-wide default recorder (leaked singleton).
  static SpanRecorder& Default();

  /// Recording gate, separate from telemetry::enabled() so metrics can stay
  /// on while tracing is off. record() is a no-op while disabled.
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Copy `name` into recorder-owned storage and return a stable pointer.
  /// Mutex-guarded; call once at setup, not per span.
  const char* intern(std::string_view name);

  /// Label the calling thread's track in the exported trace.
  void set_thread_name(std::string_view name);

  /// Nanoseconds since the recorder epoch (construction or last reset).
  [[nodiscard]] std::uint64_t now_ns() const { return to_ns(Clock::now()); }
  /// Convert an already-taken steady_clock timestamp to recorder time, so
  /// instrumentation that timed work for other reasons (stage histograms)
  /// reuses its clock reads for the span.
  [[nodiscard]] std::uint64_t to_ns(Clock::time_point tp) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
            .count());
  }

  /// Record a completed span. `name` must outlive the recorder (literal or
  /// intern()ed). No-op while recording is off.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Total spans overwritten by ring wrap, across all threads.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Total spans currently held (sum over rings, capped per ring).
  [[nodiscard]] std::uint64_t span_count() const;

  /// Chrome trace-event JSON (des::chrome_trace_json): one track per
  /// thread, one "X" event per span held. FailedPrecondition when no spans
  /// were recorded. Call after the instrumented run finishes; export does
  /// not quiesce writers.
  [[nodiscard]] Result<std::string> chrome_trace_json() const;
  [[nodiscard]] Status write_chrome_trace(const std::string& path) const;

  /// Drop all spans, dropped counts, and thread names; re-epoch the clock.
  /// Rings stay registered (pointers held by live threads remain valid).
  void reset();

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::uint32_t tid = 0;
    std::vector<Span> slots;
    // Total spans ever recorded; publish with release so an exporter that
    // acquires the count can safely read the slots below it.
    std::atomic<std::uint64_t> count{0};
  };

  Ring* ring_for_this_thread();

  // Process-unique id; the per-thread ring cache keys on this rather than
  // the recorder's address, so a new recorder reusing a destroyed one's
  // address can never resolve to the dead recorder's ring.
  const std::uint64_t uid_;
  const std::size_t ring_capacity_;
  std::atomic<bool> recording_{false};
  Clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::deque<std::string> interned_;
  std::vector<std::string> thread_names_;  // indexed by tid; "" = unnamed
};

/// RAII span: times its scope into `rec` (no-op when rec is null or not
/// recording). Capture the recorder once per scope, not per iteration.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec != nullptr && rec->recording() ? rec : nullptr),
        name_(name),
        start_ns_(rec_ != nullptr ? rec_->now_ns() : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->record(name_, start_ns_, rec_->now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint64_t start_ns_;
};

/// The default recorder when spans should be captured (telemetry enabled and
/// recording on), else nullptr. GPU workers use this to guard span scopes
/// with a single relaxed load when tracing is off.
[[nodiscard]] SpanRecorder* tracer();

}  // namespace hs::telemetry
