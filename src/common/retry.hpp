// Bounded retry with capped exponential backoff, used by the GPU-facing
// stream stages and the serve layer to absorb transient device failures
// (failed copies, spurious launch errors, transient allocation pressure)
// before degrading to the CPU path.
//
// Policy and telemetry are deliberately tiny: stages run per stream item, so
// the fast path (first attempt succeeds) must cost one branch and one relaxed
// atomic increment. The caller owns the wait between attempts; the stages
// draw it from a BackoffSequence (decorrelated jitter, below).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace hs {

/// When an operation may be re-attempted. Transient device errors (kInternal)
/// and allocation pressure (kOutOfMemory) are retriable; a lost device
/// (kUnavailable) never recovers by retrying on the same device, and genuine
/// programming errors (kInvalidArgument, ...) must surface immediately.
[[nodiscard]] inline bool default_retriable(ErrorCode code) {
  return code == ErrorCode::kInternal || code == ErrorCode::kOutOfMemory;
}

struct RetryPolicy {
  /// Total attempts, including the first (1 = no retry).
  int max_attempts = 4;
  /// Bounds of the delay between attempts (BackoffPolicy::base and cap).
  std::chrono::microseconds base_delay{50};
  std::chrono::microseconds max_delay{5000};
  bool (*retriable)(ErrorCode) = &default_retriable;
};

/// One recorded give-up or retry, for post-run inspection in tests/benches.
struct RetryEvent {
  std::string op;       ///< operation label, e.g. "mandel.h2d"
  int attempt = 0;      ///< 1-based attempt number that failed
  ErrorCode code = ErrorCode::kOk;
  bool gave_up = false; ///< true if this failure exhausted the policy
};

/// Thread-safe telemetry shared by all replicas of a fault-tolerant stage.
/// Counters are relaxed atomics; the event log is bounded and mutex-guarded
/// (it is only written on failures, which are off the fast path by
/// definition).
class RetryStats {
 public:
  std::atomic<std::uint64_t> attempts{0};        ///< operation attempts
  std::atomic<std::uint64_t> retries{0};         ///< re-attempts after failure
  std::atomic<std::uint64_t> exhausted{0};       ///< gave up after max_attempts
  std::atomic<std::uint64_t> cpu_fallbacks{0};   ///< items computed on the CPU path
  std::atomic<std::uint64_t> device_losses{0};   ///< sticky device losses observed
  std::atomic<std::uint64_t> device_switches{0}; ///< migrations to a surviving device

  void record_failure(std::string op, int attempt, ErrorCode code,
                      bool gave_up) {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < kMaxEvents) {
      events_.push_back(RetryEvent{std::move(op), attempt, code, gave_up});
    }
  }

  [[nodiscard]] std::vector<RetryEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  [[nodiscard]] std::uint64_t recoveries() const {
    return retries.load() + cpu_fallbacks.load() + device_switches.load();
  }

  [[nodiscard]] std::string ToString() const;

 private:
  static constexpr std::size_t kMaxEvents = 1024;
  mutable std::mutex mu_;
  std::vector<RetryEvent> events_;
};

inline std::string RetryStats::ToString() const {
  std::string out = "attempts=" + std::to_string(attempts.load()) +
                    " retries=" + std::to_string(retries.load()) +
                    " exhausted=" + std::to_string(exhausted.load()) +
                    " cpu_fallbacks=" + std::to_string(cpu_fallbacks.load()) +
                    " device_losses=" + std::to_string(device_losses.load()) +
                    " device_switches=" + std::to_string(device_switches.load());
  return out;
}

/// Run `op` (a callable returning Status) up to policy.max_attempts times,
/// waiting `delay(retry_index)` between attempts (retry_index is 0-based:
/// 0 before the first retry). Non-retriable codes surface immediately.
/// `stats` may be null. The delay callable owns the wait entirely — pass
/// BackoffSequence::delay_hook() for shared-fate retry storms, or a no-op
/// for tests that must not sleep.
template <typename F, typename DelayFn>
Status retry_status(const RetryPolicy& policy, RetryStats* stats,
                    std::string_view label, F&& op, DelayFn&& delay) {
  Status last;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (stats != nullptr) stats->attempts.fetch_add(1, std::memory_order_relaxed);
    last = op();
    if (last.ok()) return last;
    const bool can_retry =
        attempt < max_attempts && policy.retriable != nullptr &&
        policy.retriable(last.code());
    if (stats != nullptr) {
      stats->record_failure(std::string(label), attempt, last.code(),
                            /*gave_up=*/!can_retry);
      if (can_retry) {
        stats->retries.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats->exhausted.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!can_retry) return last;
    delay(attempt - 1);
  }
  return last;
}

/// Shape of one retry-delay sequence. Defaults match RetryPolicy's
/// base_delay/max_delay.
struct BackoffPolicy {
  std::chrono::microseconds base{50};  ///< minimum (and first-draw floor)
  std::chrono::microseconds cap{5000};  ///< hard ceiling on any delay
  /// Upper-bound multiplier between consecutive draws; 3.0 is the
  /// decorrelated-jitter standard (expected growth ~2x per retry).
  double growth = 3.0;
};

/// Capped exponential backoff with decorrelated jitter (Brooker,
/// "Exponential Backoff And Jitter"):
///
///   delay[0]   = uniform(base, base * growth)
///   delay[n+1] = min(cap, uniform(base, delay[n] * growth))
///
/// A fixed exponential staircase is a liability when a fault burst hits
/// every farm worker at once: all of them sleep the same delays and
/// re-arrive at the sick device in lockstep, re-colliding on every rung.
/// Drawing each worker's delays independently keeps the expected delay
/// growing exponentially while spreading the retries. The draws come from
/// the repo's deterministic Xoshiro256, so a seeded run replays the same
/// delays (nothing about output bytes depends on timing).
///
/// Not thread-safe; each worker (farm replica) owns one, seeded uniquely.
class BackoffSequence {
 public:
  explicit BackoffSequence(BackoffPolicy policy = {}, std::uint64_t seed = 1)
      : policy_(sanitize(policy)), rng_(seed), prev_(policy_.base) {}

  /// Next delay: uniform in [base, min(cap, prev * growth)], remembered as
  /// the new `prev`. Every value is within [base, cap] by construction.
  [[nodiscard]] std::chrono::microseconds next() {
    const auto base_us = static_cast<double>(policy_.base.count());
    const auto cap_us = static_cast<double>(policy_.cap.count());
    double hi = static_cast<double>(prev_.count()) * policy_.growth;
    hi = std::clamp(hi, base_us, cap_us);
    const double us = base_us + (hi - base_us) * rng_.uniform();
    prev_ = std::chrono::microseconds(static_cast<std::int64_t>(us));
    return prev_;
  }

  /// Restart the sequence for a new operation (the RNG stream continues, so
  /// two ops on the same worker still draw different delays).
  void reset() { prev_ = policy_.base; }

  /// The retry_status delay hook: sleeps next() before each retry,
  /// restarting the sequence at an operation's first retry so it waits
  /// near `base`.
  [[nodiscard]] auto delay_hook() {
    return [this](int retry_index) {
      if (retry_index == 0) reset();
      std::this_thread::sleep_for(next());
    };
  }

  [[nodiscard]] const BackoffPolicy& policy() const { return policy_; }

 private:
  static BackoffPolicy sanitize(BackoffPolicy p) {
    if (p.base.count() < 0) p.base = std::chrono::microseconds(0);
    if (p.cap < p.base) p.cap = p.base;
    if (p.growth < 1.0) p.growth = 1.0;
    return p;
  }

  BackoffPolicy policy_;
  Xoshiro256 rng_;
  std::chrono::microseconds prev_;
};

}  // namespace hs
