// Per-device circuit breakers.
//
// The device ladder (sched/ladder.hpp: retry -> migrate -> CPU) reacts to
// *individual* failures; a breaker reacts to failure *rates*. When a
// device keeps failing (fault injection, allocation pressure, imminent
// loss), retrying every job against it wastes the retry budget of every
// worker in turn. The breaker trips after `failure_threshold` consecutive
// failures and short-circuits the device entirely: jobs route to sibling
// devices or the bit-exact CPU path while the breaker is open. After a
// cooldown one half-open probe is admitted; `half_open_successes`
// consecutive probe successes close the breaker again, any probe failure
// re-opens it.
//
// DeviceLoadTracker::exclude() is *permanent* (built for sticky device
// loss); the breaker is the recoverable complement for transient fault
// bursts. The ladder consults a board when its caller passes one (the
// serve JobEngine does); the pipelines run without.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace hs::sched {

enum class BreakerState : std::uint8_t { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

struct BreakerConfig {
  /// Consecutive failures that trip a closed breaker.
  int failure_threshold = 3;
  /// How long an open breaker rejects before admitting a half-open probe.
  std::chrono::microseconds cooldown{2000};
  /// Consecutive half-open probe successes required to close again.
  int half_open_successes = 2;
};

/// Thread-safe three-state circuit breaker for one device. Callers must
/// pair every allow()==true with exactly one on_success()/on_failure().
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {});

  /// True when a call may proceed. An open breaker whose cooldown elapsed
  /// transitions to half-open and admits a single in-flight probe.
  [[nodiscard]] bool allow();

  void on_success();
  void on_failure();
  /// Trips immediately regardless of the failure count (sticky device loss).
  void force_open();

  [[nodiscard]] BreakerState state() const;
  /// Closed -> open transitions so far.
  [[nodiscard]] std::uint64_t trips() const;

 private:
  void trip_locked();

  mutable std::mutex mu_;
  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  int probes_inflight_ = 0;
  std::chrono::steady_clock::time_point open_until_{};
  std::uint64_t trips_ = 0;
};

/// One breaker per device, plus telemetry publication:
///   <prefix>.breaker.state      gauge, devices currently NOT closed
///   <prefix>.breaker.trips      gauge, cumulative closed->open transitions
///   <prefix>.breaker.d<i>.state gauge, per-device state (0/1/2 as
///                               BreakerState)
/// (the serve layer passes its own prefix, "serve" by default).
class BreakerBoard {
 public:
  BreakerBoard(int devices, BreakerConfig config,
               telemetry::Registry* registry = nullptr,
               std::string_view prefix = "sched");

  [[nodiscard]] int device_count() const {
    return static_cast<int>(breakers_.size());
  }
  [[nodiscard]] CircuitBreaker& device(int d) {
    return *breakers_.at(static_cast<std::size_t>(d));
  }

  /// First device at or after `prefer` (mod count) whose breaker admits a
  /// call, skipping indices for which `skip(d)` is true; -1 when none.
  /// The admitted slot is claimed — pair with on_success()/on_failure().
  template <typename SkipFn>
  [[nodiscard]] int first_allowed(int prefer, SkipFn&& skip) {
    const int n = device_count();
    if (n == 0) return -1;
    int start = prefer < 0 ? 0 : prefer % n;
    for (int k = 0; k < n; ++k) {
      const int d = (start + k) % n;
      if (skip(d)) continue;
      if (breakers_[static_cast<std::size_t>(d)]->allow()) return d;
    }
    return -1;
  }

  [[nodiscard]] std::uint64_t total_trips() const;
  /// Devices currently open or half-open.
  [[nodiscard]] int non_closed_count() const;
  /// Devices currently open (half-open counts as recovering, not open).
  [[nodiscard]] int open_count() const;

  /// Pushes the current states into the registry gauges (no-op without a
  /// registry). Cheap; callers invoke it after state-changing events.
  void publish();

 private:
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  telemetry::Gauge* state_gauge_ = nullptr;
  telemetry::Gauge* trips_gauge_ = nullptr;
  std::vector<telemetry::Gauge*> device_gauges_;
};

}  // namespace hs::sched
