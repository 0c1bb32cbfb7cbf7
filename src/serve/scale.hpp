// Elastic worker scaling for the serve workers: policy + hysteresis decider.
//
// The paper's §V challenge is that a stream runtime cannot control its
// offered load; a fixed worker pool therefore either under-provisions the
// burst or pins idle threads after it. The service starts max_workers
// workers, lets only the first `fed` of them take jobs (the rest wait on a
// condition variable) and moves the fed count with the load:
//
//   grow   — the backlog (queued jobs no idle worker is already waking
//            for) has sat at/above scale_up_watermark (or the windowed-p99
//            admission gate is tripping with work queued) for a full
//            sample_window;
//   shrink — the backlog has been empty for scale_down_idle_window;
//   never flap — every resize re-arms its window and starts a cooldown
//            during which no further resize fires, so one noisy sample can
//            neither grow nor shrink the pool.
//
// ScaleDecider is the pure state machine: the service feeds it
// (now, backlog, p99-overloaded) samples from its controller thread and
// sets the fed count to each returned resize. Keeping it free of
// threads and clocks makes the hysteresis unit-testable with a synthetic
// timeline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>

namespace hs::serve {

/// Shape of the elastic-scaling behavior. Disabled by default
/// (max_workers == 0): the service then runs ServiceConfig::workers
/// workers, all fed.
struct ScalePolicy {
  int min_workers = 0;  ///< floor; >= 1 when enabled
  int max_workers = 0;  ///< ceiling (workers started); 0 disables
  /// Aggregate queued jobs (across all tenant queues) at/above which the
  /// service is considered under pressure.
  std::size_t scale_up_watermark = 8;
  /// How often the controller thread samples the backlog.
  std::chrono::milliseconds sample_interval{5};
  /// Pressure must persist for this long before a grow step fires.
  std::chrono::milliseconds sample_window{50};
  /// The backlog must stay empty this long before a shrink step fires.
  std::chrono::milliseconds scale_down_idle_window{200};
  /// Minimum spacing between any two resizes (grow or shrink).
  std::chrono::milliseconds cooldown{100};

  [[nodiscard]] bool enabled() const {
    return max_workers > 0 && min_workers >= 1 &&
           min_workers <= max_workers;
  }
};

/// Hysteresis state machine: one step per observe(), at most one resize per
/// cooldown, windows re-armed on every resize. Not thread-safe; the service
/// controller thread owns one.
class ScaleDecider {
 public:
  using Clock = std::chrono::steady_clock;

  ScaleDecider(ScalePolicy policy, int initial, Clock::time_point now)
      : policy_(policy),
        active_(std::clamp(initial, policy.min_workers, policy.max_workers)),
        last_resize_(now - policy.cooldown) {}

  /// Feed one backlog sample. Returns the new fed-worker count when a
  /// resize should happen at `now`, nullopt otherwise.
  std::optional<int> observe(Clock::time_point now, std::size_t backlog,
                             bool latency_overloaded) {
    const bool pressure = backlog >= policy_.scale_up_watermark ||
                          (latency_overloaded && backlog > 0);
    if (pressure) {
      idle_armed_ = false;
      if (!above_armed_) {
        above_armed_ = true;
        above_since_ = now;
      }
      if (active_ < policy_.max_workers &&
          now - above_since_ >= policy_.sample_window &&
          now - last_resize_ >= policy_.cooldown) {
        ++active_;
        last_resize_ = now;
        above_since_ = now;  // a further step needs a fresh full window
        return active_;
      }
      return std::nullopt;
    }
    above_armed_ = false;
    if (backlog != 0) {
      idle_armed_ = false;
      return std::nullopt;
    }
    if (!idle_armed_) {
      idle_armed_ = true;
      idle_since_ = now;
    }
    if (active_ > policy_.min_workers &&
        now - idle_since_ >= policy_.scale_down_idle_window &&
        now - last_resize_ >= policy_.cooldown) {
      --active_;
      last_resize_ = now;
      idle_since_ = now;  // one step per idle window
      return active_;
    }
    return std::nullopt;
  }

  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] const ScalePolicy& policy() const { return policy_; }

 private:
  ScalePolicy policy_;
  int active_;
  bool above_armed_ = false;  ///< above_since_ holds a live window start
  bool idle_armed_ = false;   ///< idle_since_ holds a live window start
  Clock::time_point above_since_{};
  Clock::time_point idle_since_{};
  Clock::time_point last_resize_;
};

}  // namespace hs::serve
