// hs::sched device ladder — the one loop every functional GPU path uses to
// place an item on a device and to recover when that device fails.
//
// Per item the ladder does five things, in order:
//   1. pick a device: the worker's sticky binding (the replica's home device
//      at first), or the DeviceLoadTracker; when the caller passes a
//      BreakerBoard, an open breaker vetoes the pick;
//   2. bind the worker's per-device state to it — only when the pick moved;
//   3. run the caller's idempotent pass under retry_status with the worker's
//      BackoffSequence;
//   4. on kUnavailable, exclude the device (for this worker, tracker-wide
//      and in the breakers) and migrate: back to step 1;
//   5. return the final status: a failure means the caller runs its
//      bit-exact CPU rung.
//
// Loss is discovered only through kUnavailable. A statically bound worker
// pays nothing per item beyond the pass itself: no lock, no device probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "sched/breaker.hpp"
#include "sched/sched.hpp"

namespace hs::sched {

/// Where a stage's items may run and how its attempts are counted. Shared
/// by every replica; the pointees may be shared across stages.
struct LadderConfig {
  DeviceLoadTracker* tracker = nullptr;  ///< null: sticky replica binding
  BreakerBoard* breakers = nullptr;      ///< null: no breaker veto
  RetryPolicy policy;
  RetryStats* stats = nullptr;
  std::string_view label;        ///< RetryStats op of a pass
  std::string_view setup_label;  ///< RetryStats op of a bind
  std::uint64_t seed = 0;  ///< backoff seed; each replica adds its id
};

/// One worker's ladder. Not thread-safe: each farm replica owns one, next
/// to the per-device state it binds.
///
/// run()'s `Binding` is that state:
///   Status bind(int device) — acquire state on `device`;
///   void release()          — free whatever is held, best effort; safe
///                             when nothing is. The ladder calls it before
///                             every bind, so leaving a device (migration,
///                             a steal) always frees what was left there.
class DeviceLadder {
 public:
  /// `devices` is the machine's device count (0: every item takes the CPU
  /// rung). `replica` picks the home device (replica % devices) and offsets
  /// the seed, so replicas hit by one fault burst draw decorrelated delays.
  DeviceLadder(const LadderConfig& config, int devices, int replica);

  /// Runs `pass` (returns Status; must be idempotent) for one item on a
  /// device bound through `binding`. OK when a device computed the item;
  /// any other status means the caller runs its CPU rung, counted here as
  /// a cpu_fallback.
  template <typename Binding, typename Pass>
  Status run(Binding& binding, Pass&& pass);

 private:
  using Clock = std::chrono::steady_clock;

  /// Step 1. Charges the tracker when there is one; -1 when no device is
  /// usable.
  int pick();
  [[nodiscard]] bool excluded(int device) const;
  /// Success bookkeeping: tracker service time, breaker success.
  void succeeded(int device, Clock::time_point start);
  /// Failure bookkeeping; a kUnavailable status excludes the device.
  void failed(int device, const Status& status);

  LadderConfig config_;
  BackoffSequence backoff_;
  int devices_;
  int home_ = 0;    ///< first device a static pick tries when unbound
  int bound_ = -1;  ///< device the binding holds state on
  std::vector<char> lost_;  ///< devices this worker saw fail kUnavailable
};

template <typename Binding, typename Pass>
Status DeviceLadder::run(Binding& binding, Pass&& pass) {
  bool migrating = false;
  Status s;
  int d = pick();
  if (d < 0) s = Unavailable("no usable device");
  for (; d >= 0; d = pick()) {
    if (d != bound_) {
      binding.release();
      s = retry_status(config_.policy, config_.stats, config_.setup_label,
                       [&] { return binding.bind(d); }, backoff_.delay_hook());
      bound_ = s.ok() ? d : -1;
      if (s.ok() && migrating && config_.stats != nullptr) {
        config_.stats->device_switches.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const Clock::time_point start =
        config_.tracker != nullptr ? Clock::now() : Clock::time_point{};
    if (s.ok()) {
      s = retry_status(config_.policy, config_.stats, config_.label, pass,
                       backoff_.delay_hook());
    }
    if (s.ok()) {
      succeeded(d, start);
      return s;
    }
    failed(d, s);
    if (s.code() != ErrorCode::kUnavailable) break;
    binding.release();
    bound_ = -1;
    migrating = true;
  }
  if (config_.stats != nullptr) {
    config_.stats->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

}  // namespace hs::sched
