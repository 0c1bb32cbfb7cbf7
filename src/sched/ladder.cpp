#include "sched/ladder.hpp"

#include <algorithm>

namespace hs::sched {

DeviceLadder::DeviceLadder(const LadderConfig& config, int devices,
                           int replica)
    : config_(config),
      backoff_(BackoffPolicy{config.policy.base_delay, config.policy.max_delay},
               config.seed + static_cast<std::uint64_t>(replica)),
      devices_(std::max(devices, 0)),
      lost_(static_cast<std::size_t>(devices_), 0) {
  if (devices_ > 0) home_ = std::max(replica, 0) % devices_;
}

bool DeviceLadder::excluded(int device) const {
  return lost_[static_cast<std::size_t>(device)] != 0 ||
         (config_.tracker != nullptr && config_.tracker->is_excluded(device));
}

int DeviceLadder::pick() {
  const int n = devices_;
  if (n <= 0) return -1;
  auto skip = [this](int d) { return excluded(d); };
  if (config_.tracker == nullptr) {
    const int start = bound_ >= 0 ? bound_ : home_;
    if (config_.breakers != nullptr) {
      return config_.breakers->first_allowed(start, skip);
    }
    if (bound_ >= 0) return bound_;
    for (int k = 0; k < n; ++k) {
      const int d = (start + k) % n;
      if (!skip(d)) return d;
    }
    return -1;
  }
  // The tracker proposes the least-loaded device (sticky unless another is
  // idle); an open breaker hands its in-flight charge to the first
  // admitted sibling.
  const int got = config_.tracker->acquire_preferring(bound_);
  if (got < 0 || config_.breakers == nullptr ||
      config_.breakers->device(got).allow()) {
    return got;
  }
  const int alt = config_.breakers->first_allowed(
      got + 1, [&](int d) { return d == got || skip(d); });
  if (alt < 0) {
    config_.tracker->abandon(got);
  } else {
    config_.tracker->transfer(got, alt);
  }
  return alt;
}

void DeviceLadder::succeeded(int device, Clock::time_point start) {
  if (config_.tracker != nullptr) {
    const std::chrono::duration<double> dt = Clock::now() - start;
    config_.tracker->release(device, dt.count());
  }
  if (config_.breakers != nullptr) {
    config_.breakers->device(device).on_success();
    config_.breakers->publish();
  }
}

void DeviceLadder::failed(int device, const Status& status) {
  const bool lost = status.code() == ErrorCode::kUnavailable;
  if (config_.tracker != nullptr) {
    config_.tracker->abandon(device);
    if (lost) config_.tracker->exclude(device);
  }
  if (config_.breakers != nullptr) {
    // Sticky loss never recovers: hard-open the breaker instead of letting
    // half-open probes fail one by one.
    if (lost) {
      config_.breakers->device(device).force_open();
    } else {
      config_.breakers->device(device).on_failure();
    }
    config_.breakers->publish();
  }
  if (!lost) return;
  lost_[static_cast<std::size_t>(device)] = 1;
  home_ = (device + 1) % devices_;
  if (config_.stats != nullptr) {
    config_.stats->device_losses.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hs::sched
