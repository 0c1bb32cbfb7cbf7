#include "sched/breaker.hpp"

#include <string>

namespace hs::sched {

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  if (config_.failure_threshold < 1) config_.failure_threshold = 1;
  if (config_.half_open_successes < 1) config_.half_open_successes = 1;
  if (config_.cooldown.count() < 0) config_.cooldown = {};
}

void CircuitBreaker::trip_locked() {
  state_ = BreakerState::kOpen;
  open_until_ = std::chrono::steady_clock::now() + config_.cooldown;
  consecutive_failures_ = 0;
  probe_successes_ = 0;
  probes_inflight_ = 0;
  ++trips_;
}

bool CircuitBreaker::allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() < open_until_) return false;
      state_ = BreakerState::kHalfOpen;
      probe_successes_ = 0;
      probes_inflight_ = 1;  // this caller is the probe
      return true;
    case BreakerState::kHalfOpen:
      // One probe at a time: concurrent workers keep routing around the
      // device until the probe's verdict is in.
      if (probes_inflight_ > 0) return false;
      probes_inflight_ = 1;
      return true;
  }
  return false;
}

void CircuitBreaker::on_success() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (probes_inflight_ > 0) --probes_inflight_;
      if (++probe_successes_ >= config_.half_open_successes) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // A straggler finishing after another worker's failure re-opened the
      // breaker; its success says nothing about the device *now*.
      break;
  }
}

void CircuitBreaker::on_failure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) trip_locked();
      break;
    case BreakerState::kHalfOpen:
      trip_locked();  // failed probe: back to open, fresh cooldown
      break;
    case BreakerState::kOpen:
      break;
  }
}

void CircuitBreaker::force_open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != BreakerState::kOpen) trip_locked();
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

BreakerBoard::BreakerBoard(int devices, BreakerConfig config,
                           telemetry::Registry* registry,
                           std::string_view prefix) {
  if (devices < 0) devices = 0;
  breakers_.reserve(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(config));
  }
  if (registry != nullptr) {
    const std::string p(prefix);
    state_gauge_ = registry->gauge(p + ".breaker.state");
    trips_gauge_ = registry->gauge(p + ".breaker.trips");
    device_gauges_.reserve(breakers_.size());
    for (int d = 0; d < devices; ++d) {
      device_gauges_.push_back(
          registry->gauge(p + ".breaker.d" + std::to_string(d) + ".state"));
    }
    publish();
  }
}

std::uint64_t BreakerBoard::total_trips() const {
  std::uint64_t total = 0;
  for (const auto& b : breakers_) total += b->trips();
  return total;
}

int BreakerBoard::non_closed_count() const {
  int n = 0;
  for (const auto& b : breakers_) {
    if (b->state() != BreakerState::kClosed) ++n;
  }
  return n;
}

int BreakerBoard::open_count() const {
  int n = 0;
  for (const auto& b : breakers_) {
    if (b->state() == BreakerState::kOpen) ++n;
  }
  return n;
}

void BreakerBoard::publish() {
  if (state_gauge_ == nullptr) return;
  state_gauge_->set(static_cast<double>(non_closed_count()));
  trips_gauge_->set(static_cast<double>(total_trips()));
  for (std::size_t d = 0; d < breakers_.size(); ++d) {
    device_gauges_[d]->set(static_cast<double>(breakers_[d]->state()));
  }
}

}  // namespace hs::sched
