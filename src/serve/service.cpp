#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/wrr.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::serve {

std::string_view reject_code_name(RejectCode code) {
  switch (code) {
    case RejectCode::kOverload: return "overload";
    case RejectCode::kShuttingDown: return "shutting-down";
    case RejectCode::kQuota: return "quota";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the steady clock's epoch: the clock submission times
/// and deadlines are measured against.
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::uint64_t ns_between(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// One accepted job, queued until a worker takes it.
struct Ticket {
  JobRequest request;
  std::string tenant;
  std::uint64_t job_id = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;  ///< absolute, 0 = none
  std::shared_ptr<std::promise<JobResult>> promise;  ///< null = fire-and-forget
  /// The tenant's accepted-but-not-completed count, carried on the ticket so
  /// the completing worker can decrement it without a tenant-map lookup.
  /// Null when no in-flight quota is configured.
  std::shared_ptr<std::atomic<std::int64_t>> inflight;
};

}  // namespace

namespace detail {

struct ServiceImpl {
  ServiceImpl(gpusim::Machine* m, ServiceConfig cfg)
      : machine(m),
        config(std::move(cfg)),
        breakers(m != nullptr ? m->device_count() : 0, config.breaker,
                 config.registry, config.prefix) {
    if (config.workers < 1) config.workers = 1;
    if (config.tenant_queue_capacity < 1) config.tenant_queue_capacity = 1;
    if (config.admission_refresh < 1) config.admission_refresh = 1;
    if (config.sched == sched::SchedMode::kAdaptive && machine != nullptr &&
        machine->device_count() > 0) {
      tracker.emplace(machine->device_count());
    }
    if (config.registry != nullptr) {
      shed_counter = config.registry->counter(config.prefix + ".shed");
      miss_counter = config.registry->counter(config.prefix + ".deadline_miss");
      drop_counter =
          config.registry->counter(config.prefix + ".deadline_drops");
      accepted_counter = config.registry->counter(config.prefix + ".accepted");
      completed_counter =
          config.registry->counter(config.prefix + ".completed");
      latency_hist = config.registry->histogram(config.prefix + ".latency_ns");
      complete_hist =
          config.registry->histogram(config.prefix + ".complete.svc_ns");
      quota_counter =
          config.registry->counter(config.prefix + ".quota_rejects");
      workers_gauge = config.registry->gauge(config.prefix + ".workers");
      scale_up_counter = config.registry->counter(config.prefix + ".scale_up");
      scale_down_counter =
          config.registry->counter(config.prefix + ".scale_down");
    }
    if (config.spans != nullptr) {
      scale_up_span = config.spans->intern(config.prefix + ".scale_up");
      scale_down_span = config.spans->intern(config.prefix + ".scale_down");
    }
  }

  /// Per-tenant slice of the admission/outcome counters, exported as
  /// "<prefix>.tenant.<name>.{accepted,shed,deadline_miss}". Registered
  /// lazily on a tenant's first submission (the tenant set is open-ended);
  /// null when the service runs uninstrumented.
  struct TenantCounters {
    telemetry::Counter* accepted = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* deadline_miss = nullptr;
    telemetry::Counter* quota_rejects = nullptr;
  };
  TenantCounters* tenant_counters(std::string_view tenant) {
    if (config.registry == nullptr) return nullptr;
    std::lock_guard<std::mutex> lock(tenant_mu);
    auto it = tenant_metrics.find(tenant);
    if (it == tenant_metrics.end()) {
      const std::string base =
          config.prefix + ".tenant." + std::string(tenant);
      TenantCounters c;
      c.accepted = config.registry->counter(base + ".accepted");
      c.shed = config.registry->counter(base + ".shed");
      c.deadline_miss = config.registry->counter(base + ".deadline_miss");
      c.quota_rejects = config.registry->counter(base + ".quota_rejects");
      config.registry->gauge(base + ".weight")
          ->set(static_cast<double>(wrr.weight_of(tenant)));
      it = tenant_metrics.emplace(std::string(tenant), c).first;
    }
    return &it->second;
  }

  /// Blocks worker `index` until it is fed and a ticket is queued, then pops
  /// the next ticket in WRR order (serve/wrr.hpp). Once draining starts
  /// every worker pops until the queues are dry; false then ends the worker.
  bool take(int index, Ticket& out) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (draining ||
          (index < fed && backlog.load(std::memory_order_relaxed) != 0)) {
        break;
      }
      // Fed workers wait for tickets and unfed ones for a resize, on
      // separate variables, so a submit's notify_one always reaches a
      // worker that may take the ticket.
      if (index < fed) {
        ++idle_fed;
        ticket_cv.wait(lock);
        --idle_fed;
      } else {
        resize_cv.wait(lock);
      }
    }
    if (!wrr.pop(out)) return false;  // draining and dry
    backlog.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Runs one job on `engine`, timing it into the worker's histogram and
  /// span. A job that throws completes with kInternal.
  JobResult run(JobEngine& engine, const JobRequest& request,
                telemetry::Histogram* hist, const char* span) {
    const bool timed = hist != nullptr || span != nullptr;
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    JobResult result;
    try {
      result = engine.run(request);
    } catch (const std::exception& e) {
      result.status = Internal(std::string("job threw: ") + e.what());
    } catch (...) {
      result.status = Internal("job threw a non-standard exception");
    }
    if (timed) {
      const Clock::time_point t1 = Clock::now();
      if (hist != nullptr) hist->record(ns_between(t0, t1));
      if (span != nullptr) {
        config.spans->record(span, config.spans->to_ns(t0),
                             config.spans->to_ns(t1));
      }
    }
    return result;
  }

  /// Finalizes a ticket: latency, deadline-miss accounting, the in-flight
  /// quota slot and the promise.
  void complete(Ticket& ticket, JobResult result, bool dropped) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t now = now_ns();
    result.latency_ns = now > ticket.submit_ns ? now - ticket.submit_ns : 0;
    result.deadline_missed =
        dropped || (ticket.deadline_ns != 0 && now > ticket.deadline_ns);
    if (result.deadline_missed) {
      deadline_miss.fetch_add(1, std::memory_order_relaxed);
      if (miss_counter != nullptr) miss_counter->add(1);
      if (auto* tc = tenant_counters(ticket.tenant); tc != nullptr) {
        tc->deadline_miss->add(1);
      }
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    if (completed_counter != nullptr) completed_counter->add(1);
    if (latency_hist != nullptr) latency_hist->record(result.latency_ns);
    if (ticket.inflight != nullptr) {
      ticket.inflight->fetch_sub(1, std::memory_order_relaxed);
    }
    if (ticket.promise != nullptr) {
      ticket.promise->set_value(std::move(result));
    }
    if (complete_hist != nullptr) {
      complete_hist->record(ns_between(t0, Clock::now()));
    }
  }

  /// Worker `index`: takes tickets until draining empties the queues. An
  /// expired ticket completes as a miss without running, so it never
  /// occupies a GPU slot.
  void work(int index) {
    const std::string name = "exec.w" + std::to_string(index);
    telemetry::Histogram* exec_hist =
        config.registry != nullptr
            ? config.registry->histogram(config.prefix + "." + name +
                                         ".svc_ns")
            : nullptr;
    const char* span = nullptr;
    if (config.spans != nullptr) {
      span = config.spans->intern(name);
      config.spans->set_thread_name(name);
    }
    JobEngine engine(machine, &breakers,
                     tracker.has_value() ? &*tracker : nullptr, config.retry,
                     &retry_stats, index);
    int since_publish = 0;
    for (;;) {
      Ticket ticket;
      if (!take(index, ticket)) return;
      const bool expired =
          ticket.deadline_ns != 0 && now_ns() > ticket.deadline_ns;
      JobResult result;
      if (expired) {
        if (drop_counter != nullptr) drop_counter->add(1);
        result.status = Aborted("deadline budget exhausted in queue");
      } else {
        result = run(engine, ticket.request, exec_hist, span);
      }
      complete(ticket, std::move(result), expired);
      if (++since_publish >= 64) {
        since_publish = 0;
        breakers.publish();
      }
    }
  }

  /// Elastic controller: samples the tickets waiting for a worker and
  /// applies the decider's resizes to the fed count. A ticket an idle fed
  /// worker is already waking for is not pressure, so the samples leave
  /// out one queued ticket per such worker; otherwise each push-to-take
  /// hand-off would read as backlog and re-arm the idle window.
  void scale(const ScalePolicy& policy, int initial) {
    ScaleDecider decider(policy, initial, ScaleDecider::Clock::now());
    while (!scaler_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(policy.sample_interval);
      std::size_t waiting;
      {
        std::lock_guard<std::mutex> lock(mu);
        const std::size_t queued = backlog.load(std::memory_order_relaxed);
        const auto idle = static_cast<std::size_t>(idle_fed);
        waiting = queued > idle ? queued - idle : 0;
      }
      const auto resize = decider.observe(
          ScaleDecider::Clock::now(), waiting,
          latency_overloaded.load(std::memory_order_relaxed));
      if (!resize.has_value()) continue;
      const std::uint64_t t0 =
          config.spans != nullptr ? config.spans->now_ns() : 0;
      int prev;
      {
        std::lock_guard<std::mutex> lock(mu);
        prev = fed;
        fed = *resize;
      }
      ticket_cv.notify_all();
      resize_cv.notify_all();
      workers_active.store(*resize, std::memory_order_relaxed);
      if (workers_gauge != nullptr) {
        workers_gauge->set(static_cast<double>(*resize));
      }
      const bool grew = *resize > prev;
      (grew ? scale_ups : scale_downs).fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Counter* c = grew ? scale_up_counter : scale_down_counter;
          c != nullptr) {
        c->add(1);
      }
      if (config.spans != nullptr) {
        config.spans->record(grew ? scale_up_span : scale_down_span, t0,
                             config.spans->now_ns());
      }
    }
  }

  gpusim::Machine* machine;
  ServiceConfig config;
  sched::BreakerBoard breakers;
  std::optional<sched::DeviceLoadTracker> tracker;
  RetryStats retry_stats;

  /// Guards wrr, fed, idle_fed, accepting, draining and tenant_inflight,
  /// and every change to backlog.
  mutable std::mutex mu;
  std::condition_variable ticket_cv;  ///< fed workers wait for a ticket
  std::condition_variable resize_cv;  ///< unfed workers wait for a resize
  WrrQueues<Ticket> wrr{&config.tenant_weights};
  /// Tickets in the queues. It changes only under mu, together with the
  /// queues, so lock-free readers never see it wrap below zero.
  std::atomic<std::size_t> backlog{0};
  int fed = 0;       ///< workers [0, fed) take tickets
  int idle_fed = 0;  ///< fed workers waiting on ticket_cv
  /// stop() clears accepting and sets draining in one critical section, so
  /// every ticket a submit pushed is in the queues before any worker can
  /// see draining, and the workers run it before they exit.
  bool accepting = false;
  bool draining = false;
  /// Per-tenant accepted-but-not-completed counts (quota enforcement).
  std::map<std::string, std::shared_ptr<std::atomic<std::int64_t>>,
           std::less<>>
      tenant_inflight;

  std::atomic<bool> scaler_stop{false};
  std::atomic<int> workers_active{0};

  std::atomic<bool> running{false};
  bool started = false;   ///< owner-thread lifecycle state
  bool finished = false;
  std::atomic<std::uint64_t> next_job_id{1};
  std::atomic<std::uint64_t> submit_seq{0};
  std::atomic<bool> latency_overloaded{false};
  std::mutex admission_mu;  ///< guards latency_window_base
  telemetry::HistogramSnapshot latency_window_base;

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> quota_rejects{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> deadline_miss{0};
  std::atomic<std::uint64_t> scale_ups{0};
  std::atomic<std::uint64_t> scale_downs{0};

  std::mutex tenant_mu;  ///< guards tenant_metrics
  std::map<std::string, TenantCounters, std::less<>> tenant_metrics;

  telemetry::Counter* shed_counter = nullptr;
  telemetry::Counter* miss_counter = nullptr;
  telemetry::Counter* drop_counter = nullptr;
  telemetry::Counter* accepted_counter = nullptr;
  telemetry::Counter* completed_counter = nullptr;
  telemetry::Histogram* latency_hist = nullptr;
  telemetry::Histogram* complete_hist = nullptr;
  telemetry::Counter* quota_counter = nullptr;
  telemetry::Gauge* workers_gauge = nullptr;
  telemetry::Counter* scale_up_counter = nullptr;
  telemetry::Counter* scale_down_counter = nullptr;
  const char* scale_up_span = nullptr;
  const char* scale_down_span = nullptr;

  // Last, after everything the threads use; stop() joins them.
  std::vector<std::thread> workers;
  std::thread scaler;
};

}  // namespace detail

Service::Service(gpusim::Machine* machine, ServiceConfig config)
    : impl_(std::make_unique<detail::ServiceImpl>(machine, std::move(config))) {}

Service::~Service() { (void)stop(); }

Status Service::start() {
  detail::ServiceImpl* impl = impl_.get();
  if (impl->started) return FailedPrecondition("service already started");
  impl->started = true;

  const ScalePolicy& scale = impl->config.scale;
  const bool elastic = scale.enabled();
  // Elastic mode starts the ceiling's worth of workers and feeds `initial`
  // of them; the unfed ones wait for a resize.
  const int initial =
      elastic ? std::clamp(impl->config.workers, scale.min_workers,
                           scale.max_workers)
              : impl->config.workers;
  impl->workers_active.store(initial, std::memory_order_relaxed);
  if (impl->workers_gauge != nullptr) {
    impl->workers_gauge->set(static_cast<double>(initial));
  }
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    impl->fed = initial;
    impl->accepting = true;
  }
  impl->running.store(true, std::memory_order_release);
  const int count = elastic ? scale.max_workers : impl->config.workers;
  impl->workers.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    impl->workers.emplace_back([impl, i] { impl->work(i); });
  }
  if (elastic) {
    impl->scaler = std::thread([impl, scale, initial] {
      impl->scale(scale, initial);
    });
  }
  return OkStatus();
}

Status Service::stop() {
  detail::ServiceImpl* impl = impl_.get();
  if (!impl->started || impl->finished) return OkStatus();
  impl->running.store(false, std::memory_order_release);
  // A submit that already passed the lock-free running check either pushes
  // before this critical section (the workers then run its ticket) or sees
  // accepting == false and is rejected.
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    impl->accepting = false;
    impl->draining = true;
  }
  impl->ticket_cv.notify_all();
  impl->resize_cv.notify_all();
  for (std::thread& worker : impl->workers) worker.join();
  impl->scaler_stop.store(true, std::memory_order_release);
  if (impl->scaler.joinable()) impl->scaler.join();
  impl->finished = true;
  impl->breakers.publish();
  return OkStatus();
}

SubmitResult Service::submit(std::string_view tenant, JobRequest request,
                             bool want_result) {
  SubmitResult out;
  impl_->submitted.fetch_add(1, std::memory_order_relaxed);
  auto reject = [&](RejectCode code, std::string detail) {
    if (code == RejectCode::kOverload) {
      impl_->shed.fetch_add(1, std::memory_order_relaxed);
      if (impl_->shed_counter != nullptr) impl_->shed_counter->add(1);
      if (auto* tc = impl_->tenant_counters(tenant); tc != nullptr) {
        tc->shed->add(1);
      }
    } else if (code == RejectCode::kQuota) {
      impl_->quota_rejects.fetch_add(1, std::memory_order_relaxed);
      if (impl_->quota_counter != nullptr) impl_->quota_counter->add(1);
      if (auto* tc = impl_->tenant_counters(tenant); tc != nullptr) {
        tc->quota_rejects->add(1);
      }
    }
    out.rejected = Rejected{code, std::move(detail)};
    return std::move(out);
  };
  if (!impl_->running.load(std::memory_order_acquire)) {
    return reject(RejectCode::kShuttingDown, "service not accepting work");
  }

  const ServiceConfig& cfg = impl_->config;
  // Latency watermark: recompute the observed p99 every admission_refresh
  // submissions (a snapshot per submit would dominate the admission cost).
  // The p99 is taken over the window since the previous refresh, not since
  // start(), so the gate reopens once completions get fast again.
  if (cfg.p99_shed_budget_ns != 0 && impl_->latency_hist != nullptr) {
    const std::uint64_t seq =
        impl_->submit_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    if (seq % static_cast<std::uint64_t>(cfg.admission_refresh) == 0) {
      const auto snap = impl_->latency_hist->snapshot();
      std::lock_guard<std::mutex> lock(impl_->admission_mu);
      telemetry::HistogramSnapshot window = snap;
      const auto& base = impl_->latency_window_base;
      window.count -= base.count;
      window.sum -= base.sum;
      for (std::size_t b = 0; b < window.buckets.size(); ++b) {
        window.buckets[b] -= base.buckets[b];
      }
      impl_->latency_overloaded.store(
          window.count >= 16 &&
              window.p99() > static_cast<double>(cfg.p99_shed_budget_ns),
          std::memory_order_relaxed);
      impl_->latency_window_base = snap;
    }
    if (impl_->latency_overloaded.load(std::memory_order_relaxed)) {
      return reject(RejectCode::kOverload, "p99 latency over budget");
    }
  }

  Ticket ticket;
  ticket.request = std::move(request);
  ticket.tenant = std::string(tenant);
  ticket.job_id = impl_->next_job_id.fetch_add(1, std::memory_order_relaxed);
  ticket.submit_ns = now_ns();
  const std::uint64_t budget = ticket.request.deadline_budget_ns != 0
                                   ? ticket.request.deadline_budget_ns
                                   : cfg.default_deadline_ns;
  if (budget != 0) ticket.deadline_ns = ticket.submit_ns + budget;
  out.job_id = ticket.job_id;
  if (want_result) {
    ticket.promise = std::make_shared<std::promise<JobResult>>();
    out.result = ticket.promise->get_future();
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    // Re-check admission under the queue mutex: the lock-free running
    // check above can race stop(), but stop() clears accepting in the same
    // critical section that starts draining, so a ticket pushed here is
    // run by the workers before they exit.
    if (!impl_->accepting) {
      out.result = {};
      return reject(RejectCode::kShuttingDown, "service not accepting work");
    }
    const std::size_t depth = impl_->wrr.depth(tenant);
    if (cfg.tenant_quota_queued != 0 && depth >= cfg.tenant_quota_queued) {
      out.result = {};
      return reject(RejectCode::kQuota, "tenant queued quota exceeded");
    }
    if (depth >= cfg.tenant_queue_capacity) {
      out.result = {};
      return reject(RejectCode::kOverload, "tenant queue full");
    }
    if (cfg.shed_watermark < 1.0 &&
        static_cast<double>(depth) >=
            cfg.shed_watermark *
                static_cast<double>(cfg.tenant_queue_capacity)) {
      out.result = {};
      return reject(RejectCode::kOverload, "tenant queue over watermark");
    }
    // Last check before the push so a later reject can't leak the
    // increment; the completing worker owns the matching decrement.
    if (cfg.tenant_quota_inflight != 0) {
      auto it = impl_->tenant_inflight.find(tenant);
      if (it == impl_->tenant_inflight.end()) {
        it = impl_->tenant_inflight
                 .emplace(std::string(tenant),
                          std::make_shared<std::atomic<std::int64_t>>(0))
                 .first;
      }
      if (it->second->load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(cfg.tenant_quota_inflight)) {
        out.result = {};
        return reject(RejectCode::kQuota, "tenant in-flight quota exceeded");
      }
      it->second->fetch_add(1, std::memory_order_relaxed);
      ticket.inflight = it->second;
    }
    // Counted with the push, so backlog() never exceeds the accepted count.
    impl_->accepted.fetch_add(1, std::memory_order_relaxed);
    impl_->wrr.push(tenant, std::move(ticket));
    impl_->backlog.fetch_add(1, std::memory_order_relaxed);
  }
  impl_->ticket_cv.notify_one();
  if (impl_->accepted_counter != nullptr) impl_->accepted_counter->add(1);
  if (auto* tc = impl_->tenant_counters(tenant); tc != nullptr) {
    tc->accepted->add(1);
  }
  return out;
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.submitted = impl_->submitted.load(std::memory_order_relaxed);
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.shed = impl_->shed.load(std::memory_order_relaxed);
  s.quota_rejects = impl_->quota_rejects.load(std::memory_order_relaxed);
  s.completed = impl_->completed.load(std::memory_order_relaxed);
  s.deadline_miss = impl_->deadline_miss.load(std::memory_order_relaxed);
  s.cpu_jobs = impl_->retry_stats.cpu_fallbacks.load(std::memory_order_relaxed);
  s.breaker_trips = impl_->breakers.total_trips();
  s.breakers_open = impl_->breakers.open_count();
  s.workers_active = impl_->workers_active.load(std::memory_order_relaxed);
  s.scale_ups = impl_->scale_ups.load(std::memory_order_relaxed);
  s.scale_downs = impl_->scale_downs.load(std::memory_order_relaxed);
  return s;
}

const RetryStats& Service::retry_stats() const { return impl_->retry_stats; }

sched::BreakerBoard& Service::breakers() { return impl_->breakers; }

telemetry::HistogramSnapshot Service::latency() const {
  if (impl_->latency_hist == nullptr) return {};
  return impl_->latency_hist->snapshot();
}

std::size_t Service::backlog() const {
  return impl_->backlog.load(std::memory_order_relaxed);
}

}  // namespace hs::serve
