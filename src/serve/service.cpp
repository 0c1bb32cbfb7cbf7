#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "flow/item.hpp"
#include "flow/node.hpp"
#include "flow/pipeline.hpp"
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

/// The stream item: one accepted job riding through the pipeline.
struct Ticket {
  JobRequest request;
  std::string tenant;
  std::uint64_t job_id = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;  ///< absolute, 0 = none
  std::shared_ptr<std::promise<JobResult>> promise;  ///< null = fire-and-forget
  /// The tenant's accepted-but-not-completed count, carried on the ticket so
  /// the sink can decrement it without a tenant-map lookup. Null when no
  /// in-flight quota is configured.
  std::shared_ptr<std::atomic<std::int64_t>> inflight;
  JobResult result;
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
      accepted_counter = config.registry->counter(config.prefix + ".accepted");
      completed_counter =
          config.registry->counter(config.prefix + ".completed");
      latency_hist = config.registry->histogram(config.prefix + ".latency_ns");
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
          ->set(static_cast<double>(weight_of(tenant)));
      it = tenant_metrics.emplace(std::string(tenant), c).first;
    }
    return &it->second;
  }

  /// Effective WRR weight of a tenant: configured weight, floored at 1.
  [[nodiscard]] int weight_of(std::string_view tenant) const {
    return wrr.weight_of(tenant);
  }

  /// Weighted round-robin pop across the tenant queues (serve/wrr.hpp);
  /// false when all are empty. With every weight at the default 1 this is
  /// exactly the old one-pop-then-advance rotation.
  bool pop_next(Ticket& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (!wrr.pop(out)) return false;
    backlog.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  gpusim::Machine* machine;
  ServiceConfig config;
  sched::BreakerBoard breakers;
  std::optional<sched::DeviceLoadTracker> tracker;
  RetryStats retry_stats;

  mutable std::mutex mu;  ///< guards wrr, accepting, tenant_inflight
  WrrQueues<Ticket> wrr{&config.tenant_weights};
  /// Admission gate for the submit/stop race: stop() flips it to false
  /// under mu *before* setting draining, so every ticket ever pushed
  /// happens-before any observation of draining==true — the source's final
  /// pop (and stop()'s leftover drain) therefore see them all, and no
  /// accepted future is ever stranded unresolved.
  bool accepting = false;
  /// Per-tenant accepted-but-not-completed counts (quota enforcement).
  std::map<std::string, std::shared_ptr<std::atomic<std::int64_t>>,
           std::less<>>
      tenant_inflight;

  flow::FarmController farm_ctl;
  std::thread scaler;
  std::atomic<bool> scaler_stop{false};
  std::atomic<int> workers_active{0};

  std::atomic<bool> running{false};
  std::atomic<bool> draining{false};
  bool started = false;   ///< owner-thread lifecycle state
  bool finished = false;
  std::atomic<std::size_t> backlog{0};
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
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> deadline_miss{0};
  std::atomic<std::uint64_t> scale_ups{0};
  std::atomic<std::uint64_t> scale_downs{0};

  std::mutex tenant_mu;  ///< guards tenant_metrics
  std::map<std::string, TenantCounters, std::less<>> tenant_metrics;

  telemetry::Counter* shed_counter = nullptr;
  telemetry::Counter* miss_counter = nullptr;
  telemetry::Counter* accepted_counter = nullptr;
  telemetry::Counter* completed_counter = nullptr;
  telemetry::Histogram* latency_hist = nullptr;
  telemetry::Counter* quota_counter = nullptr;
  telemetry::Gauge* workers_gauge = nullptr;
  telemetry::Counter* scale_up_counter = nullptr;
  telemetry::Counter* scale_down_counter = nullptr;
  const char* scale_up_span = nullptr;
  const char* scale_down_span = nullptr;

  std::unique_ptr<flow::Pipeline> pipeline;
  std::thread runner;
  Status run_status;
};

}  // namespace detail

namespace {

/// Pipeline source: drains the tenant queues weighted-round-robin (see
/// ServiceConfig::tenant_weights); idles politely
/// when empty and ends the stream once the service is draining and dry.
class SourceNode final : public flow::Node {
 public:
  explicit SourceNode(detail::ServiceImpl* impl) : impl_(impl) {}

  flow::SvcResult svc(flow::Item) override {
    Ticket ticket;
    if (impl_->pop_next(ticket)) return emit(std::move(ticket));
    if (impl_->draining.load(std::memory_order_acquire)) {
      // The failed pop above raced submissions that were still allowed in:
      // a ticket accepted between that pop and this draining read would be
      // stranded by an immediate EOS. stop() closes admission (under the
      // queue mutex) *before* setting draining, so every accepted ticket
      // happens-before this read — one more pop under the mutex observes
      // them all, and only a genuinely dry queue ends the stream.
      if (impl_->pop_next(ticket)) return emit(std::move(ticket));
      return flow::SvcResult::Eos();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return flow::SvcResult::GoOn();
  }

 private:
  static flow::SvcResult emit(Ticket ticket) {
    const std::uint64_t deadline = ticket.deadline_ns;
    flow::Item item = flow::Item::make<Ticket>(std::move(ticket));
    if (deadline != 0) item.set_deadline_ns(deadline);
    return flow::SvcResult::Out(std::move(item));
  }

 private:
  detail::ServiceImpl* impl_;
};

/// Farm worker: executes the job through the JobEngine ladder. Expired
/// items never reach svc() — the flow runtime forwards them unserviced, so
/// an expired job never occupies a GPU slot.
class WorkerNode final : public flow::Node {
 public:
  explicit WorkerNode(detail::ServiceImpl* impl) : impl_(impl) {}

  void on_init(int replica_id) override {
    engine_ = std::make_unique<JobEngine>(
        impl_->machine, &impl_->breakers,
        impl_->tracker.has_value() ? &*impl_->tracker : nullptr,
        impl_->config.retry, &impl_->retry_stats, replica_id);
  }

  flow::SvcResult svc(flow::Item in) override {
    const std::uint64_t deadline = in.deadline_ns();
    Ticket ticket = in.take<Ticket>();
    ticket.result = engine_->run(ticket.request);
    flow::Item out = flow::Item::make<Ticket>(std::move(ticket));
    // Re-arm the envelope deadline so the miss is still visible at the sink
    // if the budget expires between here and completion.
    if (deadline != 0) out.set_deadline_ns(deadline);
    return flow::SvcResult::Out(std::move(out));
  }

  // Frees the engine's device scratch while the machine is still bound.
  void on_end() override { engine_.reset(); }

 private:
  detail::ServiceImpl* impl_;
  std::unique_ptr<JobEngine> engine_;
};

/// Sink: finalizes the ticket — latency, deadline-miss accounting, promise
/// completion — and periodically refreshes the breaker gauges.
class SinkNode final : public flow::Node {
 public:
  explicit SinkNode(detail::ServiceImpl* impl) : impl_(impl) {}

  flow::SvcResult svc(flow::Item in) override {
    const bool expired = in.deadline_expired();
    Ticket ticket = in.take<Ticket>();
    const std::uint64_t now = flow::deadline_clock_now();
    ticket.result.latency_ns =
        now > ticket.submit_ns ? now - ticket.submit_ns : 0;
    ticket.result.deadline_missed =
        expired || (ticket.deadline_ns != 0 && now > ticket.deadline_ns);
    if (expired) {
      // Never executed: the runtime skipped every stage once the budget ran
      // out, so there is no result payload to report.
      ticket.result.status = Aborted("deadline budget exhausted in queue");
    }
    if (ticket.result.deadline_missed) {
      impl_->deadline_miss.fetch_add(1, std::memory_order_relaxed);
      if (impl_->miss_counter != nullptr) impl_->miss_counter->add(1);
      if (auto* tc = impl_->tenant_counters(ticket.tenant); tc != nullptr) {
        tc->deadline_miss->add(1);
      }
    }
    impl_->completed.fetch_add(1, std::memory_order_relaxed);
    if (impl_->completed_counter != nullptr) impl_->completed_counter->add(1);
    if (impl_->latency_hist != nullptr) {
      impl_->latency_hist->record(ticket.result.latency_ns);
    }
    if (ticket.inflight != nullptr) {
      ticket.inflight->fetch_sub(1, std::memory_order_relaxed);
    }
    if (ticket.promise != nullptr) {
      ticket.promise->set_value(std::move(ticket.result));
    }
    if (++since_publish_ >= 64) {
      since_publish_ = 0;
      impl_->breakers.publish();
    }
    return flow::SvcResult::GoOn();
  }

  void on_end() override { impl_->breakers.publish(); }

 private:
  detail::ServiceImpl* impl_;
  int since_publish_ = 0;
};

}  // namespace

Service::Service(gpusim::Machine* machine, ServiceConfig config)
    : impl_(std::make_unique<detail::ServiceImpl>(machine, std::move(config))) {}

Service::~Service() { (void)stop(); }

Status Service::start() {
  if (impl_->started) return FailedPrecondition("service already started");
  impl_->started = true;
  impl_->draining.store(false, std::memory_order_release);

  flow::PipelineOptions opts;
  opts.queue_capacity = impl_->config.queue_capacity;
  opts.telemetry.registry = impl_->config.registry;
  opts.telemetry.spans = impl_->config.spans;
  opts.telemetry.sampler = impl_->config.sampler;
  opts.telemetry.prefix = impl_->config.prefix;
  impl_->pipeline = std::make_unique<flow::Pipeline>(opts);
  detail::ServiceImpl* impl = impl_.get();
  impl_->pipeline->add_stage(std::make_unique<SourceNode>(impl), "ingest");
  const ScalePolicy& scale = impl_->config.scale;
  const bool elastic = scale.enabled();
  flow::FarmOptions farm;
  // Elastic mode provisions the farm at the ceiling and lets the controller
  // bound how many replicas the emitter feeds; the surplus park on empty
  // queues. Fixed mode is byte-identical to the pre-elastic service.
  farm.replicas = elastic ? scale.max_workers : impl_->config.workers;
  farm.ordered = false;
  farm.policy = flow::SchedPolicy::kLeastLoaded;
  farm.controller = elastic ? &impl_->farm_ctl : nullptr;
  impl_->pipeline->add_farm(
      [impl] { return std::make_unique<WorkerNode>(impl); }, farm, "exec");
  impl_->pipeline->add_stage(std::make_unique<SinkNode>(impl), "complete");

  const int initial =
      elastic ? std::clamp(impl_->config.workers, scale.min_workers,
                           scale.max_workers)
              : impl_->config.workers;
  if (elastic) impl_->farm_ctl.set_active(initial);
  impl_->workers_active.store(initial, std::memory_order_relaxed);
  if (impl_->workers_gauge != nullptr) {
    impl_->workers_gauge->set(static_cast<double>(initial));
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->accepting = true;
  }
  impl_->running.store(true, std::memory_order_release);
  impl_->runner = std::thread([impl] {
    Status s = impl->pipeline->run_and_wait();
    impl->run_status = s;  // read only after join in stop()
  });
  if (elastic) {
    impl_->scaler_stop.store(false, std::memory_order_relaxed);
    impl_->scaler = std::thread([impl, scale, initial] {
      ScaleDecider decider(scale, initial, ScaleDecider::Clock::now());
      while (!impl->scaler_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(scale.sample_interval);
        const auto resize = decider.observe(
            ScaleDecider::Clock::now(),
            impl->backlog.load(std::memory_order_relaxed),
            impl->latency_overloaded.load(std::memory_order_relaxed));
        if (!resize.has_value()) continue;
        const int prev = impl->workers_active.load(std::memory_order_relaxed);
        const std::uint64_t t0 = impl->config.spans != nullptr
                                     ? impl->config.spans->now_ns()
                                     : 0;
        impl->farm_ctl.set_active(*resize);
        impl->workers_active.store(*resize, std::memory_order_relaxed);
        if (impl->workers_gauge != nullptr) {
          impl->workers_gauge->set(static_cast<double>(*resize));
        }
        const bool grew = *resize > prev;
        if (grew) {
          impl->scale_ups.fetch_add(1, std::memory_order_relaxed);
          if (impl->scale_up_counter != nullptr) {
            impl->scale_up_counter->add(1);
          }
        } else {
          impl->scale_downs.fetch_add(1, std::memory_order_relaxed);
          if (impl->scale_down_counter != nullptr) {
            impl->scale_down_counter->add(1);
          }
        }
        if (impl->config.spans != nullptr) {
          impl->config.spans->record(
              grew ? impl->scale_up_span : impl->scale_down_span, t0,
              impl->config.spans->now_ns());
        }
      }
    });
  }
  return OkStatus();
}

Status Service::stop() {
  if (!impl_->started) return OkStatus();
  if (impl_->finished) return impl_->run_status;
  impl_->running.store(false, std::memory_order_release);
  // Close admission under the queue mutex BEFORE announcing draining: a
  // submit that already passed the lock-free running check either beats
  // this critical section (its ticket is then visible to the source's
  // final pop) or observes accepting == false and is rejected. Without
  // this ordering a ticket could land in the queue after the source went
  // EOS and its future would never resolve.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->accepting = false;
  }
  impl_->draining.store(true, std::memory_order_release);
  if (impl_->runner.joinable()) impl_->runner.join();
  impl_->scaler_stop.store(true, std::memory_order_release);
  if (impl_->scaler.joinable()) impl_->scaler.join();
  // Belt-and-braces for abnormal ends (watchdog abort, stage failure):
  // a pipeline that died early leaves accepted tickets queued. Resolve
  // every one of them so no caller blocks on a future forever.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    Ticket ticket;
    while (impl_->wrr.pop(ticket)) {
      impl_->backlog.fetch_sub(1, std::memory_order_relaxed);
      impl_->cancelled.fetch_add(1, std::memory_order_relaxed);
      impl_->completed.fetch_add(1, std::memory_order_relaxed);
      if (impl_->completed_counter != nullptr) {
        impl_->completed_counter->add(1);
      }
      if (ticket.inflight != nullptr) {
        ticket.inflight->fetch_sub(1, std::memory_order_relaxed);
      }
      if (ticket.promise != nullptr) {
        ticket.result.status = Aborted("service stopped before the job ran");
        ticket.promise->set_value(std::move(ticket.result));
      }
    }
  }
  impl_->finished = true;
  impl_->breakers.publish();
  return impl_->run_status;
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
  ticket.submit_ns = flow::deadline_clock_now();
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
    // check above can race stop(), but accepting is flipped under mu
    // before draining is announced, so a push from here is guaranteed to
    // be drained (by the source or by stop()'s leftover sweep) rather
    // than stranded behind an EOS.
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
    // increment; the sink (or stop()'s sweep) owns the matching decrement.
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
    impl_->wrr.push(tenant, std::move(ticket));
  }
  impl_->backlog.fetch_add(1, std::memory_order_relaxed);
  impl_->accepted.fetch_add(1, std::memory_order_relaxed);
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
  s.cancelled = impl_->cancelled.load(std::memory_order_relaxed);
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

std::string Service::failure_summary() const {
  if (!impl_->finished || impl_->pipeline == nullptr) return {};
  return impl_->pipeline->failure_report().ToString();
}

}  // namespace hs::serve
