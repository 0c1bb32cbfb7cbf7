// serve_mixed — open loop: Poisson arrivals at one fixed absolute rate into
// serve::Service through in-process submit(), then a ladder of higher
// absolute rates that finds the highest one the service sustains. A bulk
// tenant submits dedup jobs and two interactive tenants submit small mandel
// frames, so serve admission, WRR, the persistent flow pipeline and sched
// all run; the split shows a change that buys one tenant's throughput with
// the other's tail.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cudax/cudax.hpp"
#include "gen.hpp"
#include "gpusim/device.hpp"
#include "serve/jobs.hpp"
#include "serve/service.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sv = hs::serve;

ShedReason classify_reject(const sv::Rejected& rejected) {
  switch (rejected.code) {
    case sv::RejectCode::kQuota:
      return ShedReason::kQuota;
    case sv::RejectCode::kShuttingDown:
      return ShedReason::kShuttingDown;
    case sv::RejectCode::kOverload:
      break;
  }
  if (rejected.detail == "tenant queue full") return ShedReason::kQueueFull;
  if (rejected.detail == "tenant queue over watermark") {
    return ShedReason::kWatermark;
  }
  if (rejected.detail == "p99 latency over budget") return ShedReason::kP99Gate;
  return ShedReason::kUnknown;
}

namespace {

constexpr int kDevices = 2;
constexpr int kWorkers = 4;
/// The fixed offered rate, in jobs/s: an absolute number, about half of the
/// knee measured on a 4-core x86 host, never derived from a calibration.
constexpr double kRate = 800;
/// The max_rate_per_s ladder above kRate, ascending, in jobs/s.
constexpr double kLadder[] = {1250, 1500, 1750, 2000, 2300, 2600};
/// Jobs per ladder step: three p99 windows.
constexpr std::size_t kStepJobs = 3600;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Jobs of a fixed-rate phase at least: each tenant class gets half of
/// them, enough for its own p99 over 10 samples.
constexpr std::size_t kMinPhaseJobs = 2100;
/// Arrivals per window of the fixed-rate p99 (see windowed_p99).
constexpr std::size_t kWindowJobs = 1200;
/// Above the windowed p99 seen below the knee on a 4-core x86 host (under
/// 20 ms up to 2000 jobs/s) and under the tail past it (often 50 ms and up).
constexpr double kP99LimitMs = 30;
/// Backlog growth over the second half of a step tolerated as noise.
constexpr std::size_t kBacklogSlack = 8;
/// Distinct bulk payloads, used in equal shares: enough that the mean job
/// cost hardly depends on the seed.
constexpr std::uint32_t kPayloads = 64;
constexpr std::size_t kBulkBytes = 48 * 1024;
constexpr int kFrameDim = 32;
constexpr int kFrameNiter = 300;
constexpr int kWarmupJobs = 64;
constexpr std::uint64_t kSeedTag = 0x5E7E;

/// Arrival slot n % 4 names the tenant: half the jobs are bulk dedup.
constexpr const char* kTenants[] = {"bulk", "interactive-a", "bulk",
                                    "interactive-b"};
bool is_bulk(std::uint8_t slot) { return slot % 2 == 0; }

struct Arrival {
  std::uint64_t due_ns = 0;
  std::uint8_t slot = 0;
  std::uint32_t variant = 0;  ///< payload or view index
};

/// Seeded job inputs and their CPU-only reference checksums.
struct Mix {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<hs::kernels::MandelParams> views;
  std::vector<std::uint64_t> payload_ref;
  std::vector<std::uint64_t> view_ref;
};

sv::JobRequest request(const Mix& mix, const Arrival& a) {
  sv::JobRequest req;
  if (is_bulk(a.slot)) {
    req.kind = sv::JobKind::kDedup;
    req.payload = mix.payloads[a.variant];
    req.dedup.batch_size = 16 * 1024;
  } else {
    req.kind = sv::JobKind::kMandel;
    req.mandel = mix.views[a.variant];
  }
  return req;
}

std::uint64_t expected(const Mix& mix, const Arrival& a) {
  return is_bulk(a.slot) ? mix.payload_ref[a.variant] : mix.view_ref[a.variant];
}

Mix make_mix(std::uint64_t seed) {
  Mix mix;
  for (std::uint32_t i = 0; i < kPayloads; ++i) {
    mix.payloads.push_back(
        mixed_payload(derive_seed(seed, kSeedTag), i, kBulkBytes));
  }
  for (std::uint32_t k = 0; k < kMandelViews; ++k) {
    mix.views.push_back(mandel_view(k, kFrameDim, kFrameNiter));
  }
  return mix;
}

/// References from a CPU-only JobEngine, the rung every path must match.
void add_references(Mix& mix) {
  sv::JobEngine engine(nullptr, nullptr, nullptr, {}, nullptr, 0);
  Arrival a;
  for (a.variant = 0; a.variant < kPayloads; ++a.variant) {
    a.slot = 0;
    mix.payload_ref.push_back(engine.run(request(mix, a)).checksum);
  }
  for (a.variant = 0; a.variant < kMandelViews; ++a.variant) {
    a.slot = 1;
    mix.view_ref.push_back(engine.run(request(mix, a)).checksum);
  }
}

/// `count` Poisson arrivals at `rate`; the seed fixes times and job picks.
std::vector<Arrival> schedule(std::uint64_t seed, std::uint64_t phase,
                              double rate, std::size_t count) {
  const std::uint64_t s = derive_seed(seed, kSeedTag, phase + 1);
  const std::vector<std::uint64_t> due = poisson_schedule(s, rate, count);
  CyclicOrder payloads(derive_seed(s, 1), kPayloads);
  CyclicOrder views(derive_seed(s, 2), kMandelViews);
  std::vector<Arrival> out(count);
  for (std::size_t n = 0; n < count; ++n) {
    out[n].due_ns = due[n];
    out[n].slot = static_cast<std::uint8_t>(n % 4);
    out[n].variant = is_bulk(out[n].slot) ? payloads.next() : views.next();
  }
  return out;
}

/// A Machine bound to the CUDA shim and a started Service over it.
class Rig {
 public:
  explicit Rig(hs::telemetry::Registry* registry)
      : machine_(hs::gpusim::Machine::Create(
            kDevices, hs::gpusim::DeviceSpec::TitanXP())) {
    hs::cudax::bind_machine(machine_.get());
    sv::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.sched = hs::sched::SchedMode::kAdaptive;
    cfg.registry = registry;
    service_ = std::make_unique<sv::Service>(machine_.get(), cfg);
    started_ = service_->start();
  }
  ~Rig() {
    service_.reset();
    hs::cudax::unbind_machine();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] const hs::Status& started() const { return started_; }
  sv::Service& service() { return *service_; }

 private:
  std::unique_ptr<hs::gpusim::Machine> machine_;
  std::unique_ptr<sv::Service> service_;
  hs::Status started_;
};

/// Everything one open-loop phase measured.
struct Phase {
  Samples latency_ms;  ///< from each job's due time
  Samples bulk_ms;
  Samples interactive_ms;
  Samples admit_us;    ///< duration of the submit() call
  Samples late_ms;     ///< how late the generator submitted
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;  ///< errored or mismatched outputs
  std::array<std::uint64_t, 6> by_reason{};
  std::array<std::uint64_t, kDevices + 1> by_device{};  ///< [0] = CPU
  double service_latency_s = 0;  ///< sum of JobResult.latency_ns
  double window_s = 0;
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  /// Latency of each arrival in schedule order (+inf when it failed).
  std::vector<double> by_arrival_ms;
  Ledger ledger;

  [[nodiscard]] bool meets_limits(double p99_ms) const {
    return shed == 0 && wrong == 0 && p99_ms < kP99LimitMs &&
           backlog_end <= backlog_mid + kBacklogSlack;
  }
};

Phase run_phase(sv::Service& service, const Mix& mix,
                const std::vector<Arrival>& arrivals) {
  struct Pending {
    std::future<sv::JobResult> result;
    std::size_t index;
    double late_s;
  };
  Phase p;
  p.by_arrival_ms.assign(arrivals.size(), kInf);
  std::vector<Pending> pending;
  pending.reserve(arrivals.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const auto due = start + std::chrono::nanoseconds(a.due_ns);
    {
      PhaseTimer t(p.ledger, "gen.idle");
      std::this_thread::sleep_until(due);
    }
    sv::JobRequest req;
    {
      PhaseTimer t(p.ledger, "gen.request");
      req = request(mix, a);
    }
    const auto call = Clock::now();
    sv::SubmitResult r = service.submit(kTenants[a.slot], std::move(req));
    const auto back = Clock::now();
    p.ledger.add("serve.submit", seconds_between(call, back));
    const double late_s = std::max(0.0, seconds_between(due, call));
    p.admit_us.add(seconds_between(call, back) * 1e6);
    p.late_ms.add(late_s * 1e3);
    ++p.attempted;
    if (r.accepted()) {
      pending.push_back({std::move(r.result), i, late_s});
    } else {
      ++p.shed;
      ++p.by_reason[static_cast<std::size_t>(classify_reject(*r.rejected))];
      p.latency_ms.add_failed();
      (is_bulk(a.slot) ? p.bulk_ms : p.interactive_ms).add_failed();
    }
    if (i + 1 == arrivals.size() / 2) p.backlog_mid = service.backlog();
  }
  p.backlog_end = service.backlog();
  for (Pending& job : pending) {
    const Arrival& a = arrivals[job.index];
    sv::JobResult res;
    {
      PhaseTimer t(p.ledger, "serve.wait");
      res = job.result.get();
    }
    Samples& tenant = is_bulk(a.slot) ? p.bulk_ms : p.interactive_ms;
    if (!res.status.ok() || res.checksum != expected(mix, a)) {
      ++p.wrong;
      p.latency_ms.add_failed();
      tenant.add_failed();
      continue;
    }
    ++p.ok;
    const double ms =
        (job.late_s + static_cast<double>(res.latency_ns) / 1e9) * 1e3;
    p.latency_ms.add(ms);
    p.by_arrival_ms[job.index] = ms;
    tenant.add(ms);
    p.service_latency_s += static_cast<double>(res.latency_ns) / 1e9;
    ++p.by_device[static_cast<std::size_t>(res.device + 1)];
  }
  p.window_s = seconds_between(start, Clock::now());
  p.ledger.add_wall(p.window_s);
  return p;
}

/// Closed-loop warm-up of a fresh rig: a fixed number of jobs, all waited.
bool warm_up(Rig& rig, const Mix& mix, std::uint64_t seed) {
  const std::vector<Arrival> jobs = schedule(seed, 0x3A, kRate, kWarmupJobs);
  bool ok = rig.started().ok();
  for (const Arrival& a : jobs) {
    if (!ok) break;
    sv::SubmitResult r = rig.service().submit(kTenants[a.slot], request(mix, a));
    ok = r.accepted() && r.result.get().checksum == expected(mix, a);
  }
  return ok;
}

/// Inputs, references and the seeded schedules of one run.
struct Inputs {
  Mix mix;
  std::vector<Arrival> fixed;
};

Inputs make_inputs(const Options& opt, double fixed_s) {
  const auto t0 = Clock::now();
  Inputs in{make_mix(opt.seed),
            schedule(opt.seed, 0, kRate,
                     std::max(kMinPhaseJobs,
                              static_cast<std::size_t>(kRate * fixed_s)))};
  const auto t1 = Clock::now();
  add_references(in.mix);
  std::fprintf(stderr,
               "[serve_mixed] synthesis %.3f s (not set-up), references "
               "%.3f s\n",
               seconds_between(t0, t1), seconds_between(t1, Clock::now()));
  return in;
}

/// The fixed phase's p99: the median, over consecutive windows of
/// kWindowJobs arrivals, of each window's nearest-rank p99. A host stall
/// lifts the one window it lands in, not the run's figure.
std::optional<double> windowed_p99(const std::vector<double>& by_arrival_ms) {
  std::vector<double> p99s;
  for (std::size_t at = 0; at + kWindowJobs <= by_arrival_ms.size();
       at += kWindowJobs) {
    Samples window;
    for (std::size_t i = at; i < at + kWindowJobs; ++i) {
      window.add(by_arrival_ms[i]);
    }
    const std::optional<double> p99 = window.percentile(0.99);
    if (!p99) return std::nullopt;
    p99s.push_back(*p99);
  }
  if (p99s.empty()) return std::nullopt;
  return median(p99s);
}

}  // namespace

void serve_mixed_e2e(const Options& opt, Outcome& out) {
  // The fixed rate runs for --seconds; the ladder probe comes after it.
  const Inputs in = make_inputs(opt, opt.seconds);
  std::unique_ptr<Rig> rig;
  const std::vector<double> setups = timed_setups(
      kSetupReps,
      [&] {
        rig = std::make_unique<Rig>(nullptr);
        if (!warm_up(*rig, in.mix, opt.seed)) {
          out.fail("serve_mixed: warm-up failed or mismatched");
        }
      },
      [&] { rig.reset(); });

  Phase fixed = run_phase(rig->service(), in.mix, in.fixed);
  // Memory at the fixed rate: the ladder's overload steps hold a backlog of
  // payloads whose size depends on how far the ladder climbs.
  const double rss_mb = peak_rss_mb();
  out.attempted += fixed.attempted;
  out.failed += fixed.attempted - fixed.ok;
  if (fixed.wrong != 0) {
    out.fail(std::to_string(fixed.wrong) + " jobs errored or mismatched");
  }
  if (fixed.shed != 0) {
    out.fail(std::to_string(fixed.shed) + " jobs shed at the fixed rate");
  }
  std::fprintf(stderr,
               "[serve_mixed] fixed %.0f/s: %llu jobs, backlog %zu -> %zu\n",
               kRate, static_cast<unsigned long long>(fixed.attempted),
               fixed.backlog_mid, fixed.backlog_end);

  // The ladder: ascending absolute rates until one breaks a limit. Sheds
  // above the knee are its signal, not failed ops; wrong outputs still are.
  const std::optional<double> fixed_p99 = windowed_p99(fixed.by_arrival_ms);
  double max_rate = fixed.meets_limits(fixed_p99.value_or(kInf)) ? kRate : 0.0;
  for (std::size_t step = 0; max_rate != 0.0 && step < std::size(kLadder);
       ++step) {
    const double rate = kLadder[step];
    Phase p = run_phase(rig->service(), in.mix,
                        schedule(opt.seed, step + 1, rate, kStepJobs));
    const double p99 = windowed_p99(p.by_arrival_ms).value_or(kInf);
    std::fprintf(stderr,
                 "[serve_mixed] ladder %.0f/s: p99 %.2f ms, shed %llu, "
                 "backlog %zu -> %zu\n",
                 rate, p99, static_cast<unsigned long long>(p.shed),
                 p.backlog_mid, p.backlog_end);
    if (p.wrong != 0) {
      out.fail(std::to_string(p.wrong) + " ladder jobs errored or mismatched");
    }
    if (!p.meets_limits(p99)) break;
    max_rate = rate;
  }
  emit_e2e(out, static_cast<double>(fixed.ok) / fixed.window_s,
           fixed.latency_ms.percentile(0.5), fixed_p99, max_rate, setups,
           rss_mb);
}

void serve_mixed_layers(const Options& opt, bool home, Outcome& out) {
  // A visiting probe runs one traced phase of kMinPhaseJobs; a home run
  // also runs an untraced phase of the same length to price the telemetry.
  const Inputs in = make_inputs(opt, home ? opt.seconds / 2 : 0.0);

  double untraced_p50 = 0;
  if (home) {
    Rig rig(nullptr);
    if (!warm_up(rig, in.mix, opt.seed)) out.fail("serve_mixed: warm-up");
    Phase p = run_phase(rig.service(), in.mix, in.fixed);
    untraced_p50 = out.require(p.latency_ms.percentile(0.5), "untraced p50");
  }

  hs::telemetry::Registry registry;
  hs::telemetry::SpanRecorder& spans = hs::telemetry::SpanRecorder::Default();
  Rig rig(&registry);
  if (!warm_up(rig, in.mix, opt.seed)) out.fail("serve_mixed: warm-up");
  registry.reset_values();
  spans.reset();
  hs::telemetry::set_enabled(true);
  spans.set_recording(true);
  const CounterMark mark = mark_counters();
  Phase p = run_phase(rig.service(), in.mix, in.fixed);
  spans.set_recording(false);
  hs::telemetry::set_enabled(false);
  const hs::telemetry::MetricsSnapshot snap = registry.snapshot();
  const sv::ServiceStats stats = rig.service().stats();
  const std::uint64_t steals = span_sum("sched.steal").count + spans.dropped();
  spans.reset();
  if (p.wrong != 0) out.fail("serve_mixed: traced jobs mismatched");

  out.metric("serve.admit_us_p50", out.require(p.admit_us.percentile(0.5),
                                               "serve.admit_us_p50"),
             "us");
  out.metric("serve.admit_us_p99", out.require(p.admit_us.percentile(0.99),
                                               "serve.admit_us_p99"),
             "us");
  double exec_s = 0;
  std::uint64_t exec_n = 0;
  double sink_s = 0;
  std::uint64_t sink_n = 0;
  for (const auto& h : snap.histograms) {
    if (h.name.starts_with("serve.exec.w") && h.name.ends_with(".svc_ns")) {
      exec_s += static_cast<double>(h.hist.sum) / 1e9;
      exec_n += h.hist.count;
    } else if (h.name == "serve.complete.svc_ns") {
      sink_s = static_cast<double>(h.hist.sum) / 1e9;
      sink_n = h.hist.count;
    }
  }
  const double exec_ms = exec_n != 0 ? exec_s / exec_n * 1e3 : 0.0;
  const double sink_ms = sink_n != 0 ? sink_s / sink_n * 1e3 : 0.0;
  const double latency_ms =
      p.ok != 0 ? p.service_latency_s / static_cast<double>(p.ok) * 1e3 : 0.0;
  out.metric("serve.exec_ms_mean", exec_ms, "ms");
  out.metric("serve.wait_ms_mean", latency_ms - exec_ms - sink_ms, "ms");
  out.metric("serve.tenant.bulk.p99_ms",
             out.require(p.bulk_ms.percentile(0.99), "bulk p99"), "ms");
  out.metric("serve.tenant.interactive.p99_ms",
             out.require(p.interactive_ms.percentile(0.99), "interactive p99"),
             "ms");
  const auto reason = [&](ShedReason r) {
    return static_cast<double>(p.by_reason[static_cast<std::size_t>(r)]);
  };
  out.metric("serve.shed.queue_full", reason(ShedReason::kQueueFull), "count");
  out.metric("serve.shed.watermark", reason(ShedReason::kWatermark), "count");
  out.metric("serve.shed.p99_gate", reason(ShedReason::kP99Gate), "count");
  out.metric("serve.quota", reason(ShedReason::kQuota), "count");
  out.metric("serve.cpu_jobs", static_cast<double>(stats.cpu_jobs), "count");
  out.metric("serve.breaker_trips", static_cast<double>(stats.breaker_trips),
             "count");
  std::uint64_t most = 0;
  std::uint64_t least = ~std::uint64_t{0};
  for (std::size_t d = 1; d < p.by_device.size(); ++d) {
    most = std::max(most, p.by_device[d]);
    least = std::min(least, p.by_device[d]);
  }
  out.metric("sched.device_skew",
             static_cast<double>(most) /
                 static_cast<double>(std::max<std::uint64_t>(least, 1)),
             "ratio");
  out.metric("sched.steals_per_1k",
             1e3 * static_cast<double>(steals) /
                 static_cast<double>(std::max<std::uint64_t>(p.ok, 1)),
             "count");
  out.metric("gen.late_ms_p99",
             out.require(p.late_ms.percentile(0.99), "gen.late_ms_p99"), "ms");
  out.metric("gen.late_ms_max", p.late_ms.max(), "ms");

  if (home) {
    TracedWindow w;
    w.ops = p.attempted;
    w.failed = p.attempted - p.ok;
    const double traced_p50 =
        out.require(p.latency_ms.percentile(0.5), "traced p50");
    w.overhead_pct =
        untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0;
    read_layers(snap, p.window_s, p.attempted, mark, w);
    emit_generic(w, p.ledger.unattributed_pct(), out);
  }
}

}  // namespace perfbench
