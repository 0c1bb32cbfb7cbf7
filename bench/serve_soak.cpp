// Chaos-soak harness for the serve layer: open-loop Poisson/bursty load
// against the multi-tenant Service, with fault injection and the adaptive
// scheduler running simultaneously.
//
// Three phases:
//   1. calibrate — closed-loop measurement of the per-job service time on a
//      clean machine; saturation ~= workers / t_job.
//   2. curve     — open-loop runs at 0.25x..2x saturation, recording the
//      tail latency of accepted jobs plus shed / deadline-miss counts
//      (the tail-latency-vs-offered-load curve).
//   3. soak      — --duration seconds at 2x saturation with --faults
//      injected on every device for the first 70% of the run (the chaos
//      window), then cleared so tripped breakers must recover to closed.
//
// Exit is non-zero when the soak violates its envelope: pipeline failure,
// breaker stuck open after the chaos window, no shedding at 2x overload,
// or an unbounded accepted-job p99. Results land in --json (default
// BENCH_serve.json); --trace/--metrics capture the usual telemetry.
//
// Examples (each is one command line):
//   serve_soak --quick
//   serve_soak --duration=30 --faults=launch.p=0.02,alloc.p=0.01
//              --sched=adaptive --json=BENCH_serve.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault_plan.hpp"
#include "serve/service.hpp"

namespace hs {
namespace {

using Clock = std::chrono::steady_clock;

struct SoakOptions {
  int devices = 2;
  int workers = 4;
  int tenants = 3;
  double duration_s = 10.0;       ///< soak phase
  double curve_point_s = 1.0;     ///< per curve point
  bool skip_curve = false;
  bool skip_elastic = false;      ///< skip the elastic-vs-fixed comparison
  double elastic_phase_s = 0;     ///< per elastic phase; 0 = auto
  std::string faults;             ///< FaultPlan spec applied to every device
  double fault_window = 0.7;      ///< fraction of the soak with faults live
  sched::SchedMode sched = sched::SchedMode::kStatic;
  bool bursty = false;            ///< Poisson bursts of `burst` arrivals
  int burst = 8;
  int dim = 32;                   ///< mandel job frame
  int niter = 300;
  std::uint64_t payload_bytes = 48 * 1024;  ///< dedup job input
  double deadline_ms = 0;         ///< 0 = auto (20x calibrated job time)
  std::uint64_t seed = 42;
  std::string json_path = "BENCH_serve.json";
};

struct PhaseResult {
  double offered_mult = 0;   ///< offered load as a multiple of saturation
  double offered_rate = 0;   ///< jobs/s
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_miss = 0;
  std::uint64_t cpu_jobs = 0;
  std::uint64_t breaker_trips = 0;
  int breakers_open_end = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  std::string failure;
};

serve::JobRequest make_job(const SoakOptions& opt,
                           const std::vector<std::uint8_t>& payload,
                           std::uint64_t n) {
  serve::JobRequest req;
  if (n % 2 == 0) {
    req.kind = serve::JobKind::kMandel;
    req.mandel.dim = opt.dim;
    req.mandel.niter = opt.niter;
  } else {
    req.kind = serve::JobKind::kDedup;
    req.payload = payload;
    req.dedup.batch_size = 16 * 1024;
  }
  return req;
}

serve::ServiceConfig service_config(const SoakOptions& opt,
                                    telemetry::Registry* reg,
                                    std::uint64_t deadline_ns) {
  serve::ServiceConfig cfg;
  cfg.workers = opt.workers;
  cfg.sched = opt.sched;
  cfg.registry = reg;
  cfg.default_deadline_ns = deadline_ns;
  // Keep total standing work (the tenant watermarks) below what the
  // deadline budget can absorb, so queue-depth admission control — not
  // just deadline expiry — is what bounds the backlog under overload.
  cfg.tenant_queue_capacity = 16;
  // Latency watermark: shed while the windowed p99 exceeds the deadline
  // budget (the point where accepted work is mostly wasted anyway).
  cfg.p99_shed_budget_ns = deadline_ns;
  cfg.retry.base_delay = std::chrono::microseconds(20);
  cfg.retry.max_delay = std::chrono::microseconds(2000);
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown = std::chrono::milliseconds(5);
  return cfg;
}

/// Closed-loop: measures the mean per-job wall time on a clean machine.
double calibrate_job_seconds(const SoakOptions& opt,
                             const std::vector<std::uint8_t>& payload) {
  auto machine = gpusim::Machine::Create(opt.devices,
                                         gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  serve::Service service(machine.get(), service_config(opt, &reg, 0));
  if (!service.start().ok()) {
    std::fprintf(stderr, "[soak] calibrate: service failed to start\n");
    std::exit(1);
  }
  constexpr int kJobs = 16;
  const auto t0 = Clock::now();
  for (int i = 0; i < kJobs; ++i) {
    auto r = service.submit("calibrate",
                            make_job(opt, payload,
                                     static_cast<std::uint64_t>(i)));
    if (!r.accepted()) {
      std::fprintf(stderr, "[soak] calibrate: submission rejected\n");
      std::exit(1);
    }
    (void)r.result.get();
  }
  const std::chrono::duration<double> dt = Clock::now() - t0;
  (void)service.stop();
  cudax::unbind_machine();
  return dt.count() / kJobs;
}

/// Open-loop phase driver: Poisson (or bursty) arrivals at `rate` jobs/s
/// for `seconds`, against a fresh machine. `fault_spec` (if any) is armed
/// on every device and cleared after `fault_window` of the phase.
PhaseResult run_open_loop(const SoakOptions& opt,
                          const std::vector<std::uint8_t>& payload,
                          double rate, double seconds,
                          const std::string& fault_spec, double fault_window,
                          std::uint64_t deadline_ns, const char* label) {
  PhaseResult out;
  out.offered_rate = rate;
  auto machine = gpusim::Machine::Create(opt.devices,
                                         gpusim::DeviceSpec::TitanXP());
  if (!fault_spec.empty()) {
    for (int d = 0; d < machine->device_count(); ++d) {
      // Decorrelate the per-device fault streams unless the spec pins one.
      std::string spec = fault_spec;
      if (spec.find("seed=") == std::string::npos) {
        spec = "seed=" + std::to_string(opt.seed + 100 + static_cast<std::uint64_t>(d)) +
               "," + spec;
      }
      auto plan = gpusim::FaultPlan::Parse(spec);
      if (!plan.ok()) {
        std::fprintf(stderr, "[soak] bad --faults spec: %s\n",
                     plan.status().ToString().c_str());
        std::exit(1);
      }
      machine->device(d).set_fault_plan(std::move(plan).value());
    }
  }
  cudax::bind_machine(machine.get());
  telemetry::Registry reg;
  serve::Service service(machine.get(),
                         service_config(opt, &reg, deadline_ns));
  if (!service.start().ok()) {
    std::fprintf(stderr, "[soak] %s: service failed to start\n", label);
    std::exit(1);
  }

  Xoshiro256 rng(opt.seed ^ 0x5048415345ull);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto chaos_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds * fault_window));
  bool chaos_cleared = fault_spec.empty();
  double next_arrival = 0;  // seconds since start
  std::uint64_t n = 0;
  while (Clock::now() < deadline) {
    if (!chaos_cleared && Clock::now() >= chaos_end) {
      // Close the chaos window: the remaining run must let every tripped
      // breaker probe its device back to closed.
      for (int d = 0; d < machine->device_count(); ++d) {
        machine->device(d).clear_fault_plan();
      }
      chaos_cleared = true;
    }
    const int arrivals = opt.bursty ? opt.burst : 1;
    for (int k = 0; k < arrivals; ++k) {
      const std::string tenant =
          "tenant-" + std::to_string(n % static_cast<std::uint64_t>(opt.tenants));
      auto r = service.submit(tenant, make_job(opt, payload, n),
                              /*want_result=*/false);
      (void)r;
      ++n;
    }
    // Poisson inter-arrival for the next batch (bursty mode stretches the
    // gap by the burst size so the mean offered rate stays `rate`).
    const double u = std::max(rng.uniform(), 1e-12);
    next_arrival += -std::log(u) / rate * arrivals;
    const auto wake = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(next_arrival));
    std::this_thread::sleep_until(std::min(wake, deadline));
  }
  Status run = service.stop();
  cudax::unbind_machine();

  const auto stats = service.stats();
  out.submitted = stats.submitted;
  out.accepted = stats.accepted;
  out.shed = stats.shed;
  out.completed = stats.completed;
  out.deadline_miss = stats.deadline_miss;
  out.cpu_jobs = stats.cpu_jobs;
  out.breaker_trips = stats.breaker_trips;
  out.breakers_open_end = stats.breakers_open;
  const auto lat = service.latency();
  out.p50_ms = lat.p50() / 1e6;
  out.p95_ms = lat.p95() / 1e6;
  out.p99_ms = lat.p99() / 1e6;
  if (!run.ok()) out.failure = run.ToString();
  std::fprintf(stderr,
               "[soak] %-10s rate=%7.1f/s submitted=%llu accepted=%llu "
               "shed=%llu miss=%llu cpu=%llu trips=%llu open@end=%d "
               "p99=%.2fms\n",
               label, rate, static_cast<unsigned long long>(out.submitted),
               static_cast<unsigned long long>(out.accepted),
               static_cast<unsigned long long>(out.shed),
               static_cast<unsigned long long>(out.deadline_miss),
               static_cast<unsigned long long>(out.cpu_jobs),
               static_cast<unsigned long long>(out.breaker_trips),
               out.breakers_open_end, out.p99_ms);
  return out;
}

/// One load phase of the elastic-vs-fixed comparison.
struct ElasticPhaseResult {
  std::string name;
  double offered_mult = 0;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  double mean_workers = 0;  ///< sampled stats().workers_active over the phase
  double mean_workers_second_half = 0;  ///< the same over its second half
  double p99_ms = 0;        ///< completions within the phase window
};

/// One full trough/peak/trough run of a single service configuration.
struct ElasticLegResult {
  std::vector<ElasticPhaseResult> phases;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::string failure;
};

/// The elastic legs run kSynthetic jobs: each occupies its worker for a
/// fixed wall-clock duration, so farm capacity is exactly
/// workers / duration on any host — real-execution jobs (mandel/dedup)
/// are compute-bound on this machine's cores, where adding farm workers
/// beyond the core count adds buffering, not throughput, and the
/// elastic-vs-fixed comparison would measure the scheduler, not the farm.
constexpr std::uint64_t kElasticJobNs = 2'000'000;  // 2ms

serve::JobRequest make_synthetic_job() {
  serve::JobRequest req;
  req.kind = serve::JobKind::kSynthetic;
  req.synthetic_ns = kElasticJobNs;
  return req;
}

/// Elastic leg: one service lives through a trough(0.3x) / peak(2x) /
/// trough(0.3x) offered-load curve — the same curve for the fixed-farm
/// baseline and the elastic farm, so their peak p99 and trough worker
/// counts are directly comparable. The service is CPU-only (no machine)
/// and the jobs are synthetic worker-blocking sleeps, so capacity is
/// proportional to fed workers and the farm resize — not device or core
/// contention — is what the p99 measures. Deadlines and the p99 admission
/// gate are off (the tenant queue caps still bound the backlog): the
/// measured p99 reflects queueing + service time, not which jobs admission
/// let through.
ElasticLegResult run_elastic_leg(const SoakOptions& opt,
                                 const std::vector<std::uint8_t>& payload,
                                 double saturation, bool elastic,
                                 double phase_seconds) {
  (void)payload;
  ElasticLegResult out;
  telemetry::Registry reg;
  serve::ServiceConfig cfg = service_config(opt, &reg, 0);
  cfg.p99_shed_budget_ns = 0;
  if (elastic) {
    cfg.scale.min_workers = 1;
    cfg.scale.max_workers = 2 * opt.workers;
    cfg.scale.scale_up_watermark = 8;
    // Windows sized well under a phase so several grow steps fit in the
    // peak and the farm can walk back down within one trough.
    cfg.scale.sample_interval = std::chrono::milliseconds(2);
    cfg.scale.sample_window = std::chrono::milliseconds(20);
    cfg.scale.scale_down_idle_window = std::chrono::milliseconds(100);
    cfg.scale.cooldown = std::chrono::milliseconds(40);
  }
  serve::Service service(nullptr, cfg);
  if (!service.start().ok()) {
    std::fprintf(stderr, "[soak] elastic: service failed to start\n");
    std::exit(1);
  }

  struct PhaseSpec {
    const char* name;
    double mult;
  };
  const PhaseSpec specs[3] = {{"trough", 0.3}, {"peak", 2.0},
                              {"cooldown", 0.3}};

  // Worker-count sampler: per phase, the mean over the whole phase and
  // over its second half. The shrink gate checks the cooldown's second
  // half: the whole-phase mean also holds the walk down from the peak's
  // ceiling, one step per idle window. Fixed farms sample flat at
  // opt.workers.
  struct WorkerAcc {
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> samples{0};

    void add(int workers) {
      sum.fetch_add(static_cast<std::uint64_t>(workers),
                    std::memory_order_relaxed);
      samples.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] double mean(int otherwise) const {
      const std::uint64_t n = samples.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<double>(
                         sum.load(std::memory_order_relaxed)) /
                         static_cast<double>(n)
                   : static_cast<double>(otherwise);
    }
  };
  WorkerAcc acc[3];
  WorkerAcc second_half[3];
  std::atomic<int> phase_index{-1};
  std::atomic<Clock::rep> phase_half_at{0};  ///< Clock ticks since epoch
  std::atomic<bool> sampler_stop{false};
  std::thread sampler([&] {
    while (!sampler_stop.load(std::memory_order_acquire)) {
      // Acquire pairs with the phase's release below, so a sample of a new
      // phase reads that phase's half-time.
      const int ph = phase_index.load(std::memory_order_acquire);
      if (ph >= 0 && ph < 3) {
        const int workers = service.stats().workers_active;
        acc[ph].add(workers);
        if (Clock::now().time_since_epoch().count() >=
            phase_half_at.load(std::memory_order_relaxed)) {
          second_half[ph].add(workers);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Xoshiro256 rng(opt.seed ^ 0x454c4153544943ull);
  telemetry::HistogramSnapshot lat_base = service.latency();
  std::uint64_t n = 0;
  for (int ph = 0; ph < 3; ++ph) {
    const double rate = saturation * specs[ph].mult;
    const std::uint64_t sub0 = service.stats().submitted;
    const std::uint64_t shed0 = service.stats().shed;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_seconds));
    phase_half_at.store((start + (deadline - start) / 2)
                            .time_since_epoch()
                            .count(),
                        std::memory_order_relaxed);
    phase_index.store(ph, std::memory_order_release);
    double next_arrival = 0;
    while (Clock::now() < deadline) {
      const std::string tenant =
          "tenant-" +
          std::to_string(n % static_cast<std::uint64_t>(opt.tenants));
      (void)service.submit(tenant, make_synthetic_job(),
                           /*want_result=*/false);
      ++n;
      const double u = std::max(rng.uniform(), 1e-12);
      next_arrival += -std::log(u) / rate;
      const auto wake =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(next_arrival));
      std::this_thread::sleep_until(std::min(wake, deadline));
    }
    phase_index.store(-1, std::memory_order_relaxed);

    ElasticPhaseResult pr;
    pr.name = specs[ph].name;
    pr.offered_mult = specs[ph].mult;
    const auto stats = service.stats();
    pr.submitted = stats.submitted - sub0;
    pr.shed = stats.shed - shed0;
    pr.mean_workers = acc[ph].mean(opt.workers);
    pr.mean_workers_second_half = second_half[ph].mean(opt.workers);
    // Phase p99 over the completions that landed inside the phase window
    // (snapshot diff, same scheme as the service's own admission gate).
    telemetry::HistogramSnapshot window = service.latency();
    const telemetry::HistogramSnapshot snap = window;
    window.count -= lat_base.count;
    window.sum -= lat_base.sum;
    for (std::size_t b = 0; b < window.buckets.size(); ++b) {
      window.buckets[b] -= lat_base.buckets[b];
    }
    pr.p99_ms = window.count > 0 ? window.p99() / 1e6 : 0.0;
    lat_base = snap;
    out.phases.push_back(std::move(pr));
  }

  sampler_stop.store(true, std::memory_order_release);
  sampler.join();
  Status run = service.stop();

  const auto stats = service.stats();
  out.accepted = stats.accepted;
  out.completed = stats.completed;
  out.scale_ups = stats.scale_ups;
  out.scale_downs = stats.scale_downs;
  if (!run.ok()) out.failure = run.ToString();
  for (const ElasticPhaseResult& pr : out.phases) {
    std::fprintf(stderr,
                 "[soak] %-10s %-8s rate=%4.1fx submitted=%llu shed=%llu "
                 "mean_workers=%.2f (second half %.2f) p99=%.2fms\n",
                 elastic ? "elastic" : "fixed", pr.name.c_str(),
                 pr.offered_mult,
                 static_cast<unsigned long long>(pr.submitted),
                 static_cast<unsigned long long>(pr.shed), pr.mean_workers,
                 pr.mean_workers_second_half, pr.p99_ms);
  }
  std::fprintf(stderr, "[soak] %-10s scale_ups=%llu scale_downs=%llu\n",
               elastic ? "elastic" : "fixed",
               static_cast<unsigned long long>(out.scale_ups),
               static_cast<unsigned long long>(out.scale_downs));
  return out;
}

void write_json(const SoakOptions& opt, double job_s, double saturation,
                const std::vector<PhaseResult>& curve,
                const PhaseResult& soak, const ElasticLegResult* fixed_leg,
                const ElasticLegResult* elastic_leg) {
  // The document is printed into memory, then written and checked whole.
  char* doc = nullptr;
  std::size_t doc_len = 0;
  FILE* f = open_memstream(&doc, &doc_len);
  if (f == nullptr) {
    std::fprintf(stderr, "[soak] cannot buffer %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  auto phase_json = [&](const PhaseResult& p) {
    std::fprintf(f,
                 "    {\"offered_mult\": %.3f, \"offered_rate\": %.2f, "
                 "\"submitted\": %llu, \"accepted\": %llu, \"shed\": %llu, "
                 "\"completed\": %llu, \"deadline_miss\": %llu, "
                 "\"cpu_jobs\": %llu, \"breaker_trips\": %llu, "
                 "\"breakers_open_end\": %d, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"failure\": \"%s\"}",
                 p.offered_mult, p.offered_rate,
                 static_cast<unsigned long long>(p.submitted),
                 static_cast<unsigned long long>(p.accepted),
                 static_cast<unsigned long long>(p.shed),
                 static_cast<unsigned long long>(p.completed),
                 static_cast<unsigned long long>(p.deadline_miss),
                 static_cast<unsigned long long>(p.cpu_jobs),
                 static_cast<unsigned long long>(p.breaker_trips),
                 p.breakers_open_end, p.p50_ms, p.p95_ms, p.p99_ms,
                 p.failure.c_str());
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_soak\",\n");
  std::fprintf(f, "  \"devices\": %d,\n  \"workers\": %d,\n", opt.devices,
               opt.workers);
  std::fprintf(f, "  \"sched\": \"%s\",\n",
               opt.sched == sched::SchedMode::kAdaptive ? "adaptive"
                                                        : "static");
  std::fprintf(f, "  \"faults\": \"%s\",\n", opt.faults.c_str());
  std::fprintf(f, "  \"bursty\": %s,\n", opt.bursty ? "true" : "false");
  std::fprintf(f, "  \"job_seconds\": %.6f,\n", job_s);
  std::fprintf(f, "  \"saturation_jobs_per_sec\": %.2f,\n", saturation);
  std::fprintf(f, "  \"curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    phase_json(curve[i]);
    std::fprintf(f, "%s\n", i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"soak\": \n");
  phase_json(soak);
  if (fixed_leg != nullptr && elastic_leg != nullptr) {
    auto leg_json = [&](const char* key, const ElasticLegResult& leg) {
      std::fprintf(f, "    \"%s\": {\"scale_ups\": %llu, "
                   "\"scale_downs\": %llu, \"accepted\": %llu, "
                   "\"completed\": %llu, \"failure\": \"%s\", "
                   "\"phases\": [\n",
                   key, static_cast<unsigned long long>(leg.scale_ups),
                   static_cast<unsigned long long>(leg.scale_downs),
                   static_cast<unsigned long long>(leg.accepted),
                   static_cast<unsigned long long>(leg.completed),
                   leg.failure.c_str());
      for (std::size_t i = 0; i < leg.phases.size(); ++i) {
        const ElasticPhaseResult& p = leg.phases[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"offered_mult\": %.2f, "
                     "\"submitted\": %llu, \"shed\": %llu, "
                     "\"mean_workers\": %.2f, "
                     "\"mean_workers_second_half\": %.2f, "
                     "\"p99_ms\": %.3f}%s\n",
                     p.name.c_str(), p.offered_mult,
                     static_cast<unsigned long long>(p.submitted),
                     static_cast<unsigned long long>(p.shed),
                     p.mean_workers, p.mean_workers_second_half, p.p99_ms,
                     i + 1 < leg.phases.size() ? "," : "");
      }
      std::fprintf(f, "    ]}");
    };
    std::fprintf(f, ",\n  \"elastic_compare\": {\n");
    leg_json("fixed", *fixed_leg);
    std::fprintf(f, ",\n");
    leg_json("elastic", *elastic_leg);
    std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  const Status written =
      write_file(opt.json_path, std::string_view(doc, doc_len));
  std::free(doc);
  if (!written.ok()) {
    std::fprintf(stderr, "[soak] %s\n", written.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "[soak] results written to %s\n",
               opt.json_path.c_str());
}

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "serve_soak: %s\n",
                 args_or.status().ToString().c_str());
    return 2;
  }
  const CliArgs& args = args_or.value();
  SoakOptions opt;
  opt.devices = static_cast<int>(args.get_int("devices", opt.devices));
  opt.workers = static_cast<int>(args.get_int("workers", opt.workers));
  opt.tenants = static_cast<int>(args.get_int("tenants", opt.tenants));
  opt.duration_s = args.get_double("duration", opt.duration_s);
  opt.curve_point_s =
      args.get_double("curve-seconds", std::max(1.0, opt.duration_s / 10.0));
  opt.skip_curve = args.get_bool("skip-curve", false);
  opt.skip_elastic = args.get_bool("skip-elastic", false);
  opt.elastic_phase_s = args.get_double("elastic-seconds", 0.0);
  opt.faults = args.get_string("faults", "");
  opt.fault_window = args.get_double("fault-window", opt.fault_window);
  opt.sched = args.get_string("sched", "static") == "adaptive"
                  ? sched::SchedMode::kAdaptive
                  : sched::SchedMode::kStatic;
  opt.bursty = args.get_bool("bursty", false);
  opt.burst = static_cast<int>(args.get_int("burst", opt.burst));
  opt.dim = static_cast<int>(args.get_int("dim", opt.dim));
  opt.niter = static_cast<int>(args.get_int("niter", opt.niter));
  opt.payload_bytes = args.get_bytes("payload-bytes", opt.payload_bytes);
  opt.deadline_ms = args.get_double("deadline-ms", 0.0);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opt.json_path = args.get_string("json", "BENCH_serve.json");
  if (args.get_bool("quick", false)) {
    opt.duration_s = 3.0;
    opt.curve_point_s = 0.5;
  }

  const auto outs = benchtool::telemetry_outputs(args);
  if (outs.active()) benchtool::begin_telemetry_capture(outs);

  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = opt.payload_bytes;
  spec.seed = opt.seed;
  const auto payload = datagen::generate(spec);

  // Phase 1: calibrate.
  const double job_s = calibrate_job_seconds(opt, payload);
  const double saturation = static_cast<double>(opt.workers) / job_s;
  const std::uint64_t deadline_ns =
      opt.deadline_ms > 0
          ? static_cast<std::uint64_t>(opt.deadline_ms * 1e6)
          : static_cast<std::uint64_t>(20.0 * job_s * 1e9);
  std::fprintf(stderr,
               "[soak] calibrated job=%.3fms saturation=%.1f jobs/s "
               "deadline=%.1fms\n",
               job_s * 1e3, saturation,
               static_cast<double>(deadline_ns) / 1e6);

  // Phase 2: tail-latency-vs-offered-load curve (clean machine).
  std::vector<PhaseResult> curve;
  if (!opt.skip_curve) {
    for (double mult : {0.25, 0.5, 1.0, 1.5, 2.0}) {
      PhaseResult p = run_open_loop(opt, payload, saturation * mult,
                                    opt.curve_point_s, "", 1.0, deadline_ns,
                                    "curve");
      p.offered_mult = mult;
      curve.push_back(std::move(p));
    }
  }

  // Phase 3: chaos soak at 2x saturation with faults + scheduler together.
  PhaseResult soak =
      run_open_loop(opt, payload, saturation * 2.0, opt.duration_s,
                    opt.faults, opt.fault_window, deadline_ns, "soak");
  soak.offered_mult = 2.0;

  // Phase 4: elastic-vs-fixed comparison over the same trough/peak/trough
  // load curve (clean machine, no deadlines).
  std::optional<ElasticLegResult> fixed_leg;
  std::optional<ElasticLegResult> elastic_leg;
  if (!opt.skip_elastic) {
    const double phase_s = opt.elastic_phase_s > 0
                               ? opt.elastic_phase_s
                               : std::max(1.5, opt.duration_s / 5.0);
    // Synthetic jobs have a known duration, so the fixed farm's capacity
    // is exact — no calibration run needed.
    const double syn_saturation = static_cast<double>(opt.workers) /
                                  (static_cast<double>(kElasticJobNs) / 1e9);
    std::fprintf(stderr,
                 "[soak] synthetic job=%.1fms saturation=%.1f jobs/s "
                 "(elastic legs)\n",
                 static_cast<double>(kElasticJobNs) / 1e6, syn_saturation);
    fixed_leg =
        run_elastic_leg(opt, payload, syn_saturation, false, phase_s);
    elastic_leg =
        run_elastic_leg(opt, payload, syn_saturation, true, phase_s);
  }

  write_json(opt, job_s, saturation, curve, soak,
             fixed_leg.has_value() ? &*fixed_leg : nullptr,
             elastic_leg.has_value() ? &*elastic_leg : nullptr);

  int rc = 0;
  if (!soak.failure.empty()) {
    std::fprintf(stderr, "[soak] FAIL: pipeline failure: %s\n",
                 soak.failure.c_str());
    rc = 1;
  }
  if (soak.breakers_open_end > 0) {
    std::fprintf(stderr,
                 "[soak] FAIL: %d breaker(s) stuck open after the chaos "
                 "window\n",
                 soak.breakers_open_end);
    rc = 1;
  }
  if (soak.shed == 0) {
    std::fprintf(stderr,
                 "[soak] FAIL: no shedding at 2x saturation (admission "
                 "control inert)\n");
    rc = 1;
  }
  if (soak.completed != soak.accepted) {
    std::fprintf(stderr,
                 "[soak] FAIL: accepted=%llu but completed=%llu (lost "
                 "work)\n",
                 static_cast<unsigned long long>(soak.accepted),
                 static_cast<unsigned long long>(soak.completed));
    rc = 1;
  }
  // "Bounded p99": accepted jobs must complete within the deadline budget
  // plus one job of slack — queue + execution, not an open-ended backlog.
  const double p99_bound_ms =
      static_cast<double>(deadline_ns) / 1e6 + job_s * 1e3 + 50.0;
  if (soak.p99_ms > p99_bound_ms) {
    std::fprintf(stderr, "[soak] FAIL: p99 %.2fms exceeds bound %.2fms\n",
                 soak.p99_ms, p99_bound_ms);
    rc = 1;
  }
  if (fixed_leg.has_value() && elastic_leg.has_value()) {
    if (!fixed_leg->failure.empty() || !elastic_leg->failure.empty()) {
      std::fprintf(stderr, "[soak] FAIL: elastic leg pipeline failure: %s%s\n",
                   fixed_leg->failure.c_str(), elastic_leg->failure.c_str());
      rc = 1;
    }
    if (fixed_leg->completed != fixed_leg->accepted ||
        elastic_leg->completed != elastic_leg->accepted) {
      std::fprintf(stderr, "[soak] FAIL: elastic leg lost accepted work\n");
      rc = 1;
    }
    if (elastic_leg->scale_ups == 0) {
      std::fprintf(stderr,
                   "[soak] FAIL: farm never scaled up under 2x overload\n");
      rc = 1;
    }
    if (elastic_leg->scale_downs == 0) {
      std::fprintf(stderr,
                   "[soak] FAIL: farm never scaled down after the peak\n");
      rc = 1;
    }
    // At the peak the elastic farm has twice the fixed farm's worker
    // ceiling, so its p99 must be no worse (5% + 5ms measurement slack).
    const double fixed_peak_ms = fixed_leg->phases[1].p99_ms;
    const double elastic_peak_ms = elastic_leg->phases[1].p99_ms;
    if (elastic_peak_ms > fixed_peak_ms * 1.05 + 5.0) {
      std::fprintf(stderr,
                   "[soak] FAIL: elastic peak p99 %.2fms worse than fixed "
                   "%.2fms\n",
                   elastic_peak_ms, fixed_peak_ms);
      rc = 1;
    }
    // After the peak the pool must have given capacity back: mean fed
    // workers over the second half of the final trough strictly below the
    // fixed count. The first half still walks down from the peak's
    // ceiling, one step per idle window.
    const double trough_workers =
        elastic_leg->phases[2].mean_workers_second_half;
    if (trough_workers >= static_cast<double>(opt.workers)) {
      std::fprintf(stderr,
                   "[soak] FAIL: mean workers %.2f over the cooldown's "
                   "second half did not drop below the fixed %d\n",
                   trough_workers, opt.workers);
      rc = 1;
    }
  }
  if (outs.active()) {
    const int trc = benchtool::end_telemetry_capture(outs);
    if (rc == 0) rc = trc;
  }
  std::printf("serve_soak: %s (saturation=%.1f jobs/s, soak 2x: shed=%llu "
              "miss=%llu trips=%llu p99=%.2fms)\n",
              rc == 0 ? "PASS" : "FAIL", saturation,
              static_cast<unsigned long long>(soak.shed),
              static_cast<unsigned long long>(soak.deadline_miss),
              static_cast<unsigned long long>(soak.breaker_trips),
              soak.p99_ms);
  return rc;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
