// Shared plumbing of the perfbench program: run options, exact per-op
// latency samples, the per-layer time ledger, the traced window every
// closed-loop workload uses, and the report that becomes the run's final
// JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory inside the checkout for the DES trace exports that the
  /// traced model_replay run counts tasks from.
  std::string scratch = ".bench_build/scratch";
};

/// Samples a percentile must have ranked above it before it is reported:
/// a p99 therefore needs at least 1000 samples.
inline constexpr std::size_t kMinBeyond = 10;

/// Closed-loop runs keep going past --seconds until they have this many
/// ops, so their p99 always stands on at least kMinBeyond samples.
inline constexpr std::uint64_t kMinOps = 1000;

/// Times each run builds its system; setup_s is the median.
inline constexpr int kSetupReps = 9;

/// Exact latency samples. Percentiles are taken by nearest rank over the
/// raw values — never from a bucketed histogram — and a failed, shed or
/// wrong-output op is recorded as +infinity so it counts as over any limit.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void add_failed() { add(std::numeric_limits<double>::infinity()); }

  /// Nearest-rank p-quantile for 0 < p <= 1: the k-th smallest sample with
  /// k = ceil(p * n). Refused (nullopt) when fewer than kMinBeyond samples
  /// rank above it.
  [[nodiscard]] std::optional<double> percentile(double p);

  /// Largest sample (0 when empty).
  [[nodiscard]] double max() const;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Median of a small set (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// FastFlow-style time ledger of one measured region: named phases timed
/// around the benchmark's calls into each layer, plus the region's wall
/// clock. Whatever the phases do not cover is the unattributed residual, so
/// phases + unattributed == wall by construction.
class Ledger {
 public:
  void add(std::string_view phase, double seconds);
  void add_wall(double seconds) { wall_ += seconds; }

  [[nodiscard]] double phase(std::string_view name) const;
  [[nodiscard]] double attributed() const;
  [[nodiscard]] double wall() const { return wall_; }
  [[nodiscard]] double unattributed() const { return wall_ - attributed(); }
  [[nodiscard]] double unattributed_pct() const {
    return wall_ > 0 ? 100.0 * unattributed() / wall_ : 0.0;
  }

 private:
  std::vector<std::pair<std::string, double>> phases_;
  double wall_ = 0;
};

/// Charges the lifetime of the scope to one phase of a Ledger. Time between
/// scopes (loop glue, buffer recycling) stays unattributed.
class PhaseTimer {
 public:
  PhaseTimer(Ledger& ledger, std::string_view phase)
      : ledger_(ledger), phase_(phase), start_(Clock::now()) {}
  ~PhaseTimer() { ledger_.add(phase_, seconds_between(start_, Clock::now())); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Ledger& ledger_;
  std::string_view phase_;
  Clock::time_point start_;
};

/// Everything one run reports: metrics in print order, the op tally, and
/// the reasons the run is not correct (none when it is).
class Outcome {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Records a wrong output or a measurement that could not be made; the
  /// run then reports "correct": false.
  void fail(std::string why);
  /// Unwraps a percentile; a refused one fails the run and reads as 0.
  double require(std::optional<double> value, std::string_view what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Emits the end-to-end metrics every workload reports, in BENCHMARK.json
/// order; a refused percentile fails the run. `setup_s` holds one value per
/// set-up repetition; its median is reported.
void emit_e2e(Outcome& out, double work_per_s, std::optional<double> p50_ms,
              std::optional<double> p99_ms, double max_rate_per_s,
              const std::vector<double>& setup_s, double peak_rss_mb);

/// Times `reps` runs of `build` (construct the system, then warm it up with
/// a fixed number of ops); the caller keeps whatever the last run built.
/// `teardown`, when given, runs untimed before every rebuild.
[[nodiscard]] std::vector<double> timed_setups(
    int reps, const std::function<void()>& build,
    const std::function<void()>& teardown = {});

/// A closed-loop op: its wall time in seconds, or nullopt when its output
/// did not match the reference.
using TimedOp = std::function<std::optional<double>()>;

/// Result of closed_loop().
struct ClosedLoop {
  double window_s = 0;
  std::uint64_t ok = 0;
};

/// One caller runs `op` back to back until `seconds` have passed and at
/// least kMinOps ops ran, recording every op's latency (a failed op as
/// over any limit) and tallying attempted/failed ops into `out`.
ClosedLoop closed_loop(double seconds, const TimedOp& op, Samples& latency_ms,
                       Outcome& out);

/// Total duration and count of the recorded spans of one name.
struct SpanSum {
  double seconds = 0;
  std::uint64_t count = 0;
};

/// Sums the spans named `name` held by the default SpanRecorder, read from
/// its Chrome trace export (the recorder keeps no other public view).
[[nodiscard]] SpanSum span_sum(std::string_view name);

/// Results of a traced closed-loop window (see traced_window).
struct TracedWindow {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double overhead_pct = 0;       ///< telemetry-on vs telemetry-off op time
  double busy_share_max = 0;     ///< busiest flow unit: svc_ns sum / wall
  double queue_full_per_op = 0;  ///< flow queue_full events per op
  double heap_per_op = 0;        ///< global operator new calls per op
  double pool_miss_ratio = 0;    ///< BufferPool misses / acquisitions
};

/// Process-wide allocation and buffer-pool counters at the start of a
/// window, so the window's share can be read at its end.
struct CounterMark {
  std::uint64_t allocs = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};
[[nodiscard]] CounterMark mark_counters();

/// Fills the layer fields of `w` from a registry snapshot taken at the end
/// of a window: stage svc_ns sums over `busy_wall_s`, queue-full events
/// over `telemetry_ops`, and the allocation and pool counters since `mark`
/// over w.ops.
void read_layers(const hs::telemetry::MetricsSnapshot& snap,
                 double busy_wall_s, std::uint64_t telemetry_ops,
                 const CounterMark& mark, TracedWindow& w);

/// Runs `op` (true when its output verified) for `seconds`, in alternating
/// blocks with telemetry off and on so drift hits both sides alike, and
/// reads the flow stage telemetry the program exports during the on blocks.
TracedWindow traced_window(double seconds, const std::function<bool()>& op);

/// Emits the workload-generic per-layer metrics of a home traced run.
void emit_generic(const TracedWindow& w, double unattributed_pct,
                  Outcome& out);

}  // namespace perfbench
