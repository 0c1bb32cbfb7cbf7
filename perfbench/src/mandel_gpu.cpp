// mandel_gpu — closed loop, one caller: mandel::render_spar_cuda back to
// back on small frames over two simulated devices and four workers. flow
// moves many tiny items (one per line), and gpusim and cudax do every
// launch; kernels and dedup sit idle.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cudax/cudax.hpp"
#include "gen.hpp"
#include "gpusim/device.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/pipelines.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kDim = 64;
constexpr int kNiter = 2000;
constexpr int kDevices = 2;
constexpr int kWorkers = 4;
constexpr int kWarmupOps = 8;
constexpr std::uint64_t kSeedTag = 0x3A4D;
/// Frames per layer probe in a home traced run and in a visiting one.
constexpr int kHomeProbe = 48;
constexpr int kVisitProbe = 12;
/// Frames whose spans are recorded: span rings are per thread and the
/// pipeline starts fresh workers per frame, so recording stays short.
constexpr int kSpanFrames = 16;

/// The fixed views and their render_sequential checksums.
struct Frames {
  std::vector<hs::kernels::MandelParams> views;
  std::vector<std::uint64_t> checksum;
};

Frames make_frames() {
  Frames f;
  for (std::uint32_t k = 0; k < kMandelViews; ++k) {
    f.views.push_back(mandel_view(k, kDim, kNiter));
    f.checksum.push_back(
        hs::mandel::image_checksum(hs::mandel::render_sequential(f.views[k])));
  }
  return f;
}

/// Two simulated devices bound to the CUDA shim for the rig's lifetime.
class Rig {
 public:
  Rig()
      : machine_(hs::gpusim::Machine::Create(
            kDevices, hs::gpusim::DeviceSpec::TitanXP())) {
    hs::cudax::bind_machine(machine_.get());
  }
  ~Rig() { hs::cudax::unbind_machine(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  hs::gpusim::Machine& machine() { return *machine_; }

  /// One frame; true when its checksum matches the reference.
  bool frame(const Frames& f, std::uint32_t k, int workers) {
    const auto image =
        hs::mandel::render_spar_cuda(f.views[k], workers, *machine_);
    return image.ok() &&
           hs::mandel::image_checksum(image.value()) == f.checksum[k];
  }

 private:
  std::unique_ptr<hs::gpusim::Machine> machine_;
};

/// Sums of the device counters the per-frame guards divide.
struct DeviceTotals {
  std::uint64_t kernels = 0;
  std::uint64_t d2h_bytes = 0;
  double busy_s = 0;
};

DeviceTotals device_totals(hs::gpusim::Machine& machine) {
  DeviceTotals t;
  for (int d = 0; d < machine.device_count(); ++d) {
    const hs::gpusim::DeviceCounters c = machine.device(d).counters();
    t.kernels += c.kernels_launched;
    t.d2h_bytes += c.d2h_bytes;
    t.busy_s += machine.device(d).compute_busy_seconds();
  }
  return t;
}

}  // namespace

void mandel_gpu_e2e(const Options& opt, Outcome& out) {
  const auto t0 = Clock::now();
  const Frames frames = make_frames();
  std::fprintf(stderr, "[mandel_gpu] references %.3f s\n",
               seconds_between(t0, Clock::now()));
  CyclicOrder order(derive_seed(opt.seed, kSeedTag), kMandelViews);
  std::unique_ptr<Rig> rig;
  const std::vector<double> setups = timed_setups(
      kSetupReps,
      [&] {
        rig = std::make_unique<Rig>();
        for (int i = 0; i < kWarmupOps; ++i) {
          if (!rig->frame(frames, order.next(), kWorkers)) {
            out.fail("mandel_gpu: warm-up frame differs from "
                     "render_sequential");
          }
        }
      },
      [&] { rig.reset(); });
  auto frame = [&]() -> std::optional<double> {
    const std::uint32_t k = order.next();
    const auto start = Clock::now();
    const auto image =
        hs::mandel::render_spar_cuda(frames.views[k], kWorkers, rig->machine());
    const double seconds = seconds_between(start, Clock::now());
    if (!image.ok() ||
        hs::mandel::image_checksum(image.value()) != frames.checksum[k]) {
      return std::nullopt;
    }
    return seconds;
  };
  Samples latency_ms;
  const ClosedLoop loop = closed_loop(opt.seconds, frame, latency_ms, out);
  const double rate = static_cast<double>(loop.ok) / loop.window_s;
  emit_e2e(out, rate, latency_ms.percentile(0.5), latency_ms.percentile(0.99),
           static_cast<double>(out.attempted) / loop.window_s, setups,
           peak_rss_mb());
}

void mandel_gpu_layers(const Options& opt, bool home, Outcome& out) {
  const Frames frames = make_frames();
  CyclicOrder order(derive_seed(opt.seed, kSeedTag), kMandelViews);
  Rig rig;
  for (int i = 0; i < kWarmupOps; ++i) {
    (void)rig.frame(frames, order.next(), kWorkers);
  }

  TracedWindow window;
  Ledger ledger;
  if (home) {
    window = traced_window(opt.seconds, [&] {
      const auto start = Clock::now();
      const std::uint32_t k = order.next();
      hs::Result<std::vector<std::uint8_t>> image =
          hs::InvalidArgument("not rendered");
      {
        PhaseTimer t(ledger, "render");
        image = hs::mandel::render_spar_cuda(frames.views[k], kWorkers,
                                             rig.machine());
      }
      bool ok = false;
      {
        PhaseTimer t(ledger, "verify");
        ok = image.ok() &&
             hs::mandel::image_checksum(image.value()) == frames.checksum[k];
      }
      ledger.add_wall(seconds_between(start, Clock::now()));
      return ok;
    });
  }

  const int probe = home ? kHomeProbe : kVisitProbe;
  // Exact per-frame device work: guards that no optimisation may move.
  const DeviceTotals before = device_totals(rig.machine());
  std::vector<double> gpu4_ms;
  std::vector<double> gpu1_ms;
  std::vector<double> cpu_ms;
  for (int i = 0; i < probe; ++i) {
    const std::uint32_t k = order.next();
    auto t = Clock::now();
    if (!rig.frame(frames, k, kWorkers)) {
      out.fail("mandel_gpu: probe frame differs from render_sequential");
    }
    gpu4_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  const DeviceTotals after = device_totals(rig.machine());
  // The same frames at one worker, and on the CPU pipeline.
  for (int i = 0; i < probe; ++i) {
    const std::uint32_t k = order.next();
    auto t = Clock::now();
    if (!rig.frame(frames, k, 1)) {
      out.fail("mandel_gpu: 1-worker frame differs from render_sequential");
    }
    gpu1_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
    t = Clock::now();
    const auto image = hs::mandel::render_spar(frames.views[k], kWorkers);
    cpu_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
    if (!image.ok() ||
        hs::mandel::image_checksum(image.value()) != frames.checksum[k]) {
      out.fail("mandel_gpu: render_spar frame differs from render_sequential");
    }
  }

  // Host wall time inside the cudax calls, from the pipeline's own spans.
  hs::telemetry::SpanRecorder& spans = hs::telemetry::SpanRecorder::Default();
  spans.reset();
  hs::telemetry::set_enabled(true);
  spans.set_recording(true);
  for (int i = 0; i < kSpanFrames; ++i) {
    (void)rig.frame(frames, order.next(), kWorkers);
  }
  spans.set_recording(false);
  hs::telemetry::set_enabled(false);
  for (const char* call : {"kernel", "d2h", "sync"}) {
    out.metric(std::string("cudax.") + call + "_ms_per_frame",
               span_sum(std::string("mandel.") + call).seconds * 1e3 /
                   kSpanFrames,
               "ms");
  }
  spans.reset();

  const double frames_run = static_cast<double>(probe);
  out.metric("gpusim.kernels_per_frame",
             static_cast<double>(after.kernels - before.kernels) / frames_run,
             "count");
  out.metric("gpusim.d2h_bytes_per_frame",
             static_cast<double>(after.d2h_bytes - before.d2h_bytes) /
                 frames_run,
             "bytes");
  out.metric("gpusim.modeled_busy_s", (after.busy_s - before.busy_s) / frames_run,
             "modeled_s");
  const double gpu4 = median(gpu4_ms);
  const double cpu = median(cpu_ms);
  out.metric("gpusim.worker_scaling", median(gpu1_ms) / gpu4, "ratio");
  out.metric("mandel.cpu_frame_ms", cpu, "ms");
  out.metric("gpusim.sim_tax", gpu4 / cpu, "ratio");
  if (home) emit_generic(window, ledger.unattributed_pct(), out);
}

}  // namespace perfbench
