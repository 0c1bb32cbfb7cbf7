// model_replay — closed loop, one caller. Each op is one modeled replay over
// inputs built during set-up: dedup::run_fig5 on a prebuilt DedupTrace,
// cluster::place_makespan plus run_fig5_cluster on a 4-node mesh, and
// mandel::run_combined on a small IterationMap. It is the only workload
// that exercises des, perfmodel and cluster.
//
// The modeled inputs are fixed rather than seeded, so every output can be
// checked against a pinned hexfloat; the seed does not change this workload.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/makespan.hpp"
#include "cluster/modeled.hpp"
#include "datagen/corpus.hpp"
#include "dedup/modeled.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/modeled.hpp"
#include "mandel/pipelines.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cl = hs::cluster;
namespace dd = hs::dedup;
namespace md = hs::mandel;

namespace {

constexpr std::size_t kCorpusBytes = 256 * 1024;
constexpr int kMapDim = 64;
constexpr int kMapNiter = 500;
constexpr int kNodes = 4;
constexpr int kWarmupOps = 8;
/// Ops per layer probe in a home traced run and in a visiting one.
constexpr int kHomeProbe = 64;
constexpr int kVisitProbe = 16;

/// One replay variant: the dedup backend and the mandel GPU API it models,
/// with the modeled outputs pinned as exact hexfloats.
struct Variant {
  dd::Fig5Backend backend;
  md::GpuApi api;
  double fig5_s;
  double cluster_s;
  double combined_s;
};

constexpr Variant kVariants[] = {
    {dd::Fig5Backend::kSparCuda, md::GpuApi::kCuda, 0x1.e5ecd6f66257ap-11,
     0x1.f8dcffb0185bp-11, 0x1.ca72b6eb0ef33p-14},
    {dd::Fig5Backend::kSparOcl, md::GpuApi::kOpenCl, 0x1.e912256484742p-11,
     0x1.fc024e1e3a778p-11, 0x1.d2d632bb69e9fp-14},
};

/// The system a replay runs against: built during set-up.
struct Models {
  dd::Fig5Config fig5;
  dd::DedupTrace trace;
  cl::StageGraph graph;  ///< dedup stage graph, profiled on one node
  cl::Topology mesh;
  md::ModeledConfig combined;
  std::unique_ptr<md::IterationMap> map;
  std::uint64_t image_checksum = 0;
};

std::vector<std::uint8_t> corpus() {
  hs::datagen::CorpusSpec spec;
  spec.kind = hs::datagen::CorpusKind::kParsecLike;
  spec.bytes = kCorpusBytes;
  spec.seed = 7;
  return hs::datagen::generate(spec);
}

std::unique_ptr<Models> build_models(const std::vector<std::uint8_t>& input) {
  auto m = std::make_unique<Models>();
  m->fig5.replicas = 4;
  m->fig5.devices = 2;
  m->fig5.dedup.batch_size = 64 * 1024;
  m->fig5.dedup.rabin.mask = 0x7FF;
  m->trace = dd::build_trace(input, m->fig5.dedup);
  m->graph = cl::dedup_stage_graph(m->trace, m->fig5.replicas, true);
  cl::ClusterRunOptions one;
  one.topo = cl::full_mesh(1, 2, m->fig5.device_spec, 12.5e9, 2e-6);
  one.profile = &m->graph;
  (void)cl::run_fig5_cluster(m->trace, m->fig5, dd::Fig5Backend::kSparCuda,
                             one);
  m->mesh = cl::full_mesh(kNodes, 2, m->fig5.device_spec, 12.5e9, 2e-6);
  hs::kernels::MandelParams p;
  p.dim = kMapDim;
  p.niter = kMapNiter;
  m->map = std::make_unique<md::IterationMap>(md::IterationMap::compute(p));
  m->image_checksum = md::image_checksum(md::render_sequential(p));
  m->combined.batch_lines = 8;
  m->combined.devices = 2;
  m->combined.combined_workers = 4;
  return m;
}

/// Modeled outputs of one replay.
struct Replay {
  double fig5_s = 0;
  double cluster_s = 0;
  double combined_s = 0;
  std::uint64_t checksum = 0;
};

/// One replay of variant `v`, each layer call charged to `l`; `trace_dir`
/// (non-empty) also exports the DES schedules.
Replay replay(const Models& m, const Variant& v, Ledger& l,
              const std::string& trace_dir = {}) {
  Replay r;
  {
    PhaseTimer t(l, "dedup.run_fig5");
    r.fig5_s = dd::run_fig5(m.trace, m.fig5, v.backend).modeled_seconds;
  }
  cl::ClusterRunOptions opts;
  opts.topo = m.mesh;
  {
    PhaseTimer t(l, "cluster.place");
    opts.placement = cl::place_makespan(m.graph, m.mesh);
  }
  if (!trace_dir.empty()) opts.trace_path = trace_dir + "/cluster.json";
  {
    PhaseTimer t(l, "cluster.replay");
    r.cluster_s =
        cl::run_fig5_cluster(m.trace, m.fig5, v.backend, opts).modeled_seconds;
  }
  md::ModeledConfig cfg = m.combined;
  if (!trace_dir.empty()) cfg.trace_path = trace_dir + "/combined.json";
  {
    PhaseTimer t(l, "mandel.run_combined");
    const md::RunResult comb =
        md::run_combined(*m.map, cfg, md::CpuModel::kSpar, v.api);
    r.combined_s = comb.modeled_seconds;
    r.checksum = comb.checksum;
  }
  return r;
}

/// Checks a replay against the pins; names every mismatch (with the value
/// seen, as a hexfloat to pin) or returns nullopt when all match.
std::optional<std::string> mismatch(const Models& m, const Variant& v,
                                    const Replay& r) {
  std::string why;
  auto check = [&](const char* what, double seen, double pinned) {
    if (seen == pinned) return;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s%s %s = %a, pinned %a",
                  why.empty() ? "" : "; ",
                  std::string(dd::fig5_backend_name(v.backend)).c_str(), what,
                  seen, pinned);
    why += buf;
  };
  check("run_fig5", r.fig5_s, v.fig5_s);
  check("run_fig5_cluster", r.cluster_s, v.cluster_s);
  check("run_combined", r.combined_s, v.combined_s);
  if (r.checksum != m.image_checksum) {
    why += "; run_combined image differs from render_sequential";
  }
  if (why.empty()) return std::nullopt;
  return why;
}

/// One op: a checked replay of every variant. The variants differ in cost,
/// so an op of one variant each would give a two-moded op time whose median
/// jumps between the modes. Returns the mismatches of the first bad variant.
std::optional<std::string> replay_op(const Models& m, Ledger& l) {
  std::optional<std::string> why;
  for (const Variant& v : kVariants) {
    const Replay r = replay(m, v, l);
    PhaseTimer t(l, "verify");
    if (!why) why = mismatch(m, v, r);
  }
  return why;
}

/// The single-host runners and their 1-node cluster forms must agree
/// exactly; checked once per variant outside the timed window.
void check_one_node(const Models& m, Outcome& out) {
  cl::ClusterRunOptions one;
  one.topo = cl::full_mesh(1, 2, m.fig5.device_spec, 12.5e9, 2e-6);
  for (const Variant& v : kVariants) {
    const double host = dd::run_fig5(m.trace, m.fig5, v.backend).modeled_seconds;
    if (cl::run_fig5_cluster(m.trace, m.fig5, v.backend, one).modeled_seconds !=
        host) {
      out.fail("model_replay: 1-node run_fig5_cluster differs from run_fig5");
    }
  }
  const md::RunResult host =
      md::run_combined(*m.map, m.combined, md::CpuModel::kSpar, md::GpuApi::kCuda);
  if (cl::run_mandel_combined_cluster(*m.map, m.combined, md::GpuApi::kCuda,
                                      one)
          .modeled_seconds != host.modeled_seconds) {
    out.fail("model_replay: 1-node combined cluster differs from run_combined");
  }
}

/// Complete ("X") events in a Chrome trace file: the tasks the DES
/// scheduled.
std::uint64_t count_tasks(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::uint64_t n = 0;
  const std::string key = "\"ph\":\"X\"";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + key.size())) {
    ++n;
  }
  return n;
}

}  // namespace

void model_replay_e2e(const Options& opt, Outcome& out) {
  const auto t0 = Clock::now();
  const std::vector<std::uint8_t> input = corpus();
  std::fprintf(stderr, "[model_replay] synthesis %.3f s (not set-up)\n",
               seconds_between(t0, Clock::now()));
  Ledger unused;
  std::unique_ptr<Models> models;
  const std::vector<double> setups = timed_setups(
      kSetupReps,
      [&] {
        models = build_models(input);
        for (int i = 0; i < kWarmupOps; ++i) {
          if (const auto why = replay_op(*models, unused)) {
            out.fail("model_replay: warm-up " + *why);
          }
        }
      },
      [&] { models.reset(); });
  check_one_node(*models, out);
  auto op = [&]() -> std::optional<double> {
    const auto start = Clock::now();
    const std::optional<std::string> why = replay_op(*models, unused);
    const double seconds = seconds_between(start, Clock::now());
    if (why) return std::nullopt;
    return seconds;
  };
  Samples latency_ms;
  const ClosedLoop loop = closed_loop(opt.seconds, op, latency_ms, out);
  const double rate = static_cast<double>(loop.ok) / loop.window_s;
  emit_e2e(out, rate, latency_ms.percentile(0.5), latency_ms.percentile(0.99),
           static_cast<double>(out.attempted) / loop.window_s, setups,
           peak_rss_mb());
}

void model_replay_layers(const Options& opt, bool home, Outcome& out) {
  const std::unique_ptr<Models> models = build_models(corpus());
  check_one_node(*models, out);

  TracedWindow window;
  Ledger ledger;
  if (home) {
    window = traced_window(opt.seconds, [&] {
      const auto start = Clock::now();
      const bool ok = !replay_op(*models, ledger).has_value();
      ledger.add_wall(seconds_between(start, Clock::now()));
      return ok;
    });
  }

  // Per-layer call times over a fixed number of untraced ops.
  const int probe = home ? kHomeProbe : kVisitProbe;
  Ledger calls;
  for (int i = 0; i < probe; ++i) {
    if (const auto why = replay_op(*models, calls)) {
      out.fail("model_replay: " + *why);
    }
  }
  const auto per_op_ms = [&](std::string_view phase) {
    return calls.phase(phase) / probe * 1e3;
  };
  // DES tasks of one op, counted from the trace exports of its replays.
  std::filesystem::create_directories(opt.scratch);
  std::uint64_t tasks = 0;
  Ledger unused;
  for (const Variant& v : kVariants) {
    (void)replay(*models, v, unused, opt.scratch);
    tasks += count_tasks(opt.scratch + "/cluster.json") +
             count_tasks(opt.scratch + "/combined.json");
  }
  const double traced_ms_per_op =
      per_op_ms("cluster.replay") + per_op_ms("mandel.run_combined");
  const double tasks_per_op = static_cast<double>(tasks);
  out.metric("des.tasks_per_op", tasks_per_op, "count");
  out.metric("des.ns_per_task",
             tasks_per_op > 0 ? traced_ms_per_op * 1e6 / tasks_per_op : 0.0,
             "ns");
  out.metric("cluster.place_ms", per_op_ms("cluster.place"), "ms");
  out.metric("cluster.replay_ms", per_op_ms("cluster.replay"), "ms");
  out.metric("dedup.run_fig5_ms", per_op_ms("dedup.run_fig5"), "ms");
  out.metric("mandel.run_combined_ms", per_op_ms("mandel.run_combined"), "ms");
  if (home) emit_generic(window, ledger.unattributed_pct(), out);
}

}  // namespace perfbench
