// Cluster-scale sweep: the Fig. 5 (dedup) and Fig. 1 (mandel) schedules on
// a simulated multi-node cluster, comparing round-robin, byte-greedy, and
// makespan-aware stage placement.
//
// The runners are the single-host ones (each paper variant is one loop over
// a ClusterMachine; the single-host entry points run it on one node), so a
// 1-node cell reproduces the single-host numbers by construction; the
// golden pins in mandel_test, dedup_test and cluster_test hold every
// variant's numbers fixed. The bench first runs dedup SPar+CUDA and mandel
// combined on one node as profiling runs: they fill the stage graphs'
// measured per-stage compute profiles (StageCompute) that power the
// makespan estimator and place_makespan.
//
// It then sweeps node counts — 1/2/4/8 homogeneous full meshes plus two
// heterogeneous parsed-spec topologies (unequal GPUs per node incl. a
// GPU-less node; one slow link) — running every requested placer per cell
// and cross-checking two estimator pins on every run:
//   * bytes, exactly: fabric_bytes - shard_bytes == predicted_cross_bytes;
//   * time, within a stated band: DES makespan within
//     [estimate, estimate * kEstimatorPinFactor].
// With all three placers swept it also gates placement quality:
// place_makespan's estimated AND DES makespan must be <= min(RR, greedy)
// on every cell, strictly better than greedy on dedup 8-node and than
// round-robin on mandel 2-node (the PR-8 inversion cells).
//
// Flags: --nodes=N       sweep only N nodes (default sweep: 1, 2, 4, 8
//                        plus the hetero topologies)
//        --placement=rr|greedy|makespan|all  placers to run (default all)
//        --topo=FILE     sweep a parsed text-spec topology instead of the
//                        built-in meshes (each workload still runs with its
//                        own GPU spec; the file contributes the shape:
//                        cores, GPU counts, links). Every node must be
//                        reachable and at least one must have a GPU.
//        --input-size=BYTES (8 MB) --batch-size=BYTES (256 KiB)
//        --replicas=N    (19) dedup farm replicas
//        --quick | --paper-scale | --dim=N --niter=N  mandel workload
//        --batch=N       (32) mandel lines per kernel call
//        --gpus=N        (2) GPUs per node
//        --bw=BYTES/S    (12.5GB) per-link bandwidth  --lat=S (2us) latency
//        --json=PATH     machine-readable rows (e.g. BENCH_cluster.json)
//        --trace=FILE    Chrome trace of the largest dedup greedy run
//        --csv
#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "cluster/makespan.hpp"
#include "cluster/modeled.hpp"
#include "datagen/corpus.hpp"
#include "dedup/modeled.hpp"
#include "mandel/calibrate.hpp"
#include "mandel/modeled.hpp"

namespace hs {
namespace {

using cluster::ClusterRunOptions;
using cluster::Placement;
using cluster::StageGraph;
using cluster::Topology;
using dedup::Fig5Backend;

// Heterogeneous sweep topologies, written as text specs so the sweep
// exercises the parser end to end. GPU counts are the point: n3 of the
// first spec has none (GPU stages must never land there), and the second
// spec's n2<->n3 link is 10x slower and 10x higher latency than the rest.
constexpr char kHeteroGpusSpec[] = R"(# 4 nodes, unequal GPUs, n3 CPU-only
node n0 cores=20 gpus=2
node n1 cores=20 gpus=1
node n2 cores=20 gpus=2
node n3 cores=20 gpus=0
link n0 n1 bw=12.5GB lat=2us
link n0 n2 bw=12.5GB lat=2us
link n0 n3 bw=12.5GB lat=2us
link n1 n2 bw=12.5GB lat=2us
link n1 n3 bw=12.5GB lat=2us
link n2 n3 bw=12.5GB lat=2us
)";

constexpr char kHeteroLinkSpec[] = R"(# 4 nodes, one slow link
node n0 cores=20 gpus=2
node n1 cores=20 gpus=2
node n2 cores=20 gpus=2
node n3 cores=20 gpus=2
link n0 n1 bw=12.5GB lat=2us
link n0 n2 bw=12.5GB lat=2us
link n0 n3 bw=12.5GB lat=2us
link n1 n2 bw=12.5GB lat=2us
link n1 n3 bw=12.5GB lat=2us
link n2 n3 bw=1.25GB lat=20us
)";

struct PlacerResult {
  std::uint64_t predicted_cross_bytes = 0;
  double estimated_makespan_s = 0;
  double modeled_seconds = 0;
};

struct JsonRow {
  std::string workload;
  std::string topo;
  int nodes = 0;
  std::string placement;
  std::uint64_t predicted_cross_bytes = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t shard_bytes = 0;
  double estimated_makespan_s = 0;
  double modeled_seconds = 0;
  double throughput_mb_s = 0;
  std::uint64_t kernel_launches = 0;
};

/// Per-cell quality record: one PlacerResult per placer that ran there.
struct CellQuality {
  std::string workload;
  std::string topo;
  int nodes = 0;
  std::map<std::string, PlacerResult> placers;
};

/// Every node's GPUs replaced by `spec` (counts kept): a parsed topology
/// contributes the cluster's *shape*; each workload runs against the
/// device spec its single-host twin was calibrated with.
Topology with_device_spec(Topology topo, const gpusim::DeviceSpec& spec) {
  for (cluster::NodeSpec& node : topo.nodes) {
    for (gpusim::DeviceSpec& g : node.gpus) g = spec;
  }
  return topo;
}

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << args_or.status().ToString() << "\n";
    return 1;
  }
  const CliArgs& args = args_or.value();

  const std::uint64_t input_size =
      args.get_bytes("input-size", 8 * 1000 * 1000);
  auto batch_size_or = args.get_positive_bytes("batch-size", 256 * 1024);
  auto replicas_or = args.get_positive_int("replicas", 19);
  auto batch_or = args.get_positive_int("batch", 32);
  auto gpus_or = args.get_positive_int("gpus", 2);
  auto bw_or = args.get_positive_bytes("bw", 12'500'000'000ULL);
  for (const Status& s : {batch_size_or.status(), replicas_or.status(),
                          batch_or.status(), gpus_or.status(),
                          bw_or.status()}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  const int replicas = static_cast<int>(replicas_or.value());
  const int gpus = static_cast<int>(gpus_or.value());
  const double link_bw = static_cast<double>(bw_or.value());
  const double link_lat = args.get_double("lat", 2e-6);
  const bool csv = args.get_bool("csv", false);
  const std::string json_path = args.get_string("json", "");
  const std::string trace_path = args.get_string("trace", "");

  // --placement: which placers to run. Unknown values are rejected, like
  // the range-validated numeric flags.
  const std::string placement_flag = args.get_string("placement", "all");
  std::vector<std::string> placer_names;
  if (placement_flag == "all") {
    placer_names = {"round-robin", "greedy", "makespan"};
  } else if (placement_flag == "rr") {
    placer_names = {"round-robin"};
  } else if (placement_flag == "greedy") {
    placer_names = {"greedy"};
  } else if (placement_flag == "makespan") {
    placer_names = {"makespan"};
  } else {
    std::cerr << "invalid argument: --placement='" << placement_flag
              << "' must be one of rr|greedy|makespan|all\n";
    return 1;
  }
  const bool all_placers = placer_names.size() == 3;

  std::vector<int> node_counts;
  if (args.has("nodes")) {
    auto n = args.get_positive_int("nodes", 1);
    if (!n.ok()) {
      std::cerr << n.status().ToString() << "\n";
      return 1;
    }
    node_counts.push_back(static_cast<int>(n.value()));
  } else {
    node_counts = {1, 2, 4, 8};
  }

  // The GPU spec travels with the workload: mandel runs against the
  // calibrated device spec, dedup against the stock Titan XP — each
  // workload's topology must carry the spec its single-host twin uses.
  auto mesh = [&](int n, const gpusim::DeviceSpec& spec) {
    return cluster::full_mesh(n, gpus, spec, link_bw, link_lat);
  };

  // Swept cells: (name, shape). The shape is spec-substituted per
  // workload below.
  struct CellSpec {
    std::string name;
    Topology shape;  // GPU specs are placeholders until substitution
  };
  std::vector<CellSpec> cells;
  if (args.has("topo")) {
    const std::string path = args.get_string("topo", "");
    std::ifstream in(path);
    if (!in) {
      std::cerr << "[bench] cannot read --topo file " << path << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto topo_or = cluster::parse_topology(buf.str());
    if (!topo_or.ok()) {
      std::cerr << "[bench] --topo " << path << ": "
                << topo_or.status().ToString() << "\n";
      return 1;
    }
    const Topology& topo = topo_or.value();
    const auto has_gpus = [](const cluster::NodeSpec& node) {
      return !node.gpus.empty();
    };
    if (std::none_of(topo.nodes.begin(), topo.nodes.end(), has_gpus)) {
      std::cerr << "[bench] --topo " << path
                << ": no node has a GPU; the swept SPar+GPU workloads need "
                   "one\n";
      return 1;
    }
    cells.push_back({path, std::move(topo_or).value()});
  } else {
    for (int n : node_counts) {
      cells.push_back({"mesh-" + std::to_string(n),
                       mesh(n, gpusim::DeviceSpec::TitanXP())});
    }
    if (!args.has("nodes")) {
      for (const char* spec : {kHeteroGpusSpec, kHeteroLinkSpec}) {
        auto topo_or = cluster::parse_topology(spec);
        if (!topo_or.ok()) {
          std::cerr << "[bench] built-in hetero spec rejected: "
                    << topo_or.status().ToString() << "\n";
          return 1;
        }
        cells.push_back({spec == kHeteroGpusSpec ? "hetero-gpus"
                                                 : "hetero-link",
                         std::move(topo_or).value()});
      }
    }
  }

  // ---- Workloads -------------------------------------------------------
  datagen::CorpusSpec corpus;
  corpus.kind = datagen::CorpusKind::kParsecLike;
  corpus.bytes = input_size;
  std::fprintf(stderr, "[bench] generating parsec corpus (%s)...\n",
               format_bytes(input_size).c_str());
  const std::vector<std::uint8_t> input = datagen::generate(corpus);

  dedup::Fig5Config dcfg;
  dcfg.replicas = replicas;
  dcfg.dedup.batch_size = static_cast<std::uint32_t>(batch_size_or.value());
  dcfg.dedup.rabin.mask = 0x7FF;  // ~2 kB blocks, as fig5_dedup_throughput
  const dedup::DedupTrace trace = dedup::build_trace(input, dcfg.dedup);

  kernels::MandelParams params = benchtool::mandel_workload(args);
  mandel::IterationMap map = benchtool::load_map(args, params);
  mandel::ModeledConfig mcfg;
  mcfg.batch_lines = static_cast<int>(batch_or.value());
  mcfg.devices = gpus;
  if (args.get_bool("calibrate", true)) {
    mcfg = mandel::calibrate_to_paper(map, {}, mcfg);
    mcfg.devices = gpus;
  }

  StageGraph dgraph = cluster::dedup_stage_graph(trace, replicas, true);
  StageGraph mgraph = cluster::mandel_stage_graph(
      params.dim, mcfg.batch_lines, mcfg.combined_workers, true);

  // ---- 1-node profiling runs -------------------------------------------
  {
    ClusterRunOptions one_node;
    one_node.topo = mesh(1, dcfg.device_spec);
    one_node.profile = &dgraph;
    (void)cluster::run_fig5_cluster(trace, dcfg, Fig5Backend::kSparCuda,
                                    one_node);
    one_node.topo = mesh(1, mcfg.device_spec);
    one_node.profile = &mgraph;
    (void)cluster::run_mandel_combined_cluster(map, mcfg,
                                               mandel::GpuApi::kCuda, one_node);
  }

  // ---- Multi-node sweep ------------------------------------------------
  std::vector<JsonRow> rows;
  std::vector<CellQuality> quality;
  bool bytes_pin_ok = true;
  bool time_pin_ok = true;

  Table dtable("Cluster sweep — dedup SPar+CUDA (" +
               format_bytes(input_size) + ", " + std::to_string(replicas) +
               " replicas, " + format_bytes(bw_or.value()) + "/s links)");
  dtable.set_header({"topo", "placement", "predicted cross-bytes",
                     "est makespan", "modeled time", "throughput"});
  Table mtable("Cluster sweep — mandel SPar+CUDA combined (dim=" +
               std::to_string(params.dim) + ", " +
               std::to_string(mcfg.combined_workers) + " workers)");
  mtable.set_header({"topo", "placement", "predicted cross-bytes",
                     "est makespan", "modeled time", "speedup vs 1-node"});

  double mandel_base = 0;
  for (const CellSpec& cell : cells) {
    const int n = static_cast<int>(cell.shape.nodes.size());
    const Topology dtopo = with_device_spec(cell.shape, dcfg.device_spec);
    const Topology mtopo = with_device_spec(cell.shape, mcfg.device_spec);

    const auto sweep = [&](const Topology& topo, const StageGraph& graph,
                           const char* workload, auto&& run_one, Table& table,
                           auto&& row_tail) {
      const cluster::MakespanEstimator est(graph, topo);
      CellQuality q;
      q.workload = workload;
      q.topo = cell.name;
      q.nodes = n;
      for (const std::string& pname : placer_names) {
        Placement placement =
            pname == "round-robin" ? cluster::place_round_robin(graph, topo)
            : pname == "greedy"    ? cluster::place_greedy(graph, topo)
                                   : cluster::place_makespan(graph, topo);
        PlacerResult pr;
        pr.predicted_cross_bytes =
            cluster::predicted_cross_bytes(graph, placement, topo);
        pr.estimated_makespan_s = est.estimate(placement);
        ClusterRunOptions opts;
        opts.topo = topo;
        opts.placement = placement;
        if (!trace_path.empty() && &cell == &cells.back() &&
            std::string(workload) == "dedup-spar+cuda" && pname == "greedy") {
          opts.trace_path = trace_path;
        }
        const auto r = run_one(opts);
        pr.modeled_seconds = r.modeled_seconds;
        // Bytes pin, exact: the fabric's non-shard traffic must be what
        // the placement byte estimator predicted.
        if (r.fabric_bytes - r.shard_bytes != pr.predicted_cross_bytes) {
          std::cerr << "[bench] BYTE ESTIMATOR MISMATCH (" << workload
                    << ", " << cell.name << ", " << pname
                    << "): fabric=" << r.fabric_bytes
                    << " shard=" << r.shard_bytes
                    << " predicted=" << pr.predicted_cross_bytes << "\n";
          bytes_pin_ok = false;
        }
        // Time pin, banded: DES within [estimate, estimate * factor].
        if (r.modeled_seconds >
                pr.estimated_makespan_s * cluster::kEstimatorPinFactor ||
            pr.estimated_makespan_s >
                r.modeled_seconds * cluster::kEstimatorLowerSlack) {
          std::cerr << "[bench] TIME ESTIMATOR OUT OF BAND (" << workload
                    << ", " << cell.name << ", " << pname
                    << "): estimate=" << pr.estimated_makespan_s
                    << " des=" << r.modeled_seconds << " band=[est, est*"
                    << cluster::kEstimatorPinFactor << "]\n";
          time_pin_ok = false;
        }
        q.placers[pname] = pr;
        row_tail(table, pname.c_str(), pr, r);
        double throughput_mb_s = 0;  // a dedup metric; mandel reports none
        if constexpr (requires { r.throughput_mb_s; }) {
          throughput_mb_s = r.throughput_mb_s;
        }
        rows.push_back({workload, cell.name, n, pname,
                        pr.predicted_cross_bytes, r.fabric_bytes,
                        r.shard_bytes, pr.estimated_makespan_s,
                        r.modeled_seconds, throughput_mb_s,
                        r.kernel_launches});
      }
      quality.push_back(std::move(q));
    };

    sweep(
        dtopo, dgraph, "dedup-spar+cuda",
        [&](const ClusterRunOptions& opts) {
          return cluster::run_fig5_cluster(trace, dcfg,
                                           Fig5Backend::kSparCuda, opts);
        },
        dtable,
        [&](Table& t, const char* pname, const PlacerResult& pr,
            const dedup::Fig5Result& r) {
          t.add_row({cell.name, pname,
                     std::to_string(pr.predicted_cross_bytes),
                     format_seconds(pr.estimated_makespan_s),
                     format_seconds(r.modeled_seconds),
                     format_fixed(r.throughput_mb_s, 1) + " MB/s"});
        });

    sweep(
        mtopo, mgraph, "mandel-combined-cuda",
        [&](const ClusterRunOptions& opts) {
          return cluster::run_mandel_combined_cluster(
              map, mcfg, mandel::GpuApi::kCuda, opts);
        },
        mtable,
        [&](Table& t, const char* pname, const PlacerResult& pr,
            const mandel::RunResult& r) {
          if (mandel_base == 0) mandel_base = r.modeled_seconds;
          t.add_row({cell.name, pname,
                     std::to_string(pr.predicted_cross_bytes),
                     format_seconds(pr.estimated_makespan_s),
                     format_seconds(r.modeled_seconds),
                     benchtool::speedup_cell(mandel_base,
                                             r.modeled_seconds)});
        });
    dtable.add_separator();
    mtable.add_separator();
  }

  // ---- Placement-quality gates (only meaningful with all placers) ------
  // place_makespan must win or tie both baselines on estimated AND DES
  // makespan in every cell, and strictly resolve the PR-8 inversion cells
  // (dedup 8-node vs greedy, mandel 2-node vs round-robin) when swept.
  bool makespan_le_baselines = true;
  bool dedup8_beats_greedy = true;
  bool mandel2_beats_rr = true;
  if (all_placers) {
    for (const CellQuality& q : quality) {
      const PlacerResult& rr = q.placers.at("round-robin");
      const PlacerResult& gr = q.placers.at("greedy");
      const PlacerResult& mk = q.placers.at("makespan");
      const double des_min = std::min(rr.modeled_seconds, gr.modeled_seconds);
      const double est_min =
          std::min(rr.estimated_makespan_s, gr.estimated_makespan_s);
      if (mk.modeled_seconds > des_min * cluster::kEstimatorLowerSlack ||
          mk.estimated_makespan_s > est_min * cluster::kEstimatorLowerSlack) {
        std::cerr << "[bench] MAKESPAN PLACER LOSES TO A BASELINE ("
                  << q.workload << ", " << q.topo << "): des mk="
                  << mk.modeled_seconds << " min=" << des_min << ", est mk="
                  << mk.estimated_makespan_s << " min=" << est_min << "\n";
        makespan_le_baselines = false;
      }
      if (q.workload == "dedup-spar+cuda" && q.topo == "mesh-8" &&
          mk.modeled_seconds >= gr.modeled_seconds) {
        std::cerr << "[bench] DEDUP 8-NODE: makespan does not strictly beat "
                     "greedy: mk=" << mk.modeled_seconds
                  << " greedy=" << gr.modeled_seconds << "\n";
        dedup8_beats_greedy = false;
      }
      if (q.workload == "mandel-combined-cuda" && q.topo == "mesh-2" &&
          mk.modeled_seconds >= rr.modeled_seconds) {
        std::cerr << "[bench] MANDEL 2-NODE: makespan does not strictly beat "
                     "round-robin: mk=" << mk.modeled_seconds
                  << " rr=" << rr.modeled_seconds << "\n";
        mandel2_beats_rr = false;
      }
    }
  }

  if (csv) {
    dtable.render_csv(std::cout);
    mtable.render_csv(std::cout);
  } else {
    dtable.render(std::cout);
    std::cout << "\n";
    mtable.render(std::cout);
    std::cout << "\ngreedy minimizes cross-node bytes and collapses farms "
                 "onto few nodes; round-robin spreads them blindly; makespan "
                 "optimizes the measured-occupancy + transfer cost model "
                 "that the DES pin validates. The dup check's shard traffic "
                 "(content-hash routed, digest % nodes) is placement-"
                 "independent and excluded from the byte estimator.\n";
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "[bench] cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n  \"bench\": \"fig_cluster\",\n";
    json << "  \"input_bytes\": " << input_size << ",\n";
    json << "  \"replicas\": " << replicas << ",\n";
    json << "  \"dim\": " << params.dim << ",\n";
    json << "  \"gpus_per_node\": " << gpus << ",\n";
    json << "  \"link_bandwidth_bytes_per_s\": " << link_bw << ",\n";
    json << "  \"link_latency_s\": " << link_lat << ",\n";
    json << "  \"estimator_pin_factor\": " << cluster::kEstimatorPinFactor
         << ",\n";
    // A 1-node run is the single-host run: one implementation.
    json << "  \"one_node_byte_identical\": true,\n";
    json << "  \"bytes_pin_exact\": " << (bytes_pin_ok ? "true" : "false")
         << ",\n";
    json << "  \"time_pin_in_band\": " << (time_pin_ok ? "true" : "false")
         << ",\n";
    json << "  \"placement_gates\": {\n";
    json << "    \"all_placers_swept\": " << (all_placers ? "true" : "false")
         << ",\n";
    json << "    \"makespan_le_baselines_all_cells\": "
         << (makespan_le_baselines ? "true" : "false") << ",\n";
    json << "    \"dedup_8node_makespan_beats_greedy\": "
         << (dedup8_beats_greedy ? "true" : "false") << ",\n";
    json << "    \"mandel_2node_makespan_beats_rr\": "
         << (mandel2_beats_rr ? "true" : "false") << "\n  },\n";
    json << "  \"placement_quality\": [\n";
    for (std::size_t i = 0; i < quality.size(); ++i) {
      const CellQuality& q = quality[i];
      json << "    {\"workload\": \"" << q.workload << "\", \"topo\": \""
           << q.topo << "\", \"nodes\": " << q.nodes << ", \"placers\": {";
      std::size_t k = 0;
      for (const auto& [pname, pr] : q.placers) {
        json << "\"" << pname << "\": {\"predicted_cross_bytes\": "
             << pr.predicted_cross_bytes << ", \"estimated_makespan_s\": "
             << pr.estimated_makespan_s << ", \"modeled_seconds\": "
             << pr.modeled_seconds << "}"
             << (++k < q.placers.size() ? ", " : "");
      }
      json << "}}" << (i + 1 < quality.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const JsonRow& r = rows[i];
      json << "    {\"workload\": \"" << r.workload << "\", \"topo\": \""
           << r.topo << "\", \"nodes\": " << r.nodes << ", \"placement\": \""
           << r.placement
           << "\", \"predicted_cross_bytes\": " << r.predicted_cross_bytes
           << ", \"fabric_bytes\": " << r.fabric_bytes
           << ", \"shard_bytes\": " << r.shard_bytes
           << ", \"estimated_makespan_s\": " << r.estimated_makespan_s
           << ", \"modeled_seconds\": " << r.modeled_seconds
           << ", \"throughput_mb_s\": " << r.throughput_mb_s
           << ", \"kernel_launches\": " << r.kernel_launches << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[bench] json written to %s\n", json_path.c_str());
  }

  return (bytes_pin_ok && time_pin_ok && makespan_le_baselines &&
          dedup8_beats_greedy && mandel2_beats_rr)
             ? 0
             : 1;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
