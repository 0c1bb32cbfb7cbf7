// Unit tests for the cluster layer: topology parsing/validation, fabric
// link contention against analytic oracles, stage placement, the makespan
// estimator, and golden pins of multi-node runs, whose shard bytes pin the
// sharded dup check's traffic. (The 1-node runs are the single-host
// runners; their pins live in mandel_test and dedup_test.)
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fabric.hpp"
#include "cluster/makespan.hpp"
#include "cluster/modeled.hpp"
#include "datagen/corpus.hpp"
#include "dedup/stages.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::cluster {
namespace {

Topology two_node(double bw = 1e9, double lat = 1e-3, bool duplex = true) {
  std::string spec =
      "node a cores=20 gpus=1\n"
      "node b cores=20 gpus=1\n"
      "link a b bw=" + std::to_string(bw) + " lat=" + std::to_string(lat) +
      (duplex ? "\n" : " half\n");
  auto topo = parse_topology(spec);
  EXPECT_TRUE(topo.ok()) << topo.status().ToString();
  return topo.value();
}

// ---- Topology parsing and validation ---------------------------------

TEST(TopologyTest, ParsesSpecWithSuffixes) {
  auto topo = parse_topology(
      "# comment\n"
      "node a cores=16 gpus=2\n"
      "node b cores=8 gpus=0\n"
      "link a b bw=10GB lat=5us half\n");
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_EQ(topo.value().nodes.size(), 2u);
  EXPECT_EQ(topo.value().nodes[0].cores, 16);
  EXPECT_EQ(topo.value().nodes[0].gpus.size(), 2u);
  EXPECT_EQ(topo.value().nodes[1].gpus.size(), 0u);
  ASSERT_EQ(topo.value().links.size(), 1u);
  EXPECT_DOUBLE_EQ(topo.value().links[0].bandwidth_bytes_per_s, 1e10);
  EXPECT_DOUBLE_EQ(topo.value().links[0].latency_s, 5e-6);
  EXPECT_FALSE(topo.value().links[0].full_duplex);
  EXPECT_EQ(topo.value().node_index("b"), 1);
  EXPECT_EQ(topo.value().node_index("zz"), -1);
}

TEST(TopologyTest, RejectsZeroBandwidthLink) {
  auto topo = parse_topology(
      "node a\nnode b\nlink a b bw=0 lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("bandwidth"), std::string::npos)
      << topo.status().ToString();
}

TEST(TopologyTest, ParseErrorsCarryLineNumbers) {
  auto topo = parse_topology("node a\nnode b\nlink a b bw=zoo lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("line 3"), std::string::npos)
      << topo.status().ToString();
}

TEST(TopologyTest, RejectsIntegersOutsideInt) {
  // 2^32 + 1 fits a long; narrowed to int it would read as 1.
  for (const char* node : {"node a cores=4294967297 gpus=1\n",
                           "node a gpus=4294967297\n"}) {
    auto topo = parse_topology(std::string("# first\n") + node);
    ASSERT_FALSE(topo.ok()) << node;
    EXPECT_NE(topo.status().ToString().find("line 2"), std::string::npos)
        << topo.status().ToString();
  }
}

TEST(TopologyTest, BandwidthTakesTheSharedByteUnits) {
  for (const auto& [bw, want] :
       std::vector<std::pair<std::string, double>>{
           {"12.5GB", 12.5e9}, {"1e9", 1e9}, {"2GiB", 2147483648.0}}) {
    auto topo = parse_topology("node a gpus=1\nnode b\nlink a b bw=" + bw +
                               " lat=1ms\n");
    ASSERT_TRUE(topo.ok()) << bw << ": " << topo.status().ToString();
    EXPECT_EQ(topo.value().links[0].bandwidth_bytes_per_s, want) << bw;
  }
}

TEST(TopologyTest, RejectsDanglingNodeRef) {
  auto topo = parse_topology("node a\nlink a ghost bw=1GB lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("ghost"), std::string::npos);
}

TEST(TopologyTest, RejectsDuplicateLink) {
  auto topo = parse_topology(
      "node a\nnode b\n"
      "link a b bw=1GB lat=1us\n"
      "link b a bw=2GB lat=2us\n");
  ASSERT_FALSE(topo.ok());
}

TEST(TopologyTest, RejectsSelfLinkAndDuplicateNode) {
  EXPECT_FALSE(parse_topology("node a\nlink a a bw=1GB lat=1us\n").ok());
  EXPECT_FALSE(parse_topology("node a\nnode a\n").ok());
  EXPECT_FALSE(parse_topology("").ok());
  EXPECT_FALSE(parse_topology("node a cores=0\n").ok());
}

TEST(TopologyTest, RejectsNodeWithoutPathOfLinks) {
  // Two nodes and no link: nothing can route between them.
  auto topo = parse_topology(
      "node a cores=20 gpus=2\n"
      "node b cores=20 gpus=2\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("'b'"), std::string::npos)
      << topo.status().ToString();
  // A link between two of three nodes still strands the third.
  topo = parse_topology(
      "node a\nnode b\nnode c\nlink a b bw=1GB lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("'c'"), std::string::npos)
      << topo.status().ToString();
}

TEST(TopologyTest, RoutesChainMultiHop) {
  auto topo = parse_topology(
      "node a\nnode b\nnode c\n"
      "link a b bw=1GB lat=1us\n"
      "link b c bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  Routes r = compute_routes(topo.value());
  EXPECT_EQ(r.hops[0][2], 2);
  EXPECT_EQ(r.next[0][2], 1);  // a routes to c via b
  EXPECT_EQ(r.hops[0][0], 0);
}

TEST(TopologyTest, FullMeshIsOneHopEverywhere) {
  Topology topo = full_mesh(4, 1, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  ASSERT_TRUE(topo.validate().ok());
  EXPECT_EQ(topo.links.size(), 6u);
  Routes r = compute_routes(topo);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(r.hops[a][b], a == b ? 0 : 1);
    }
  }
}

// ---- Fabric: link contention against analytic oracles ----------------

TEST(FabricTest, TransfersSerializeOnSharedLink) {
  // 1 MB at 1 GB/s = 1 ms per transfer + 1 ms latency = 2 ms each.
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  des::TaskId t1 = fabric.send(0, 1, 1'000'000);
  des::TaskId t2 = fabric.send(0, 1, 1'000'000);
  EXPECT_DOUBLE_EQ(t1.finish, 2e-3);
  EXPECT_DOUBLE_EQ(t2.finish, 4e-3);  // queued behind t1
}

TEST(FabricTest, FullDuplexDirectionsDoNotContend) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1'000'000);
  des::TaskId back = fabric.send(1, 0, 1'000'000);
  EXPECT_DOUBLE_EQ(back.finish, 2e-3);  // own engine, no queue
}

TEST(FabricTest, HalfDuplexDirectionsContend) {
  Topology topo = two_node(1e9, 1e-3, /*duplex=*/false);
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1'000'000);
  des::TaskId back = fabric.send(1, 0, 1'000'000);
  EXPECT_DOUBLE_EQ(back.finish, 4e-3);  // shared engine
}

TEST(FabricTest, SelfSendIsNoOp) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  des::TaskId dep = tl.submit(tl.add_engine("x"), 1.0);
  EXPECT_EQ(fabric.send(0, 0, 12345, dep), dep);
  EXPECT_EQ(fabric.total_bytes(), 0u);
  EXPECT_EQ(fabric.total_transfers(), 0u);
}

TEST(FabricTest, MultiHopChainsPerHopTasks) {
  auto topo = parse_topology(
      "node a\nnode b\nnode c\n"
      "link a b bw=1GB lat=1ms\n"
      "link b c bw=1GB lat=1ms\n");
  ASSERT_TRUE(topo.ok());
  des::Timeline tl;
  Fabric fabric(topo.value(), &tl);
  des::TaskId t = fabric.send(0, 2, 1'000'000);
  EXPECT_DOUBLE_EQ(t.finish, 4e-3);  // two hops of 2 ms
  EXPECT_EQ(fabric.total_transfers(), 2u);    // one per hop
  EXPECT_EQ(fabric.total_bytes(), 2'000'000u);
}

TEST(FabricTest, CrossTrafficViaSubmitAtDelaysSend) {
  // Cross-traffic released at t=5ms (a dependency on a 5 ms task) occupies
  // the link engine for 3 ms; a send arriving earlier queues behind it. The
  // fabric and the raw submit share the engine, so the oracle is exact.
  Topology topo = two_node(1e9, 0.0);
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  // Locate the forward engine by scheduling a probe first (engine ids are
  // not exposed; the probe also validates the engine naming).
  des::TaskId probe = fabric.send(0, 1, 1);  // ~instant
  (void)probe;
  // Occupy the a->b lane from 5 ms for 3 ms via the timeline's own API.
  // Engines registered by the fabric: "link.a>b" is engine index 0.
  des::TaskId release = tl.submit(tl.add_engine("release"), 5e-3);
  des::TaskId cross =
      tl.submit(des::EngineId{0}, 3e-3, {&release, 1}, "cross");
  EXPECT_DOUBLE_EQ(cross.start, 5e-3);
  des::TaskId t = fabric.send(0, 1, 1'000'000);  // wants 1 ms, arrives now
  EXPECT_DOUBLE_EQ(t.start, 8e-3);               // behind the cross traffic
  EXPECT_DOUBLE_EQ(t.finish, 9e-3);
}

TEST(FabricTest, ExportsLinkCounters) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1000);
  fabric.send(1, 0, 500);
  telemetry::Registry reg;
  fabric.export_counters(reg, "cluster");
  EXPECT_EQ(reg.counter("cluster.link.a-b.bytes")->value(), 1500u);
  EXPECT_EQ(reg.counter("cluster.link.a-b.transfers")->value(), 2u);
  EXPECT_EQ(reg.counter("cluster.fabric.bytes")->value(), 1500u);
  auto stats = fabric.link_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "a-b");
  EXPECT_EQ(stats[0].bytes, 1500u);
  EXPECT_GT(stats[0].busy_seconds, 0.0);
}

// ---- Placement --------------------------------------------------------

StageGraph toy_graph() {
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"heavy", false, -1, 1});
  g.stages.push_back({"sink", false, -1, 1});
  g.edges.push_back({0, 1, 1'000'000});
  g.edges.push_back({1, 2, 1'000'000});
  return g;
}

TEST(PlacementTest, GreedyCoLocatesHeavyEdges) {
  Topology topo = full_mesh(2, 1, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  StageGraph g = toy_graph();
  Placement greedy = place_greedy(g, topo);
  EXPECT_EQ(predicted_cross_bytes(g, greedy, topo), 0u);
  Placement rr = place_round_robin(g, topo);
  EXPECT_GT(predicted_cross_bytes(g, rr, topo), 0u);
}

TEST(PlacementTest, RespectsGpuFeasibilityAndPins) {
  auto topo = parse_topology(
      "node cpuonly cores=20 gpus=0\n"
      "node gpubox cores=20 gpus=2\n"
      "link cpuonly gpubox bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok());
  StageGraph g;
  g.stages.push_back({"src", false, 0, 1});  // pinned to cpuonly
  g.stages.push_back({"k", true, -1, 1});    // needs a GPU
  g.edges.push_back({0, 1, 10});
  for (const Placement& p : {place_round_robin(g, topo.value()),
                             place_greedy(g, topo.value())}) {
    EXPECT_EQ(p.node_of[0], 0);
    EXPECT_EQ(p.node_of[1], 1);  // only gpubox is feasible
  }
}

TEST(PlacementTest, GreedyBeatsRoundRobinOnDedupGraph) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 512 * 1024;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  dedup::Fig5Config cfg;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x3FF;
  dedup::DedupTrace trace = dedup::build_trace(input, cfg.dedup);

  Topology topo = full_mesh(4, 2, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  StageGraph g = dedup_stage_graph(trace, /*replicas=*/19, true);
  const std::uint64_t rr =
      predicted_cross_bytes(g, place_round_robin(g, topo), topo);
  const std::uint64_t greedy =
      predicted_cross_bytes(g, place_greedy(g, topo), topo);
  EXPECT_LT(greedy, rr);
}

// ---- Cluster runners: estimator pin ----------------------------------

dedup::DedupTrace small_trace(dedup::Fig5Config& cfg) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 512 * 1024;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  cfg.replicas = 3;
  cfg.devices = 2;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x3FF;
  return dedup::build_trace(input, cfg.dedup);
}

TEST(ClusterRunnerTest, EstimatorMatchesFabricBytesExactly) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  for (int nodes : {2, 4}) {
    Topology topo = full_mesh(nodes, 2, cfg.device_spec, 1e9, 1e-6);
    StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
    for (Placement placement :
         {place_round_robin(g, topo), place_greedy(g, topo)}) {
      ClusterRunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      const auto r =
          run_fig5_cluster(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
      EXPECT_EQ(r.fabric_bytes - r.shard_bytes,
                predicted_cross_bytes(g, placement, topo))
          << nodes << " nodes";
      EXPECT_GT(r.shard_bytes, 0u);
    }
  }
}

TEST(ClusterRunnerTest, ProfilingLeavesTheScheduleUnchanged) {
  // Profiling observes a run: the 1-node profiled run must match the
  // single-host run (same loop, no profile) exactly.
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
  ClusterRunOptions opts;
  opts.topo = full_mesh(1, cfg.devices, cfg.device_spec, 1e9, 1e-6);
  opts.profile = &g;
  const auto profiled =
      run_fig5_cluster(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  EXPECT_EQ(profiled.modeled_seconds,
            dedup::run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda)
                .modeled_seconds);
  EXPECT_GT(g.stages[3].compute.gpu_seconds, 0.0);

  kernels::MandelParams p;
  p.dim = 64;
  p.niter = 500;
  const mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig mcfg;
  mcfg.batch_lines = 8;
  mcfg.devices = 2;
  mcfg.combined_workers = 4;
  StageGraph mg = mandel_stage_graph(p.dim, mcfg.batch_lines,
                                     mcfg.combined_workers, true);
  opts.topo = full_mesh(1, mcfg.devices, mcfg.device_spec, 1e9, 1e-6);
  opts.profile = &mg;
  const auto mprofiled =
      run_mandel_combined_cluster(map, mcfg, mandel::GpuApi::kCuda, opts);
  EXPECT_EQ(mprofiled.modeled_seconds,
            mandel::run_combined(map, mcfg, mandel::CpuModel::kSpar,
                                 mandel::GpuApi::kCuda)
                .modeled_seconds);
  EXPECT_GT(mg.stages[2].compute.gpu_seconds, 0.0);
}

TEST(ClusterRunnerTest, MultiNodeRunIsSlowerThanFreeTraffic) {
  // Scheduling the same schedule over a slow fabric must cost time: the
  // 2-node run with microsecond links cannot beat itself with instant
  // links.
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
  auto run_at_bw = [&](double bw) {
    ClusterRunOptions opts;
    opts.topo = full_mesh(2, 2, cfg.device_spec, bw, 1e-6);
    opts.placement = place_round_robin(g, opts.topo);
    return run_fig5_cluster(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  };
  const auto slow = run_at_bw(1e8);   // 100 MB/s links
  const auto fast = run_at_bw(1e12);  // ~free links
  EXPECT_GT(slow.modeled_seconds, fast.modeled_seconds);
}

TEST(ClusterRunnerTest, ExportsTraceAndTelemetry) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  telemetry::Registry reg;
  ClusterRunOptions opts;
  opts.topo = full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
  StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
  opts.placement = place_round_robin(g, opts.topo);
  opts.registry = &reg;
  opts.trace_path = ::testing::TempDir() + "/cluster_trace.json";
  const auto r =
      run_fig5_cluster(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  EXPECT_GT(r.fabric_bytes, 0u);
  EXPECT_EQ(reg.counter("cluster.fabric.bytes")->value(), r.fabric_bytes);
  std::ifstream in(opts.trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("link.n0>n1"), std::string::npos)
      << "trace should contain one lane per link direction";
  EXPECT_TRUE(r.trace_status.ok()) << r.trace_status.ToString();
  std::remove(opts.trace_path.c_str());
}

TEST(ClusterRunnerTest, ReportsATraceItCannotWrite) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  ClusterRunOptions opts;
  opts.topo = full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
  opts.trace_path = ::testing::TempDir() + "/no_such_dir/cluster_trace.json";
  const auto r =
      run_fig5_cluster(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  ASSERT_FALSE(r.trace_status.ok());
  EXPECT_NE(r.trace_status.message().find(opts.trace_path), std::string::npos)
      << r.trace_status.ToString();
}

// ---- Makespan estimator + placer -------------------------------------

/// Bench-shaped dedup workload (19 replicas, 2 kB blocks) on a 1 MB
/// corpus, with the stage graph's compute profiles measured during a
/// 1-node run — the estimator needs measured StageCompute to bound time.
struct ProfiledDedup {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace;
  StageGraph graph;
};

ProfiledDedup profiled_dedup() {
  ProfiledDedup d;
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 2'000'000;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  d.cfg.replicas = 19;
  d.cfg.devices = 2;
  d.cfg.dedup.batch_size = 64 * 1024;
  d.cfg.dedup.rabin.mask = 0x7FF;
  d.trace = dedup::build_trace(input, d.cfg.dedup);
  d.graph = dedup_stage_graph(d.trace, d.cfg.replicas, true);
  ClusterRunOptions opts;
  opts.topo = full_mesh(1, 2, d.cfg.device_spec, 12.5e9, 2e-6);
  opts.profile = &d.graph;
  (void)run_fig5_cluster(d.trace, d.cfg, dedup::Fig5Backend::kSparCuda,
                         opts);
  return d;
}

TEST(MakespanTest, EstimatorPinsDesWithinFactorOnDedup) {
  ProfiledDedup d = profiled_dedup();
  for (int nodes : {1, 2, 4, 8}) {
    const Topology topo =
        full_mesh(nodes, 2, d.cfg.device_spec, 12.5e9, 2e-6);
    const MakespanEstimator est(d.graph, topo);
    for (const Placement& placement :
         {place_round_robin(d.graph, topo), place_greedy(d.graph, topo),
          place_makespan(d.graph, topo)}) {
      ClusterRunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      const auto r = run_fig5_cluster(
          d.trace, d.cfg, dedup::Fig5Backend::kSparCuda, opts);
      const double e = est.estimate(placement);
      EXPECT_LE(r.modeled_seconds, e * kEstimatorPinFactor)
          << nodes << " nodes";
      EXPECT_LE(e, r.modeled_seconds * kEstimatorLowerSlack)
          << nodes << " nodes";
    }
  }
}

TEST(MakespanTest, EstimatorPinsDesWithinFactorOnMandel) {
  kernels::MandelParams p;
  p.dim = 100;
  p.niter = 500;
  mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig cfg;
  cfg.batch_lines = 8;
  cfg.devices = 2;
  cfg.combined_workers = 4;
  StageGraph g =
      mandel_stage_graph(p.dim, cfg.batch_lines, cfg.combined_workers, true);
  {
    ClusterRunOptions opts;
    opts.topo = full_mesh(1, 2, cfg.device_spec, 12.5e9, 2e-6);
    opts.profile = &g;
    (void)run_mandel_combined_cluster(map, cfg, mandel::GpuApi::kCuda, opts);
  }
  for (int nodes : {1, 2, 4, 8}) {
    const Topology topo = full_mesh(nodes, 2, cfg.device_spec, 12.5e9, 2e-6);
    const MakespanEstimator est(g, topo);
    for (const Placement& placement :
         {place_round_robin(g, topo), place_greedy(g, topo),
          place_makespan(g, topo)}) {
      ClusterRunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      const auto r =
          run_mandel_combined_cluster(map, cfg, mandel::GpuApi::kCuda, opts);
      const double e = est.estimate(placement);
      EXPECT_LE(r.modeled_seconds, e * kEstimatorPinFactor)
          << nodes << " nodes";
      EXPECT_LE(e, r.modeled_seconds * kEstimatorLowerSlack)
          << nodes << " nodes";
    }
  }
}

TEST(MakespanTest, PlacerIsDeterministicAcrossRepeatedRuns) {
  ProfiledDedup d = profiled_dedup();
  for (int nodes : {2, 4, 8}) {
    const Topology topo =
        full_mesh(nodes, 2, d.cfg.device_spec, 12.5e9, 2e-6);
    const Placement first = place_makespan(d.graph, topo);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(place_makespan(d.graph, topo).node_of, first.node_of)
          << nodes << " nodes, repeat " << rep;
    }
  }
}

TEST(MakespanTest, HeteroTopologyKeepsGpuStagesOffGpulessNodes) {
  ProfiledDedup d = profiled_dedup();
  auto topo_or = parse_topology(R"(
node n0 cores=20 gpus=2
node n1 cores=20 gpus=1
node n2 cores=20 gpus=0
link n0 n1 bw=12.5GB lat=2us
link n0 n2 bw=12.5GB lat=2us
link n1 n2 bw=12.5GB lat=2us
)");
  ASSERT_TRUE(topo_or.ok()) << topo_or.status().ToString();
  Topology topo = std::move(topo_or).value();
  for (NodeSpec& node : topo.nodes) {
    for (gpusim::DeviceSpec& gpu : node.gpus) gpu = d.cfg.device_spec;
  }
  for (const Placement& placement :
       {place_round_robin(d.graph, topo), place_greedy(d.graph, topo),
        place_makespan(d.graph, topo)}) {
    for (std::size_t i = 0; i < d.graph.stages.size(); ++i) {
      if (!d.graph.stages[i].needs_gpu) continue;
      const auto node = static_cast<std::size_t>(placement.node_of[i]);
      EXPECT_FALSE(topo.nodes[node].gpus.empty())
          << d.graph.stages[i].name << " placed on GPU-less "
          << topo.nodes[node].name;
    }
  }
}

// The PR-8 inversion: byte-greedy collapses the farm onto two nodes and
// loses to round-robin on modeled time at 8 nodes even though it wins on
// bytes. place_makespan must resolve it — no worse than either baseline,
// strictly better than greedy.
TEST(MakespanTest, ResolvesEightNodeDedupGreedyInversion) {
  ProfiledDedup d = profiled_dedup();
  const Topology topo = full_mesh(8, 2, d.cfg.device_spec, 12.5e9, 2e-6);
  auto des = [&](const Placement& placement) {
    ClusterRunOptions opts;
    opts.topo = topo;
    opts.placement = placement;
    return run_fig5_cluster(d.trace, d.cfg, dedup::Fig5Backend::kSparCuda,
                            opts)
        .modeled_seconds;
  };
  const double rr = des(place_round_robin(d.graph, topo));
  const double greedy = des(place_greedy(d.graph, topo));
  const double makespan = des(place_makespan(d.graph, topo));
  EXPECT_LT(rr, greedy) << "inversion precondition: greedy loses to RR";
  EXPECT_LT(makespan, greedy);
  EXPECT_LE(makespan, rr * kEstimatorLowerSlack);
}

// ---- golden pins ------------------------------------------------------

// Multi-node runs of both apps under every placer, pinned bit for bit:
// modeled seconds as hexfloats, kernel launches, the mandel image checksum
// (0 for dedup) and the fabric and shard byte counts. A change to any
// cluster schedule fails here with the replacement row in the message.
struct ClusterPin {
  const char* name;
  double modeled_seconds;
  std::uint64_t kernel_launches;
  std::uint64_t checksum;
  std::uint64_t fabric_bytes;
  std::uint64_t shard_bytes;
};

constexpr ClusterPin kClusterPins[] = {
    {"spar-cpu n2 rr", 0x1.8b0b161b90ce5p-4, 0,
     0x0ull, 533200, 4840},
    {"spar-cpu n2 greedy", 0x1.951b178f67066p-5, 0,
     0x0ull, 4240, 4240},
    {"spar-cpu n2 makespan", 0x1.951b178f67066p-5, 0,
     0x0ull, 4240, 4240},
    {"spar-cpu n4 rr", 0x1.cb081f4ec8e79p-5, 0,
     0x0ull, 648663, 6920},
    {"spar-cpu n4 greedy", 0x1.9535ef8201c32p-5, 0,
     0x0ull, 6640, 6640},
    {"spar-cpu n4 makespan", 0x1.9535ef8201c32p-5, 0,
     0x0ull, 6640, 6640},
    {"spar+cuda n2 rr", 0x1.2ebc38b6447c7p-9, 16,
     0x0ull, 533200, 4840},
    {"spar+cuda m2 n2 rr", 0x1.2ebc38b6447c7p-9, 16,
     0x0ull, 533200, 4840},
    {"spar+cuda n2 greedy", 0x1.55235f7db39a5p-10, 16,
     0x0ull, 4240, 4240},
    {"spar+cuda m2 n2 greedy", 0x1.55235f7db39a5p-10, 16,
     0x0ull, 4240, 4240},
    {"spar+cuda n2 makespan", 0x1.55235f7db39a5p-10, 16,
     0x0ull, 4240, 4240},
    {"spar+cuda m2 n2 makespan", 0x1.55235f7db39a5p-10, 16,
     0x0ull, 4240, 4240},
    {"spar+cuda n4 rr", 0x1.a3e93bf7178e7p-10, 16,
     0x0ull, 648663, 6920},
    {"spar+cuda m2 n4 rr", 0x1.a3e93bf7178e7p-10, 16,
     0x0ull, 648663, 6920},
    {"spar+cuda n4 greedy", 0x1.5abcd17f2dc3p-10, 16,
     0x0ull, 6640, 6640},
    {"spar+cuda m2 n4 greedy", 0x1.5abcd17f2dc3p-10, 16,
     0x0ull, 6640, 6640},
    {"spar+cuda n4 makespan", 0x1.5abcd17f2dc3p-10, 16,
     0x0ull, 6640, 6640},
    {"spar+cuda m2 n4 makespan", 0x1.5abcd17f2dc3p-10, 16,
     0x0ull, 6640, 6640},
    {"spar+opencl n2 rr", 0x1.31183388de11ep-9, 16,
     0x0ull, 533200, 4840},
    {"spar+opencl m2 n2 rr", 0x1.31183388de11ep-9, 16,
     0x0ull, 533200, 4840},
    {"spar+opencl n2 greedy", 0x1.5848adebd5b6ep-10, 16,
     0x0ull, 4240, 4240},
    {"spar+opencl m2 n2 greedy", 0x1.5848adebd5b6ep-10, 16,
     0x0ull, 4240, 4240},
    {"spar+opencl n2 makespan", 0x1.5848adebd5b6ep-10, 16,
     0x0ull, 4240, 4240},
    {"spar+opencl m2 n2 makespan", 0x1.5848adebd5b6ep-10, 16,
     0x0ull, 4240, 4240},
    {"spar+opencl n4 rr", 0x1.a70e8a6539ab1p-10, 16,
     0x0ull, 648663, 6920},
    {"spar+opencl m2 n4 rr", 0x1.a70e8a6539ab1p-10, 16,
     0x0ull, 648663, 6920},
    {"spar+opencl n4 greedy", 0x1.5de21fed4fdfap-10, 16,
     0x0ull, 6640, 6640},
    {"spar+opencl m2 n4 greedy", 0x1.5de21fed4fdfap-10, 16,
     0x0ull, 6640, 6640},
    {"spar+opencl n4 makespan", 0x1.5de21fed4fdfap-10, 16,
     0x0ull, 6640, 6640},
    {"spar+opencl m2 n4 makespan", 0x1.5de21fed4fdfap-10, 16,
     0x0ull, 6640, 6640},
    {"mandel cuda n2 rr", 0x1.1c445d32d92eap-13, 8,
     0x34c8d3ec131a5d9bull, 2304, 0},
    {"mandel cuda n2 greedy", 0x1.ca72b6eb0ef33p-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel cuda n2 makespan", 0x1.ca72b6eb0ef33p-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel cuda n4 rr", 0x1.00e745bbd5526p-13, 8,
     0x34c8d3ec131a5d9bull, 3456, 0},
    {"mandel cuda n4 greedy", 0x1.ca72b6eb0ef33p-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel cuda n4 makespan", 0x1.ca72b6eb0ef33p-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel opencl n2 rr", 0x1.24a7d90334257p-13, 8,
     0x34c8d3ec131a5d9bull, 2304, 0},
    {"mandel opencl n2 greedy", 0x1.d2d632bb69e9fp-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel opencl n2 makespan", 0x1.d2d632bb69e9fp-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel opencl n4 rr", 0x1.094ac18c30493p-13, 8,
     0x34c8d3ec131a5d9bull, 3456, 0},
    {"mandel opencl n4 greedy", 0x1.d2d632bb69e9fp-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
    {"mandel opencl n4 makespan", 0x1.d2d632bb69e9fp-14, 8,
     0x34c8d3ec131a5d9bull, 0, 0},
};

/// Placements under test: every placer on `graph` over `topo`.
std::vector<std::pair<std::string, Placement>> every_placer(
    const StageGraph& graph, const Topology& topo) {
  return {{"rr", place_round_robin(graph, topo)},
          {"greedy", place_greedy(graph, topo)},
          {"makespan", place_makespan(graph, topo)}};
}

TEST(ClusterGoldenTest, EveryPlacedRunMatchesItsPin) {
  struct Row {
    std::string name;
    double modeled_seconds;
    std::uint64_t kernel_launches;
    std::uint64_t checksum;
    std::uint64_t fabric_bytes;
    std::uint64_t shard_bytes;
  };
  std::vector<Row> rows;

  dedup::Fig5Config dcfg;
  const dedup::DedupTrace trace = small_trace(dcfg);
  dedup::Fig5Config dcfg2 = dcfg;
  dcfg2.mem_spaces = 2;
  const std::pair<const char*, dedup::Fig5Config> dconfigs[] = {
      {"", dcfg}, {" m2", dcfg2}};
  for (auto backend : {dedup::Fig5Backend::kSparCpu,
                       dedup::Fig5Backend::kSparCuda,
                       dedup::Fig5Backend::kSparOcl}) {
    const bool gpu = backend != dedup::Fig5Backend::kSparCpu;
    StageGraph g = dedup_stage_graph(trace, dcfg.replicas, gpu);
    ClusterRunOptions one;
    one.topo = full_mesh(1, 2, dcfg.device_spec, 1e9, 1e-6);
    one.profile = &g;
    (void)run_fig5_cluster(trace, dcfg, backend, one);
    for (int nodes : {2, 4}) {
      const Topology topo = full_mesh(nodes, 2, dcfg.device_spec, 1e9, 1e-6);
      for (const auto& [pname, placement] : every_placer(g, topo)) {
        for (const auto& [suffix, cfg] : dconfigs) {
          if (!gpu && *suffix != '\0') continue;
          ClusterRunOptions opts;
          opts.topo = topo;
          opts.placement = placement;
          const auto r = run_fig5_cluster(trace, cfg, backend, opts);
          rows.push_back({std::string(dedup::fig5_backend_name(backend)) +
                              suffix + " n" + std::to_string(nodes) + " " +
                              pname,
                          r.modeled_seconds, r.kernel_launches, 0,
                          r.fabric_bytes, r.shard_bytes});
        }
      }
    }
  }

  kernels::MandelParams p;
  p.dim = 64;
  p.niter = 500;
  const mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig mcfg;
  mcfg.batch_lines = 8;
  mcfg.devices = 2;
  mcfg.combined_workers = 4;
  StageGraph mg = mandel_stage_graph(p.dim, mcfg.batch_lines,
                                     mcfg.combined_workers, true);
  {
    ClusterRunOptions one;
    one.topo = full_mesh(1, 2, mcfg.device_spec, 1e9, 1e-6);
    one.profile = &mg;
    (void)run_mandel_combined_cluster(map, mcfg, mandel::GpuApi::kCuda, one);
  }
  for (auto api : {mandel::GpuApi::kCuda, mandel::GpuApi::kOpenCl}) {
    for (int nodes : {2, 4}) {
      const Topology topo = full_mesh(nodes, 2, mcfg.device_spec, 1e9, 1e-6);
      for (const auto& [pname, placement] : every_placer(mg, topo)) {
        ClusterRunOptions opts;
        opts.topo = topo;
        opts.placement = placement;
        const auto r = run_mandel_combined_cluster(map, mcfg, api, opts);
        rows.push_back({"mandel " + std::string(mandel::gpu_api_name(api)) +
                            " n" + std::to_string(nodes) + " " + pname,
                        r.modeled_seconds, r.kernel_launches, r.checksum,
                        r.fabric_bytes, r.shard_bytes});
      }
    }
  }

  EXPECT_EQ(rows.size(), std::size(kClusterPins));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char text[256];
    std::snprintf(text, sizeof text,
                  "    {\"%s\", %a, %llu,\n     0x%llxull, %llu, %llu},",
                  r.name.c_str(), r.modeled_seconds,
                  static_cast<unsigned long long>(r.kernel_launches),
                  static_cast<unsigned long long>(r.checksum),
                  static_cast<unsigned long long>(r.fabric_bytes),
                  static_cast<unsigned long long>(r.shard_bytes));
    if (i >= std::size(kClusterPins)) {
      ADD_FAILURE() << "unpinned run:\n" << text;
      continue;
    }
    const ClusterPin& pin = kClusterPins[i];
    EXPECT_EQ(r.name, pin.name) << text;
    EXPECT_EQ(r.modeled_seconds, pin.modeled_seconds) << text;
    EXPECT_EQ(r.kernel_launches, pin.kernel_launches) << text;
    EXPECT_EQ(r.checksum, pin.checksum) << text;
    EXPECT_EQ(r.fabric_bytes, pin.fabric_bytes) << text;
    EXPECT_EQ(r.shard_bytes, pin.shard_bytes) << text;
  }
}

}  // namespace
}  // namespace hs::cluster
