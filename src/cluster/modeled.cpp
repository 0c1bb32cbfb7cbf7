#include "cluster/modeled.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace hs::cluster {

namespace {

/// Per-edge totals of item hand-offs; the edges that carry bytes become
/// the graph's edges in (from, to) order.
class EdgeTotals {
 public:
  void add(std::size_t from, std::size_t to, std::uint64_t bytes) {
    StageEdge& e = edges_[{from, to}];
    e.from = static_cast<int>(from);
    e.to = static_cast<int>(to);
    e.bytes += bytes;
    e.transfers += 1;
  }

  void emit(StageGraph& g) const {
    for (const auto& [key, edge] : edges_) {
      if (edge.bytes > 0) g.edges.push_back(edge);
    }
  }

 private:
  std::map<std::pair<std::size_t, std::size_t>, StageEdge> edges_;
};

}  // namespace

StageGraph dedup_stage_graph(const dedup::DedupTrace& trace, int replicas,
                             bool workers_need_gpu) {
  const int R = std::max(1, replicas);
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"dupcheck", false, -1, 1});
  g.stages.push_back({"writer", false, -1, 1});
  for (int w = 0; w < R; ++w) {
    // A GPU-farm replica is a hash worker + a compress worker (two host
    // threads); the CPU farm runs both phases on one thread.
    g.stages.push_back({"worker" + std::to_string(w), workers_need_gpu, -1,
                        workers_need_gpu ? 2 : 1});
  }

  EdgeTotals totals;
  for (std::size_t i = 0; i < trace.batches.size(); ++i) {
    const dedup::BatchCosts& b = trace.batches[i];
    const std::size_t w = 3 + i % static_cast<std::size_t>(R);
    totals.add(0, w, b.data_len);          // batch payload to the worker
    totals.add(w, 1, 20 * b.block_count);  // digests to the dup check
    totals.add(1, w, b.block_count);       // decisions back
    totals.add(w, 2, b.output_bytes);      // archive bytes to the writer
  }
  totals.emit(g);
  return g;
}

StageGraph mandel_stage_graph(int dim, int batch_lines, int workers,
                              bool workers_need_gpu) {
  const int W = std::max(1, workers);
  const int batch = std::max(1, batch_lines);
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"collector", false, -1, 1});
  for (int w = 0; w < W; ++w) {
    g.stages.push_back({"worker" + std::to_string(w), workers_need_gpu, -1,
                        1});
  }
  EdgeTotals totals;
  const int nbatches = (dim + batch - 1) / batch;
  for (int b = 0; b < nbatches; ++b) {
    const std::size_t w = 2 + static_cast<std::size_t>(b % W);
    const int count = std::min(batch, dim - b * batch);
    totals.add(0, w, kDescriptorBytes);
    totals.add(w, 1,
               static_cast<std::uint64_t>(count) *
                   static_cast<std::uint64_t>(dim));
  }
  totals.emit(g);
  return g;
}

dedup::Fig5Result run_fig5_cluster(const dedup::DedupTrace& trace,
                                   const dedup::Fig5Config& config,
                                   dedup::Fig5Backend backend,
                                   const ClusterRunOptions& options) {
  return dedup::run_fig5(trace, config, backend, options);
}

mandel::RunResult run_mandel_combined_cluster(
    const mandel::IterationMap& map, const mandel::ModeledConfig& cfg,
    mandel::GpuApi api, const ClusterRunOptions& options) {
  return mandel::run_combined(map, cfg, mandel::CpuModel::kSpar, api,
                              options);
}

}  // namespace hs::cluster
