// Cluster helpers of the modeled apps: stage graphs of the dedup and
// mandel pipelines — the per-edge byte totals the placers and estimators
// consume — and the cluster forms of the runners.
//
// The runners themselves live with their apps (dedup::run_fig5,
// mandel::run_*): each variant is one loop over a ClusterMachine, run on
// cluster::single_host by the single-host entry points and on any topology
// through their ClusterRunOptions overloads (cluster/replay.hpp). The
// stage-instance conventions of the graphs below are the runners':
//   dedup:           [0]=source  [1]=dupcheck  [2]=writer  [3+w]=worker w
//   mandel pipeline: [0]=source  [1]=sink/collector        [2+w]=worker w
#pragma once

#include "cluster/placement.hpp"
#include "cluster/replay.hpp"
#include "dedup/modeled.hpp"
#include "mandel/modeled.hpp"

namespace hs::cluster {

/// Stage graph of the dedup pipeline with per-edge byte totals derived
/// from `trace` (source->worker batch payloads, worker->dup digests,
/// dup->worker decisions, worker->writer archive bytes). `workers_need_gpu`
/// marks worker instances GPU-feasible-only (the SPar+GPU backends).
StageGraph dedup_stage_graph(const dedup::DedupTrace& trace, int replicas,
                             bool workers_need_gpu);

/// Stage graph of the mandel combined/cpu pipeline: source->worker batch
/// descriptors, worker->collector rendered lines.
StageGraph mandel_stage_graph(int dim, int batch_lines, int workers,
                              bool workers_need_gpu);

/// dedup::run_fig5 on `options`' cluster.
dedup::Fig5Result run_fig5_cluster(const dedup::DedupTrace& trace,
                                   const dedup::Fig5Config& config,
                                   dedup::Fig5Backend backend,
                                   const ClusterRunOptions& options);

/// mandel::run_combined (CpuModel::kSpar) on `options`' cluster.
mandel::RunResult run_mandel_combined_cluster(
    const mandel::IterationMap& map, const mandel::ModeledConfig& cfg,
    mandel::GpuApi api, const ClusterRunOptions& options);

}  // namespace hs::cluster
