// The scaffolding every modeled replay runs on: the options that place a
// run on a cluster, the fabric traffic it reports, and ClusterReplay — the
// machine, the stage placement and the stage profiler of one run.
//
// Each paper variant (dedup::run_fig5, the mandel runners) is one loop over
// a ClusterMachine. Stage instances are charged to the node their placement
// names, and an item crossing between instances on different nodes pays a
// Fabric::send. The single-host entry points run the same loop on a
// one-node topology (single_host): with one node every send is a no-op that
// returns its dependency, so the schedule is the single-host one.
//
// This half of the cluster layer knows no app: the apps' libraries link it,
// and the app-aware half (stage-graph builders, sharded dup index) links
// the apps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::cluster {

/// Fixed size of a cross-node work descriptor (batch/line handoff without
/// payload): stage pointers, offsets, sizes. Shared by the mandel runners
/// and mandel_stage_graph so the estimator predicts what the runners send.
inline constexpr std::uint64_t kDescriptorBytes = 64;

struct ClusterRunOptions {
  Topology topo;
  /// Stage -> node map per the app's instance convention; empty = all on
  /// node 0.
  Placement placement;
  /// When set, the runner measures per-stage compute profiles while it
  /// replays the schedule — host busy seconds, device compute/copy
  /// occupancy and per-item costs — and writes them into this graph's
  /// StageInstance::compute fields (stage count must match the run's
  /// instance convention). Profiles feed the makespan estimator
  /// (cluster/makespan.hpp); measuring during a 1-node run keeps them
  /// placement-neutral. Pure observation: the modeled schedule is
  /// unchanged.
  StageGraph* profile = nullptr;
  /// When set, the run's full schedule (every node + link lane) is dumped
  /// as Chrome trace-event JSON to this path.
  std::string trace_path;
  /// When set, per-link counters are exported here under
  /// "<telemetry_prefix>.link.<a>-<b>.{transfers,bytes}".
  telemetry::Registry* registry = nullptr;
  std::string telemetry_prefix = "cluster";
};

/// Fabric traffic of one run, carried by every modeled result; all zero
/// on one node.
struct ClusterRunResult {
  /// Fabric traffic, counted once per hop (a 2-hop transfer of B bytes
  /// adds 2B) — the same accounting predicted_cross_bytes uses.
  std::uint64_t fabric_bytes = 0;
  std::uint64_t fabric_transfers = 0;
  /// Portion of fabric_bytes due to sharded dup-check queries/responses
  /// (placement-independent; subtract to compare against the stage-graph
  /// estimator).
  std::uint64_t shard_bytes = 0;
  std::vector<Fabric::LinkStats> links;
};

/// One modeled replay in progress: the machine built from the options'
/// topology, the node of every stage instance, and the stage profiler.
/// The profiling calls are no-ops unless ClusterRunOptions::profile is set,
/// so the replay loops call them unconditionally.
class ClusterReplay {
 public:
  /// `instances` is the stage-instance count of the app's convention; a
  /// non-empty placement (or profile graph) must match it.
  ClusterReplay(const ClusterRunOptions& options, std::size_t instances);

  [[nodiscard]] ClusterMachine& machine() { return machine_; }
  [[nodiscard]] Fabric& fabric() { return machine_.fabric(); }
  /// Node index of stage instance `stage`.
  [[nodiscard]] int node_of(std::size_t stage) const { return place_[stage]; }
  /// The node hosting stage instance `stage`.
  [[nodiscard]] gpusim::Machine& node(std::size_t stage) {
    return machine_.node(place_[stage]);
  }
  /// Most GPUs on any one node.
  [[nodiscard]] int max_node_devices();

  [[nodiscard]] bool profiling() const { return profile_ != nullptr; }
  void set_binding(std::size_t stage, GpuBinding binding);
  /// Records one item processed by `stage`. `index` is the global item
  /// number (the device round-robin key under GpuBinding::kPerItem).
  void profile(std::size_t stage, std::uint64_t index, double host_seconds,
               double gpu_seconds = 0, double copy_seconds = 0);
  /// Duration of a recorded timeline task (every gpusim op is one task);
  /// 0 when not profiling.
  [[nodiscard]] double task_seconds(des::TaskId id);

  /// Copies the fabric counters into `out`, exports them to the options'
  /// registry and dumps the options' trace.
  void finish(ClusterRunResult& out);

 private:
  ClusterMachine machine_;
  std::vector<int> place_;
  StageGraph* profile_;
  std::string trace_path_;
  telemetry::Registry* registry_;
  std::string telemetry_prefix_;
};

}  // namespace hs::cluster
