#include "cluster/replay.hpp"

#include <algorithm>
#include <cassert>

namespace hs::cluster {

ClusterReplay::ClusterReplay(const ClusterRunOptions& options,
                             std::size_t instances)
    : machine_(options.topo),
      place_(options.placement.node_of.empty()
                 ? std::vector<int>(instances, 0)
                 : options.placement.node_of),
      profile_(options.profile),
      trace_path_(options.trace_path),
      registry_(options.registry),
      telemetry_prefix_(options.telemetry_prefix) {
  assert(place_.size() == instances &&
         "placement size does not match the stage-instance convention");
  if (!trace_path_.empty()) machine_.set_trace_recording(true);
  if (profile_ == nullptr) return;
  assert(profile_->stages.size() == instances &&
         "profile graph does not match the run's stage convention");
  for (StageInstance& s : profile_->stages) s.compute = StageCompute{};
}

int ClusterReplay::max_node_devices() {
  int m = 0;
  for (int i = 0; i < machine_.node_count(); ++i) {
    m = std::max(m, machine_.node(i).device_count());
  }
  return m;
}

void ClusterReplay::set_binding(std::size_t stage, GpuBinding binding) {
  if (profile_ == nullptr) return;
  profile_->stages[stage].compute.binding = binding;
}

void ClusterReplay::profile(std::size_t stage, std::uint64_t index,
                            double host_seconds, double gpu_seconds,
                            double copy_seconds) {
  if (profile_ == nullptr) return;
  StageCompute& c = profile_->stages[stage].compute;
  c.host_seconds += host_seconds;
  c.gpu_seconds += gpu_seconds;
  c.copy_seconds += copy_seconds;
  c.items.push_back({index, host_seconds, gpu_seconds, copy_seconds});
}

double ClusterReplay::task_seconds(des::TaskId id) {
  if (profile_ == nullptr || !id.valid()) return 0;
  const des::Timeline& tl = machine_.timeline();
  return tl.finish_time(id) - tl.start_time(id);
}

void ClusterReplay::finish(ClusterRunResult& out) {
  Fabric& fabric = machine_.fabric();
  out.fabric_bytes = fabric.total_bytes();
  out.fabric_transfers = fabric.total_transfers();
  out.links = fabric.link_stats();
  if (registry_ != nullptr) {
    fabric.export_counters(*registry_, telemetry_prefix_);
  }
  if (!trace_path_.empty()) (void)machine_.dump_chrome_trace(trace_path_);
}

}  // namespace hs::cluster
