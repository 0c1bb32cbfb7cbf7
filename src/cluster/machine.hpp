// ClusterMachine: N per-node gpusim::Machines and one Fabric behind a
// single shared clock.
//
// The machine owns the des::Timeline and the mutex; each node's
// gpusim::Machine is constructed in cluster form (external timeline +
// mutex, engine prefix "<node-name>."), so TaskIds are interchangeable
// across nodes and fabric transfers are ordinary dependencies. A 1-node
// ClusterMachine is behaviorally identical to a standalone gpusim::Machine:
// same engine set (modulo names), same submission maths.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/fabric.hpp"
#include "cluster/topology.hpp"
#include "des/timeline.hpp"
#include "gpusim/device.hpp"

namespace hs::cluster {

class ClusterMachine {
 public:
  /// `topo` must validate; asserts otherwise.
  explicit ClusterMachine(const Topology& topo);
  ClusterMachine(const ClusterMachine&) = delete;
  ClusterMachine& operator=(const ClusterMachine&) = delete;

  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] gpusim::Machine& node(int i) {
    return *nodes_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] des::Timeline& timeline() { return timeline_; }

  [[nodiscard]] double makespan() const { return timeline_.makespan(); }

  /// Kernel launches summed over every device of every node.
  [[nodiscard]] std::uint64_t kernel_launches() const;

  /// Per-op trace recording across all nodes and links (one Chrome-trace
  /// lane per engine, links included).
  void set_trace_recording(bool enabled) {
    timeline_.set_recording(enabled);
  }
  [[nodiscard]] Status dump_chrome_trace(const std::string& path) const;

 private:
  Topology topo_;
  des::Timeline timeline_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<gpusim::Machine>> nodes_;
  Fabric fabric_;
};

}  // namespace hs::cluster
