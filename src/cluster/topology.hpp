// Cluster topology model: nodes (CPU cores + GPUs) joined by links with
// bandwidth/latency, parsed from a small text spec.
//
// The interconnect extends the intra-host cost model one level up: a link
// is to the fabric what a PCIe copy engine is to a device — a serial
// resource on which transfers of known size serialize (duration = latency
// + bytes/bandwidth), scheduled on the shared des::Timeline. The paper's
// single-host pipelines become the 1-node degenerate case.
//
// Spec grammar (one directive per line, '#' starts a comment):
//
//   node <name> cores=<int> gpus=<int>
//   link <a> <b> bw=<bytes/s> lat=<seconds> [half]
//
// bw takes the byte units of the command-line flags (common/format's
// parse_byte_quantity: "12.5GB", "2GiB", "1e9"); lat takes s/ms/us/ns
// (parse_seconds); cores and gpus are ints, and a value outside an int is
// an error. Links are full duplex unless marked `half` (one shared engine
// both ways).
// Validation rejects duplicate node names, duplicate links, self-links,
// links referencing unknown nodes, non-positive bandwidth, negative
// latency, nodes no path of links reaches, and empty topologies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "gpusim/spec.hpp"

namespace hs::cluster {

struct NodeSpec {
  std::string name;
  int cores = 20;  ///< modeled host hardware threads
  std::vector<gpusim::DeviceSpec> gpus;
};

struct LinkSpec {
  std::string a;
  std::string b;
  double bandwidth_bytes_per_s = 0;
  double latency_s = 0;
  bool full_duplex = true;
};

struct Topology {
  std::vector<NodeSpec> nodes;
  std::vector<LinkSpec> links;

  /// Index of the named node, -1 when absent.
  [[nodiscard]] int node_index(std::string_view name) const;

  /// Structural validation per the rules above.
  [[nodiscard]] Status validate() const;
};

/// Parses the text spec; returns the validated topology or the first error
/// (with the offending line number in the message).
Result<Topology> parse_topology(std::string_view text);

/// All-pairs routing over a validated topology: BFS next hops (minimum hop
/// count, lowest-index tie break) and hop distances. hops[s][d] == -1 means
/// unreachable — transfers between such nodes are a programming error.
struct Routes {
  /// next[s][d]: the neighbor of s on the chosen path to d (next[s][s]==s).
  std::vector<std::vector<int>> next;
  /// hops[s][d]: path length in links; 0 on the diagonal.
  std::vector<std::vector<int>> hops;
};
Routes compute_routes(const Topology& topo);

/// N identical nodes, every pair joined by a full-duplex link — the bench
/// sweep's default shape.
Topology full_mesh(int nodes, int gpus_per_node,
                   const gpusim::DeviceSpec& gpu_spec,
                   double bandwidth_bytes_per_s, double latency_s,
                   int cores_per_node = 20);

/// One node named "host" with `gpus` GPUs of `gpu_spec` and no links: the
/// single machine the paper measured, on which the single-host modeled
/// runners replay their schedules.
Topology single_host(int gpus, const gpusim::DeviceSpec& gpu_spec);

}  // namespace hs::cluster
