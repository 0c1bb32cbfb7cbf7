// Modeled Dedup variants — the engine behind Fig. 5.
//
// A DedupTrace runs the real stages once per dataset (rabin fragmentation,
// SHA-1, duplicate decisions, LZSS match costs, output sizes) and records
// the per-batch work. Each Fig. 5 variant then replays its own schedule —
// who enqueues what, on which stream, with which synchronization — charging
// trace-derived durations to modeled host workers and simulated devices.
// Throughput = input bytes / modeled makespan, the metric Fig. 5 plots.
//
// The CUDA-vs-OpenCL asymmetry the paper found is encoded exactly as
// diagnosed in §V-B: Dedup's realloc'd buffers cannot be page-locked, so
// the CUDA variants' async copies run at pageable bandwidth and block the
// issuing host thread (cudaMemcpyAsync degrades to synchronous), which is
// why 2x memory spaces do not help CUDA; the OpenCL variants copy
// asynchronously but pay higher per-enqueue overhead.
//
// Each variant is one loop over a cluster::ClusterMachine
// (cluster/replay.hpp). run_fig5 without ClusterRunOptions runs it on
// cluster::single_host with the GPUs the backend drives — the paper's
// machine. With options, stage instances sit on the nodes their placement
// names (Placement::node_of index):
//   farms:                      [0]=source [1]=dupcheck [2]=writer
//                               [3+w]=worker w
//   sequential / single-thread: [0]=the one host thread
// Batch payloads, digests, decisions and archive bytes cross nodes with
// Fabric::send, each farm worker drives the GPUs of its own node, and the
// duplicate check is sharded by content hash: block owner = digest lead
// byte % nodes (BatchCosts::shard_key), shard s served by node s. The dup
// stage probes its local shard for free and pays one fabric round trip
// (24 B/block query, 16 B/block response) per remote owner per batch,
// serialized on the owner's shard-service engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/replay.hpp"
#include "dedup/stages.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/host_model.hpp"
#include "sched/sched.hpp"

namespace hs::dedup {

/// Per-batch work summary extracted from a real run of the stages.
struct BatchCosts {
  std::uint32_t data_len = 0;
  std::vector<std::uint32_t> block_lens;  ///< GPU hash-kernel lane costs
  std::vector<std::uint32_t> start_pos;   ///< FindMatch block bounds
  std::uint64_t sha1_rounds = 0;
  std::uint64_t block_count = 0;
  std::uint64_t match_cost_units = 0;         ///< whole batch (GPU kernel)
  std::uint64_t unique_match_cost_units = 0;  ///< unique blocks (CPU path)
  std::uint64_t unique_bytes = 0;
  std::uint64_t output_bytes = 0;
  /// Leading digest byte per block, in block order. Content-hash routing key
  /// for the cluster-sharded duplicate check (owner node = key % nodes).
  std::vector<std::uint8_t> shard_key;
};

struct DedupTrace {
  std::vector<BatchCosts> batches;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t unique_blocks = 0;
  std::uint64_t duplicate_blocks = 0;
};

/// Runs fragmentation, hashing, duplicate checking and match costing once;
/// does NOT produce an archive (use dedup/pipelines.hpp for that).
/// `variable_batches` selects PARSEC's original content-defined batch
/// boundaries instead of the paper's fixed-size refactor (DESIGN.md §4.3).
DedupTrace build_trace(std::span<const std::uint8_t> input,
                       const DedupConfig& config,
                       bool variable_batches = false);

enum class Fig5Backend {
  kSequential,
  kSparCpu,      ///< 19-replica CPU farm (hash + compress on workers)
  kCudaSingle,   ///< single host thread driving one GPU via CUDA semantics
  kOclSingle,    ///< single host thread driving one GPU via OpenCL semantics
  kSparCuda,     ///< Fig. 3 graph, CUDA semantics, multi-GPU capable
  kSparOcl,      ///< Fig. 3 graph, OpenCL semantics, multi-GPU capable
};

std::string_view fig5_backend_name(Fig5Backend b);

struct Fig5Config {
  perfmodel::HostProfile host = perfmodel::HostProfile::I9_7900X();
  gpusim::DeviceSpec device_spec = gpusim::DeviceSpec::TitanXP();
  DedupConfig dedup;
  int devices = 1;
  int replicas = 19;
  /// Paper's central optimization: one FindMatch kernel per batch (true)
  /// vs one kernel per block (false, the "very poor" pre-fix version).
  bool batched_kernel = true;
  /// Memory spaces (streams + buffers) per driver/worker: 1 or 2.
  int mem_spaces = 1;
  /// Device dispatch for the SPar+GPU variants. kStatic keeps the paper's
  /// per-replica round-robin device binding; kAdaptive sends each batch to
  /// the memory space whose device frees up earliest (least-loaded across
  /// every device of the replica's node — DESIGN.md §4h). Single-thread and
  /// CPU variants ignore this; static output is unchanged by the flag.
  sched::SchedMode sched = sched::SchedMode::kStatic;
};

/// Fabric fields (cluster::ClusterRunResult) are zero on one node.
struct Fig5Result : cluster::ClusterRunResult {
  std::string label;
  double modeled_seconds = 0;
  double throughput_mb_s = 0;  ///< input MB (decimal) per second
  std::uint64_t kernel_launches = 0;  ///< summed over every node
};

Fig5Result run_fig5(const DedupTrace& trace, const Fig5Config& config,
                    Fig5Backend backend);
/// `config.devices` is ignored here: each worker drives its node's GPUs.
Fig5Result run_fig5(const DedupTrace& trace, const Fig5Config& config,
                    Fig5Backend backend,
                    const cluster::ClusterRunOptions& options);

}  // namespace hs::dedup
