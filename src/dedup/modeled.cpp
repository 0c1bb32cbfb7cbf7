#include "dedup/modeled.hpp"

#include <algorithm>
#include <cassert>

namespace hs::dedup {

namespace {

using cluster::ClusterReplay;
using cluster::ClusterRunOptions;
using gpusim::Device;
using gpusim::OpHandle;
using perfmodel::HostProfile;
using perfmodel::ModeledHost;

/// GPU lane-cost scale factors: the simulator's cost unit is one simple
/// arithmetic step (one Mandelbrot iteration); one SHA-1 compression round
/// and one LZSS candidate comparison are worth roughly these many units.
constexpr double kSha1RoundUnits = 100.0;
constexpr double kLzssCompareUnits = 2.0;
/// Sharded dup-check wire sizes per block: the query carries the 20-byte
/// digest + tag, the response an 8-byte id + flags.
constexpr std::uint64_t kShardQueryBytes = 24;
constexpr std::uint64_t kShardResponseBytes = 16;

bool is_cuda(Fig5Backend b) {
  return b == Fig5Backend::kCudaSingle || b == Fig5Backend::kSparCuda;
}
bool is_gpu(Fig5Backend b) {
  return b != Fig5Backend::kSequential && b != Fig5Backend::kSparCpu;
}
bool is_farm(Fig5Backend b) {
  return b == Fig5Backend::kSparCpu || b == Fig5Backend::kSparCuda ||
         b == Fig5Backend::kSparOcl;
}

/// Charges the CPU-side costs of the classic stages.
struct CpuCosts {
  explicit CpuCosts(const HostProfile& h) : host(h) {}
  const HostProfile& host;

  double frag(const BatchCosts& b) const {
    return b.data_len * host.seconds_per_rabin_byte;
  }
  double hash(const BatchCosts& b) const {
    return static_cast<double>(b.sha1_rounds) * host.seconds_per_sha1_round;
  }
  double dupcheck(const BatchCosts& b) const {
    return static_cast<double>(b.block_count) * host.seconds_per_dupcheck;
  }
  double compress(const BatchCosts& b) const {
    return static_cast<double>(b.unique_match_cost_units) *
               host.seconds_per_lzss_unit +
           static_cast<double>(b.unique_bytes) * host.seconds_per_encode_byte;
  }
  double encode_walk(const BatchCosts& b) const {
    return static_cast<double>(b.unique_bytes) * host.seconds_per_encode_byte;
  }
  double write(const BatchCosts& b) const {
    return static_cast<double>(b.output_bytes) * host.seconds_per_output_byte;
  }
};

/// Scratch device/host buffers of one device, shared by its modeled copies.
/// Functional content is irrelevant (the trace already holds the results);
/// sizes are what the cost model consumes.
struct ScratchBuffers {
  std::vector<std::uint8_t> host;
  void* dev = nullptr;

  void allocate(Device& device, std::size_t bytes) {
    host.resize(bytes);
    auto r = device.malloc(std::max<std::size_t>(bytes, 1));
    assert(r.ok());
    dev = r.value();
  }
};

/// One GPU memory space: stream + the tail op its owner must respect.
struct Space {
  Device* device = nullptr;
  gpusim::StreamId stream = 0;
  ScratchBuffers* scratch = nullptr;  ///< the copy buffers of `device`
  OpHandle last_d2h;  ///< matches transfer of the previous batch
};

/// Enqueues the hash kernel for a batch: one lane per block, lane cost =
/// SHA-1 rounds (Listing-3-style trace-driven body).
void launch_hash_kernel(const BatchCosts& b, Space& space) {
  const auto* lens = b.block_lens.data();
  const std::uint64_t nblocks = b.block_lens.size();
  auto r = space.device->launch(
      gpusim::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64), 1, 1},
      gpusim::Dim3{64, 1, 1}, {}, space.stream,
      [lens, nblocks](const gpusim::ThreadCtx& tc) -> double {
        std::uint64_t i = tc.global_x();
        if (i >= nblocks) return 1;
        return static_cast<double>(
                   kernels::Sha1::compression_rounds(lens[i])) *
               kSha1RoundUnits;
      });
  assert(r.ok());
  (void)r;
}

/// Enqueues the FindMatch work for a batch: either the optimized single
/// kernel over every position (Listing 3) or the pre-fix one-kernel-per-
/// block form.
void launch_findmatch(const BatchCosts& b, Space& space,
                      const kernels::LzssParams& lzss, bool batched_kernel) {
  const auto& starts = b.start_pos;
  const std::uint64_t n = b.data_len;
  if (batched_kernel) {
    const auto* sp = starts.data();
    const std::size_t nsp = starts.size();
    auto r = space.device->launch(
        gpusim::Dim3{static_cast<std::uint32_t>((n + 255) / 256), 1, 1},
        gpusim::Dim3{256, 1, 1}, {}, space.stream,
        [sp, nsp, n, lzss](const gpusim::ThreadCtx& tc) -> double {
          std::uint64_t pos = tc.global_x();
          if (pos >= n) return 1;
          std::size_t lo = 0, hi = nsp;
          while (lo + 1 < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (sp[mid] <= pos) lo = mid;
            else hi = mid;
          }
          return static_cast<double>(
                     kernels::lzss_match_cost(sp[lo], pos, lzss)) *
                 kLzssCompareUnits;
        });
    assert(r.ok());
    (void)r;
    return;
  }
  for (std::size_t k = 0; k < starts.size(); ++k) {
    std::uint64_t bs = starts[k];
    std::uint64_t be = k + 1 < starts.size() ? starts[k + 1] : n;
    std::uint64_t len = be - bs;
    auto r = space.device->launch(
        gpusim::Dim3{static_cast<std::uint32_t>((len + 255) / 256), 1, 1},
        gpusim::Dim3{256, 1, 1}, {}, space.stream,
        [bs, be, lzss](const gpusim::ThreadCtx& tc) -> double {
          std::uint64_t pos = bs + tc.global_x();
          if (pos >= be) return 1;
          return static_cast<double>(
                     kernels::lzss_match_cost(bs, pos, lzss)) *
                 kLzssCompareUnits;
        });
    assert(r.ok());
    (void)r;
  }
}

/// Host API calls of a batch's FindMatch launch, and again of its match
/// read-back: one batched kernel and copy, or one per block.
double findmatch_calls(const BatchCosts& b, bool batched_kernel) {
  return batched_kernel ? 1.0
                        : static_cast<double>(
                              std::max<std::uint64_t>(1, b.block_count));
}

struct HashOps {
  OpHandle h2d;
  OpHandle digests;
};

/// The hash half of a batch on `space`, after `host`'s tail: batch h2d,
/// hash kernel, digest read-back, with one enqueue charge to `host` before
/// each of the last two. CUDA's h2d from pageable memory degrades to a
/// synchronous copy that blocks `host`.
HashOps enqueue_hash(ModeledHost& host, Space& space, const BatchCosts& b,
                     double enq, bool cuda) {
  Device& dev = *space.device;
  ScratchBuffers& sc = *space.scratch;
  perfmodel::stream_wait_host(dev, space.stream, host.tail());
  HashOps ops;
  auto h2d = dev.memcpy_h2d(sc.dev, sc.host.data(), b.data_len, space.stream,
                            gpusim::HostMem::kPageable);
  assert(h2d.ok());
  ops.h2d = h2d.value();
  if (cuda) host.wait(ops.h2d.task);
  host.work(enq);
  launch_hash_kernel(b, space);
  host.work(enq);
  auto digests = dev.memcpy_d2h(
      sc.host.data(), sc.dev, std::max<std::uint64_t>(1, b.block_count * 20),
      space.stream, gpusim::HostMem::kPageable);
  assert(digests.ok());
  ops.digests = digests.value();
  return ops;
}

/// The FindMatch half of a batch on `space`: the kernel(s), one enqueue
/// charge per read-back call to `host`, and the match read-back — one
/// large copy, or the pre-fix one small latency-bound copy per block (part
/// of why that form was "very poor"). Returns the last read-back.
OpHandle enqueue_findmatch(ModeledHost& host, Space& space,
                           const BatchCosts& b, const Fig5Config& config,
                           double enq) {
  Device& dev = *space.device;
  ScratchBuffers& sc = *space.scratch;
  launch_findmatch(b, space, config.dedup.lzss, config.batched_kernel);
  host.work(enq * findmatch_calls(b, config.batched_kernel));
  if (config.batched_kernel) {
    auto r = dev.memcpy_d2h(
        sc.host.data(), sc.dev,
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(b.data_len) *
                                       sizeof(kernels::LzssMatch)),
        space.stream, gpusim::HostMem::kPageable);
    assert(r.ok());
    return r.value();
  }
  OpHandle last;
  const auto& starts = b.start_pos;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    std::uint64_t bs = starts[k];
    std::uint64_t be = k + 1 < starts.size() ? starts[k + 1] : b.data_len;
    std::uint64_t bytes =
        std::max<std::uint64_t>(1, (be - bs) * sizeof(kernels::LzssMatch));
    auto r = dev.memcpy_d2h(sc.host.data(), sc.dev, bytes, space.stream,
                            gpusim::HostMem::kPageable);
    assert(r.ok());
    last = r.value();
  }
  return last;
}

}  // namespace

std::string_view fig5_backend_name(Fig5Backend b) {
  switch (b) {
    case Fig5Backend::kSequential: return "sequential";
    case Fig5Backend::kSparCpu: return "spar-cpu";
    case Fig5Backend::kCudaSingle: return "cuda-1thread";
    case Fig5Backend::kOclSingle: return "opencl-1thread";
    case Fig5Backend::kSparCuda: return "spar+cuda";
    case Fig5Backend::kSparOcl: return "spar+opencl";
  }
  return "?";
}

DedupTrace build_trace(std::span<const std::uint8_t> input,
                       const DedupConfig& config, bool variable_batches) {
  DedupTrace trace;
  trace.input_bytes = input.size();
  DupCache cache;
  std::vector<Batch> batches = variable_batches
                                   ? fragment_input_variable(input, config)
                                   : fragment_input(input, config);
  for (Batch& batch : batches) {
    hash_blocks(batch);
    cache.check(batch);

    BatchCosts costs;
    costs.data_len = static_cast<std::uint32_t>(batch.data.size());
    costs.start_pos = batch.start_pos;
    costs.block_count = batch.blocks.size();
    costs.sha1_rounds = batch_sha1_rounds(batch);
    costs.match_cost_units = batch_match_cost(batch, config);
    costs.block_lens.reserve(batch.blocks.size());
    costs.shard_key.reserve(batch.blocks.size());
    for (const BlockInfo& block : batch.blocks) {
      costs.block_lens.push_back(block.len);
      costs.shard_key.push_back(block.digest[0]);
      if (block.duplicate) {
        ++trace.duplicate_blocks;
      } else {
        ++trace.unique_blocks;
        costs.unique_bytes += block.len;
        costs.unique_match_cost_units += static_cast<std::uint64_t>(
            (static_cast<double>(block.len) / batch.data.size()) *
            static_cast<double>(costs.match_cost_units));
      }
    }
    // Output bytes: compress unique blocks for real so the write-stage
    // cost and the reported compression come from actual LZSS output.
    compress_blocks_cpu(batch, config);
    costs.output_bytes = batch_output_bytes(batch);
    trace.output_bytes += costs.output_bytes;
    trace.batches.push_back(std::move(costs));
  }
  return trace;
}

Fig5Result run_fig5(const DedupTrace& trace, const Fig5Config& config,
                    Fig5Backend backend) {
  // Single-thread GPU versions are single-GPU only (§IV-B: multi-GPU with
  // one thread "involves a lot of code refactoring, thus we chose for not
  // implementing it").
  const int gpus = !is_gpu(backend)    ? 0
                   : is_farm(backend) ? std::max(1, config.devices)
                                      : 1;
  ClusterRunOptions options;
  options.topo = cluster::single_host(gpus, config.device_spec);
  return run_fig5(trace, config, backend, options);
}

Fig5Result run_fig5(const DedupTrace& trace, const Fig5Config& config,
                    Fig5Backend backend, const ClusterRunOptions& options) {
  const HostProfile& host = config.host;
  const CpuCosts cpu(host);
  const bool gpu = is_gpu(backend);
  const bool cuda = is_cuda(backend);
  const bool farm = is_farm(backend);
  const bool adaptive =
      farm && gpu && config.sched == sched::SchedMode::kAdaptive;
  const int replicas = std::max(1, config.replicas);
  const int mem_spaces = std::max(1, config.mem_spaces);
  const double enq = cuda ? host.gpu_enqueue_overhead
                          : host.gpu_enqueue_overhead * 1.5;
  const double item_ovh = host.spar_item_overhead;

  ClusterReplay run(options, farm ? 3 + static_cast<std::size_t>(replicas)
                                  : 1);
  cluster::ClusterMachine& machine = run.machine();
  cluster::Fabric& fabric = run.fabric();
  const int N = machine.node_count();

  Fig5Result out;
  out.label = std::string(fig5_backend_name(backend));
  if (gpu && !config.batched_kernel) out.label += " per-block-kernels";
  if (gpu && mem_spaces > 1) {
    out.label += " " + std::to_string(mem_spaces) + "x-mem";
  }
  const int max_dev = run.max_node_devices();
  if (farm && gpu && max_dev > 1) {
    out.label += " " + std::to_string(max_dev) + "gpu";
  }
  if (adaptive) out.label += " adaptive";

  // Copy scratch per (node, device).
  std::vector<std::vector<ScratchBuffers>> scratch(
      static_cast<std::size_t>(N));
  if (gpu) {
    std::uint32_t max_len = 0;
    for (const BatchCosts& b : trace.batches) {
      max_len = std::max(max_len, b.data_len);
    }
    for (int n = 0; n < N; ++n) {
      gpusim::Machine& node = machine.node(n);
      auto& node_scratch = scratch[static_cast<std::size_t>(n)];
      node_scratch.resize(static_cast<std::size_t>(node.device_count()));
      for (int d = 0; d < node.device_count(); ++d) {
        node_scratch[static_cast<std::size_t>(d)].allocate(
            node.device(d), static_cast<std::size_t>(max_len) * 5);
      }
    }
  }

  if (backend == Fig5Backend::kSequential) {
    ModeledHost seq(&run.node(0), "seq");
    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const BatchCosts& b = trace.batches[i];
      const double cost = cpu.frag(b) + cpu.hash(b) + cpu.dupcheck(b) +
                          cpu.compress(b) + cpu.write(b);
      seq.work(cost);
      run.profile(0, i, cost);
    }
    out.modeled_seconds = seq.finish_time();
  } else if (!farm) {
    // One host thread drives one GPU through mem_spaces memory spaces.
    ModeledHost driver(&run.node(0), "driver");
    Device& dev = run.node(0).device(0);
    std::vector<Space> spaces(static_cast<std::size_t>(mem_spaces));
    for (std::size_t s = 0; s < spaces.size(); ++s) {
      spaces[s].device = &dev;
      spaces[s].stream = s == 0 ? dev.default_stream() : dev.create_stream();
      spaces[s].scratch =
          &scratch[static_cast<std::size_t>(run.node_of(0))][0];
    }

    // Software-pipelined driver loop: phase A enqueues a batch's GPU work
    // onto its memory space; phase B (run when the space is next needed,
    // in batch order) waits for the results, then duplicate-checks,
    // encodes and writes on the host. With 2 memory spaces, batch i+1's
    // transfers and kernels overlap batch i's host-side phase B — unless
    // the CUDA pageable-copy degradation blocks phase A's copies, which
    // is exactly why 2x memory spaces do not help the CUDA version.
    std::vector<int> pending(spaces.size(), -1);
    auto phase_b = [&](std::size_t slot) {
      int idx = pending[slot];
      if (idx < 0) return;
      pending[slot] = -1;
      const BatchCosts& b = trace.batches[static_cast<std::size_t>(idx)];
      driver.wait(spaces[slot].last_d2h.task);
      driver.work(cpu.dupcheck(b) + cpu.encode_walk(b) + cpu.write(b));
    };

    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const BatchCosts& b = trace.batches[i];
      std::size_t slot = i % spaces.size();
      phase_b(slot);  // free the space (no-op the first time around)
      Space& space = spaces[slot];

      // Phase A: fragment on the host, enqueue H2D + hash + digest
      // read-back + FindMatch + match read-back.
      driver.work(cpu.frag(b));
      driver.work(enq);
      const HashOps hashed = enqueue_hash(driver, space, b, enq, cuda);
      if (cuda) driver.wait(hashed.digests.task);
      driver.work(enq * findmatch_calls(b, config.batched_kernel));
      space.last_d2h = enqueue_findmatch(driver, space, b, config, enq);
      if (cuda) driver.wait(space.last_d2h.task);
      pending[slot] = static_cast<int>(i);
    }
    // Drain remaining phase Bs in batch order.
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      phase_b((trace.batches.size() + i) % spaces.size());
    }
    out.modeled_seconds = std::max(driver.finish_time(), machine.makespan());
  } else {
    // The farms (Fig. 3 graph): source -> hash farm -> sharded dup check ->
    // compress farm -> writer. The SPar CPU farm (19 replicas in the paper)
    // hashes and compresses on the host; the SPar+GPU farms offload both to
    // the GPUs of each replica's node.
    const int src_node = run.node_of(0);
    const int dup_node = run.node_of(1);
    const int wr_node = run.node_of(2);
    ModeledHost source(&run.node(0), "source");
    ModeledHost dup(&run.node(1), "dupcheck");
    ModeledHost writer(&run.node(2), "writer");

    // Shard services: shard s lives on node s (owner = key % N). Only built
    // for N > 1 — at one node every probe is local and charged to the dup
    // engine itself.
    std::vector<ModeledHost> shard_hosts;
    if (N > 1) {
      shard_hosts.reserve(static_cast<std::size_t>(N));
      for (int n = 0; n < N; ++n) {
        shard_hosts.emplace_back(&machine.node(n), "shard");
      }
    }

    /// Sharded duplicate check of batch `i` arriving at `arrived`.
    auto sharded_check = [&](std::size_t i, const BatchCosts& b,
                             des::TaskId arrived) -> des::TaskId {
      if (N == 1) {
        run.profile(1, i, cpu.dupcheck(b) + item_ovh);
        return dup.work_after(cpu.dupcheck(b) + item_ovh, arrived);
      }
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(N), 0);
      for (std::uint8_t key : b.shard_key) {
        counts[key % static_cast<std::size_t>(N)] += 1;
      }
      const double local =
          static_cast<double>(counts[static_cast<std::size_t>(dup_node)]) *
              host.seconds_per_dupcheck +
          item_ovh;
      run.profile(1, i, local);
      dup.work_after(local, arrived);
      for (int o = 0; o < N; ++o) {
        const std::uint64_t k = counts[static_cast<std::size_t>(o)];
        if (o == dup_node || k == 0) continue;
        const auto h = static_cast<std::uint64_t>(fabric.hops(dup_node, o));
        des::TaskId query = fabric.send(dup_node, o, kShardQueryBytes * k,
                                        dup.tail(), "shard.query");
        out.shard_bytes += kShardQueryBytes * k * h;
        des::TaskId served =
            shard_hosts[static_cast<std::size_t>(o)].work_after(
                static_cast<double>(k) * host.seconds_per_dupcheck, query);
        des::TaskId resp = fabric.send(o, dup_node, kShardResponseBytes * k,
                                       served, "shard.response");
        out.shard_bytes += kShardResponseBytes * k * h;
        dup.wait(resp);
      }
      return dup.tail();
    };

    // Replica w: the CPU farm's one thread hashes and compresses; a GPU
    // replica is a hash thread + a compress thread with mem_spaces memory
    // spaces on one GPU of its node, round-robin by the replica's rank on
    // that node (w % devices on one node — the paper's binding). An item's
    // stream travels with it so the compress stage reuses the data already
    // on the GPU.
    std::vector<ModeledHost> hash_workers;
    std::vector<ModeledHost> comp_workers;
    hash_workers.reserve(static_cast<std::size_t>(replicas));
    comp_workers.reserve(static_cast<std::size_t>(replicas));
    std::vector<std::vector<Space>> spaces(static_cast<std::size_t>(replicas));
    std::vector<int> node_rank(static_cast<std::size_t>(N), 0);
    for (std::size_t w = 0; w < spaces.size(); ++w) {
      const int w_node = run.node_of(3 + w);
      gpusim::Machine& node = run.node(3 + w);
      if (!gpu) {
        hash_workers.emplace_back(&node, "worker" + std::to_string(w));
        continue;
      }
      hash_workers.emplace_back(&node, "hash" + std::to_string(w));
      comp_workers.emplace_back(&node, "comp" + std::to_string(w));
      assert(node.device_count() > 0 &&
             "GPU farm worker placed on a node without GPUs");
      const int d = node_rank[static_cast<std::size_t>(w_node)]++ %
                    node.device_count();
      Device& dev = node.device(d);
      for (int s = 0; s < mem_spaces; ++s) {
        Space space;
        space.device = &dev;
        space.stream = dev.create_stream();
        space.scratch = &scratch[static_cast<std::size_t>(w_node)]
                                [static_cast<std::size_t>(d)];
        spaces[w].push_back(space);
      }
      run.set_binding(3 + w, cluster::GpuBinding::kPerStage);
    }
    // Adaptive dispatch sees one pool per node — every memory space of
    // every replica there — and routes each batch to the space whose
    // in-flight d2h completes earliest (an idle space scores 0, so all
    // spaces get primed before any is reused; strict < keeps ties on the
    // lowest index). The replica's host threads still do the enqueueing —
    // only the device binding becomes dynamic.
    std::vector<std::vector<Space*>> pools(static_cast<std::size_t>(N));
    if (adaptive) {
      for (std::size_t w = 0; w < spaces.size(); ++w) {
        for (Space& s : spaces[w]) {
          pools[static_cast<std::size_t>(run.node_of(3 + w))].push_back(&s);
        }
      }
    }
    auto pick_space = [&](std::size_t i, std::size_t w) -> Space& {
      if (!adaptive) {
        return spaces[w][(i / static_cast<std::size_t>(replicas)) %
                         spaces[w].size()];
      }
      return **std::ranges::min_element(
          pools[static_cast<std::size_t>(run.node_of(3 + w))], {},
          [&](const Space* s) {
            return machine.finish_time(s->last_d2h.task);
          });
    };

    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const BatchCosts& b = trace.batches[i];
      des::TaskId emitted = source.work(cpu.frag(b) + item_ovh);
      run.profile(0, i, cpu.frag(b) + item_ovh);

      const std::size_t w = i % static_cast<std::size_t>(replicas);
      const int w_node = run.node_of(3 + w);
      ModeledHost& hw = hash_workers[w];
      Space* space = gpu ? &pick_space(i, w) : nullptr;
      const double compute_before =
          gpu ? space->device->compute_busy_seconds() : 0;
      des::TaskId arrived_w =
          fabric.send(src_node, w_node, b.data_len, emitted, "batch");
      HashOps hashed;
      if (gpu) {
        if (space->last_d2h.valid()) hw.wait(space->last_d2h.task);
        des::TaskId deps[1] = {arrived_w};
        hw.work(item_ovh + enq, deps);
        hashed = enqueue_hash(hw, *space, b, enq, cuda);
        hw.wait(hashed.digests.task);
      } else {
        hw.work_after(cpu.hash(b) + item_ovh, arrived_w);
      }

      des::TaskId arrived_d = fabric.send(
          w_node, dup_node, 20 * b.block_count, hw.tail(), "digests");
      des::TaskId checked = sharded_check(i, b, arrived_d);
      des::TaskId arrived_back = fabric.send(dup_node, w_node, b.block_count,
                                             checked, "decisions");

      des::TaskId compressed;
      if (gpu) {
        // Compress farm: enqueue FindMatch on the item's stream (data is
        // already on the device), read matches back, encode on the CPU.
        ModeledHost& cw = comp_workers[w];
        Device& dev = *space->device;
        const double calls = findmatch_calls(b, config.batched_kernel);
        des::TaskId cdeps[1] = {arrived_back};
        cw.work(item_ovh + enq * calls, cdeps);
        perfmodel::stream_wait_host(dev, space->stream, cw.tail());
        space->last_d2h = enqueue_findmatch(cw, *space, b, config, enq);
        cw.wait(space->last_d2h.task);
        compressed = cw.work(cpu.encode_walk(b));
        if (run.profiling()) {
          const double host_busy = item_ovh + 2 * enq +  // hash thread
                                   item_ovh + cpu.encode_walk(b) +
                                   2 * enq * calls;
          run.profile(3 + w, i, host_busy,
                      dev.compute_busy_seconds() - compute_before,
                      run.task_seconds(hashed.h2d.task) +
                          run.task_seconds(hashed.digests.task) +
                          run.task_seconds(space->last_d2h.task));
        }
      } else {
        compressed = hw.work_after(cpu.compress(b) + item_ovh, arrived_back);
        run.profile(3 + w, i, cpu.hash(b) + cpu.compress(b) + 2 * item_ovh);
      }

      des::TaskId arrived_wr = fabric.send(w_node, wr_node, b.output_bytes,
                                           compressed, "archive");
      writer.work_after(cpu.write(b) + item_ovh, arrived_wr);
      run.profile(2, i, cpu.write(b) + item_ovh);
    }
    out.modeled_seconds = std::max(writer.finish_time(), machine.makespan());
  }

  out.kernel_launches = machine.kernel_launches();
  out.throughput_mb_s =
      out.modeled_seconds > 0
          ? static_cast<double>(trace.input_bytes) / 1e6 / out.modeled_seconds
          : 0;
  run.finish(out);
  return out;
}

}  // namespace hs::dedup
