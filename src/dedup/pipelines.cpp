#include "dedup/pipelines.hpp"

#include <cstring>
#include <map>
#include <optional>

#include "dedup/stages.hpp"
#include "flow/adapters.hpp"
#include "kernels/simd/sha1_ni.hpp"
#include "oclx/oclx.hpp"
#include "spar/gpu_stage.hpp"
#include "spar/spar.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::dedup {

namespace {

kernels::Sha1Digest input_digest(std::span<const std::uint8_t> input) {
  // One whole-input single-stream hash at writer.finish() — this was a
  // third of archive_sequential's runtime on 8MB inputs before the SHA-NI
  // path (EXPERIMENTS.md); same digest either way.
  return kernels::simd::sha1_hash_fast(input);
}

/// Source generator over fixed-size chunks of the input. The Rabin tables
/// are built once here (not per batch), and with a BatchPool attached each
/// new batch reuses a retired batch's slab and vector capacities.
class BatchSource {
 public:
  BatchSource(std::span<const std::uint8_t> input, const DedupConfig& config,
              BatchPool* pool = nullptr)
      : input_(input), config_(config), rabin_(config.rabin), pool_(pool) {}

  std::optional<Batch> operator()() {
    if (offset_ >= input_.size()) return std::nullopt;
    std::size_t n =
        std::min<std::size_t>(config_.batch_size, input_.size() - offset_);
    Batch batch = pool_ != nullptr ? pool_->acquire() : Batch{};
    fragment_batch_into(input_.subspan(offset_, n), index_++, rabin_, batch);
    offset_ += n;
    return batch;
  }

 private:
  std::span<const std::uint8_t> input_;
  DedupConfig config_;
  kernels::Rabin rabin_;
  BatchPool* pool_;
  std::size_t offset_ = 0;
  std::uint64_t index_ = 0;
};

/// Generous upper bound on the archive size: payload (worst case the LZSS
/// 1-bit-per-byte expansion) + per-block record overhead + header/trailer.
std::size_t archive_reserve_bytes(std::size_t input_size) {
  return input_size + input_size / 8 + input_size / 64 + 4096;
}

/// Serial duplicate-check stage for the unordered-hash variant: batches
/// arrive in hash-completion order, but the container format requires
/// stream order here (unique blocks are numbered in stream order and a
/// duplicate must reference an id the decoder has already materialized).
/// Out-of-order batches wait in a small buffer keyed by source index; each
/// arrival drains every consecutive ready batch, so the stage emits the
/// exact sequence the ordered variant would and the archive stays
/// byte-identical.
class ReorderingDupCheck final : public flow::Node {
 public:
  explicit ReorderingDupCheck(DupCache* cache) : cache_(cache) {}

  flow::SvcResult svc(flow::Item in) override {
    Batch batch = in.take<Batch>();
    pending_.emplace(batch.index, std::move(batch));
    flow::SvcResult out = flow::SvcResult::GoOn();
    for (auto it = pending_.find(next_); it != pending_.end();
         it = pending_.find(next_)) {
      Batch ready = std::move(it->second);
      pending_.erase(it);
      ++next_;
      cache_->check(ready);
      // Flush the previously drained batch before holding this one so the
      // emission order stays monotone in source index.
      if (out.kind == flow::SvcResult::Kind::kItem) {
        (void)emit(std::move(out.item));
      }
      out = flow::SvcResult::Out(flow::Item::of<Batch>(std::move(ready)));
    }
    return out;
  }

 private:
  DupCache* cache_;
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, Batch> pending_;
};

}  // namespace

Result<std::vector<std::uint8_t>> archive_sequential(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    DupStore* store) {
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  BatchSource source(input, config, &pool);
  while (auto batch = source()) {
    hash_blocks(*batch, store);
    cache.check(*batch);
    compress_blocks_cpu(*batch, config);
    HS_RETURN_IF_ERROR(writer.append(*batch));
    pool.release(std::move(*batch));
  }
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    const SparCpuOptions& options) {
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  Status append_status;

  // Both hot stages lower to farms regardless of worker count. The hash
  // farm may run unordered + least-loaded (opt-in); the compress farm is
  // always ordered so the writer appends batches in stream order.
  spar::StageOptions hash_opts;
  hash_opts.force_farm = true;
  if (!options.hash_ordered) {
    hash_opts.ordered = false;
    hash_opts.policy = flow::SchedPolicy::kLeastLoaded;
  }
  spar::StageOptions compress_opts;
  compress_opts.force_farm = true;
  compress_opts.ordered = true;

  spar::ToStream region("dedup");
  region.source<Batch>(BatchSource(input, config, &pool));
  region.stage<Batch, Batch>(spar::Replicate(options.workers_hash), hash_opts,
                             [store = options.store](Batch batch) {
                               hash_blocks(batch, store);
                               return batch;
                             });
  // The serial duplicate check is the ordering pivot: the container format
  // numbers unique blocks in stream order, so this stage must consume
  // batches in source order. With an ordered hash farm that is already
  // true; the unordered variant restores it here with a reorder buffer.
  if (options.hash_ordered) {
    region.stage<Batch, Batch>([&cache](Batch batch) {
      cache.check(batch);
      return batch;
    });
  } else {
    region.stage_nodes(spar::Replicate(1), [&cache] {
      return std::make_unique<ReorderingDupCheck>(&cache);
    });
  }
  region.stage<Batch, Batch>(spar::Replicate(options.workers_compress),
                             compress_opts, [config](Batch batch) {
                               compress_blocks_cpu(batch, config);
                               return batch;
                             });
  region.last_stage<Batch>([&writer, &append_status, &pool](Batch batch) {
    Status s = writer.append(batch);
    if (!s.ok() && append_status.ok()) append_status = s;
    pool.release(std::move(batch));
  });
  spar::Options run_opts;
  run_opts.pin = options.pin;
  HS_RETURN_IF_ERROR(region.run(run_opts));
  if (!append_status.ok()) return append_status;
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas) {
  SparCpuOptions options;
  options.workers_hash = replicas;
  options.workers_compress = replicas;
  return archive_spar_cpu(input, config, options);
}

Status hash_blocks_cuda(spar::CudaDevice& dev, Batch& batch) {
  const std::size_t nblocks = batch.blocks.size();
  auto data = dev.upload(0, batch.data.data(), batch.data.size(),
                         "dedup.sha1.h2d");
  if (!data.ok()) return data.status();
  auto digest_buf = dev.scratch(1, nblocks * 20);
  if (!digest_buf.ok()) return digest_buf.status();
  const auto* in = static_cast<const std::uint8_t*>(data.value());
  auto* out = static_cast<std::uint8_t*>(digest_buf.value());
  const Batch* bp = &batch;
  HS_RETURN_IF_ERROR(dev.launch(nblocks, 64, "dedup.sha1.kernel",
                                [bp, in, out](std::uint64_t b) {
                                  return sha1_lane(*bp, in, b, out);
                                }));
  std::uint8_t* digests = dev.staging(nblocks * 20);
  HS_RETURN_IF_ERROR(
      dev.download(digests, out, nblocks * 20, "dedup.sha1.d2h"));
  HS_RETURN_IF_ERROR(dev.sync("dedup.sha1.sync"));
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::memcpy(batch.blocks[b].digest.data(), digests + b * 20, 20);
  }
  return OkStatus();
}

namespace {

/// FindMatch pass of the compress stage (paper stage 4, Listing 3): upload
/// the batch, match one position per thread, download the match table into
/// batch.matches. Idempotent (matches are rewritten wholesale); the stage
/// runs the CPU encode walk after the pass.
Status find_match_pass(const DedupConfig& config, spar::CudaDevice& dev,
                       Batch& batch) {
  const std::size_t n = batch.data.size();
  const std::size_t bytes = n * sizeof(kernels::LzssMatch);
  // "This stage reuses data already on GPU" in the paper; workers here are
  // distinct replicas, so the transfer is repeated — the modeled runners
  // account for the reuse optimization explicitly.
  auto data = dev.upload(0, batch.data.data(), n, "dedup.lzss.h2d");
  if (!data.ok()) return data.status();
  auto match_buf = dev.scratch(1, bytes);
  if (!match_buf.ok()) return match_buf.status();
  const auto* in = static_cast<const std::uint8_t*>(data.value());
  auto* out = static_cast<kernels::LzssMatch*>(match_buf.value());
  const Batch* bp = &batch;
  const kernels::LzssParams lzss = config.lzss;
  HS_RETURN_IF_ERROR(dev.launch(n, 256, "dedup.lzss.kernel",
                                [bp, in, out, n, lzss](std::uint64_t pos) {
                                  return find_match_lane(*bp, in, n, pos, lzss,
                                                         out);
                                }));
  std::uint8_t* host = dev.staging(bytes);
  HS_RETURN_IF_ERROR(dev.download(host, out, bytes, "dedup.lzss.d2h"));
  HS_RETURN_IF_ERROR(dev.sync("dedup.lzss.sync"));
  batch.matches.resize(n);
  std::memcpy(batch.matches.data(), host, bytes);
  return OkStatus();
}

}  // namespace

Result<std::vector<std::uint8_t>> archive_spar_cuda(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas, gpusim::Machine& machine, RetryStats* stats,
    const RetryPolicy& policy, sched::DeviceLoadTracker* tracker,
    flow::FailureReport* failures) {
  if (machine.device_count() == 0) {
    return InvalidArgument("machine has no devices");
  }
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  Status append_status;

  spar::GpuStage stage;
  stage.machine = &machine;
  stage.replicas = replicas;
  stage.ladder.tracker = tracker;
  stage.ladder.policy = policy;
  stage.ladder.stats = stats;
  stage.ladder.setup_label = "dedup.setup";
  stage.ladder.seed = 0x646564757Aull;

  spar::ToStream region("dedup-cuda");
  region.source<Batch>(BatchSource(input, config, &pool));
  stage.ladder.label = "dedup.sha1";
  spar::gpu_stage<Batch>(region, stage, hash_blocks_cuda,
                         [](Batch& batch) { hash_blocks(batch); });
  region.stage<Batch, Batch>([&cache](Batch batch) {
    cache.check(batch);
    return batch;
  });
  stage.ladder.label = "dedup.lzss";
  spar::gpu_stage<Batch>(
      region, stage,
      [config](spar::CudaDevice& dev, Batch& batch) {
        return find_match_pass(config, dev, batch);
      },
      [config](Batch& batch) {
        batch.matches.clear();
        compress_blocks_cpu(batch, config);
      },
      [config](Batch& batch) {
        compress_blocks_from_matches(batch, config);
        batch.matches.clear();
      });
  region.last_stage<Batch>([&writer, &append_status, &pool](Batch batch) {
    Status s = writer.append(batch);
    if (!s.ok() && append_status.ok()) append_status = s;
    pool.release(std::move(batch));
  });
  Status run_status = region.run();
  if (failures != nullptr) *failures = region.failure_report();
  HS_RETURN_IF_ERROR(run_status);
  if (!append_status.ok()) return append_status;
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_opencl_single_thread(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    gpusim::Machine& machine, bool batched_kernel) {
  auto platforms = oclx::Platform::get(&machine);
  if (platforms.empty()) return NotFound("no OpenCL platform");
  auto devices = platforms[0].devices();
  auto ctx = oclx::Context::create(devices);
  if (!ctx.ok()) return ctx.status();
  auto queue = oclx::CommandQueue::create(ctx.value(), devices[0]);
  if (!queue.ok()) return queue.status();

  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  BatchSource source(input, config, &pool);
  const kernels::LzssParams lzss = config.lzss;
  telemetry::SpanRecorder* tracer = telemetry::tracer();

  while (auto maybe_batch = source()) {
    Batch batch = std::move(*maybe_batch);
    const std::size_t n = batch.data.size();
    auto data_buf = oclx::Buffer::create(ctx.value(), devices[0], n);
    if (!data_buf.ok()) return data_buf.status();
    {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.h2d");
      if (queue.value().enqueue_write(data_buf.value(), 0, batch.data.data(),
                                      n, /*blocking=*/false, nullptr) !=
          oclx::ClStatus::kSuccess) {
        return Internal("write failed: " + queue.value().last_error());
      }
    }

    // Stage 2: SHA-1 on device, one work-item per block. Kernel results
    // are written through mapped host pointers here; the modeled runners
    // (dedup/modeled.hpp) account for the device->host result transfers
    // explicitly.
    auto* dev_data = static_cast<const std::uint8_t*>(data_buf.value().data());
    const Batch* batch_ptr = &batch;
    const std::size_t nblocks = batch.blocks.size();
    std::vector<std::uint8_t> digests(nblocks * 20);
    auto* digests_ptr = digests.data();
    oclx::Kernel sha_kernel = oclx::Kernel::create(
        "sha1_blocks",
        [batch_ptr, dev_data, digests_ptr,
         nblocks](const oclx::ThreadCtx& tc) -> std::uint64_t {
          const std::uint64_t b = tc.global_x();
          return b < nblocks ? sha1_lane(*batch_ptr, dev_data, b, digests_ptr)
                             : 1;
        });
    {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.sha1.kernel");
      if (queue.value().enqueue_ndrange(
              sha_kernel,
              oclx::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64 * 64),
                         1, 1},
              oclx::Dim3{64, 1, 1}, nullptr) != oclx::ClStatus::kSuccess) {
        return Internal("sha kernel failed: " + queue.value().last_error());
      }
      if (!queue.value().finish().ok()) return Internal("finish failed");
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::memcpy(batch.blocks[b].digest.data(), digests_ptr + b * 20, 20);
    }

    // Stage 3: serial duplicate check.
    cache.check(batch);

    // Stage 4: FindMatch on device (one kernel per batch, or the
    // pre-optimization one kernel per block), then CPU encode walk.
    batch.matches.assign(n, kernels::LzssMatch{});
    auto* matches_ptr = batch.matches.data();
    auto run_find = [&](std::size_t bstart, std::size_t bend) -> Status {
      std::size_t span_len = bend - bstart;
      oclx::Kernel find_kernel = oclx::Kernel::create(
          "find_match",
          [batch_ptr, dev_data, matches_ptr, n, lzss, bstart,
           bend](const oclx::ThreadCtx& tc) -> std::uint64_t {
            const std::uint64_t pos = bstart + tc.global_x();
            return pos < bend ? find_match_lane(*batch_ptr, dev_data, n, pos,
                                                lzss, matches_ptr)
                              : 1;
          });
      if (queue.value().enqueue_ndrange(
              find_kernel,
              oclx::Dim3{
                  static_cast<std::uint32_t>((span_len + 255) / 256 * 256), 1,
                  1},
              oclx::Dim3{256, 1, 1}, nullptr) != oclx::ClStatus::kSuccess) {
        return Internal("find kernel failed: " + queue.value().last_error());
      }
      return OkStatus();
    };
    if (n > 0) {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.lzss.kernel");
      if (batched_kernel) {
        if (Status s = run_find(0, n); !s.ok()) return s;
      } else {
        for (std::size_t k = 0; k < batch.start_pos.size(); ++k) {
          std::size_t bs = batch.start_pos[k];
          std::size_t be =
              k + 1 < batch.start_pos.size() ? batch.start_pos[k + 1] : n;
          if (Status s = run_find(bs, be); !s.ok()) return s;
        }
      }
      if (!queue.value().finish().ok()) return Internal("finish failed");
    }
    compress_blocks_from_matches(batch, config);
    batch.matches.clear();

    // Stage 5: write.
    if (Status s = writer.append(batch); !s.ok()) return s;
    pool.release(std::move(batch));
  }
  return writer.finish(input_digest(input));
}

}  // namespace hs::dedup
