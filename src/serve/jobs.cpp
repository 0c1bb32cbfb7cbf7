#include "serve/jobs.hpp"

#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "cudax/cudax.hpp"
#include "dedup/stages.hpp"
#include "mandel/iteration_map.hpp"

namespace hs::serve {
namespace {

Status cuda_status(cudax::cudaError e, const char* what) {
  if (e == cudax::cudaError::cudaSuccess) return OkStatus();
  return Status(cudax::error_code_of(e),
                std::string(what) + ": " + cudax::last_error_message());
}

/// CPU-side completion shared by the GPU and CPU hash paths: duplicate
/// check, LZSS compression and output accounting are always host work, so
/// the archive bytes cannot depend on which rung hashed the blocks.
void finalize_dedup(std::vector<dedup::Batch>& batches,
                    const dedup::DedupConfig& config, JobResult& result) {
  dedup::DupCache cache;
  std::uint64_t out_bytes = 0;
  for (dedup::Batch& batch : batches) {
    cache.check(batch);
    dedup::compress_blocks_cpu(batch, config);
    out_bytes += dedup::batch_output_bytes(batch);
  }
  result.output_bytes = out_bytes;
  result.checksum = dedup_job_checksum(batches);
}

}  // namespace

std::uint64_t dedup_job_checksum(const std::vector<dedup::Batch>& batches) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  auto mix = [&h](const void* bytes, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
  };
  for (const dedup::Batch& batch : batches) {
    for (const dedup::BlockInfo& block : batch.blocks) {
      mix(block.digest.data(), block.digest.size());
      const std::uint8_t dup = block.duplicate ? 1 : 0;
      mix(&dup, 1);
      mix(&block.global_id, sizeof(block.global_id));
    }
  }
  return h;
}

JobEngine::JobEngine(gpusim::Machine* machine, BreakerBoard* breakers,
                     sched::DeviceLoadTracker* tracker, RetryPolicy policy,
                     RetryStats* stats, int replica_id)
    : machine_(machine),
      breakers_(breakers),
      tracker_(tracker),
      policy_(policy),
      stats_(stats),
      replica_(replica_id),
      backoff_(BackoffPolicy{policy.base_delay, policy.max_delay},
               0x7365727665ull + static_cast<std::uint64_t>(replica_id)) {}

int JobEngine::pick_device() {
  if (machine_ == nullptr || breakers_ == nullptr ||
      machine_->device_count() == 0) {
    return -1;
  }
  auto lost = [this](int d) { return machine_->device(d).lost(); };
  if (tracker_ == nullptr) {
    // Static binding: stay where we last ran (replica id initially), scan
    // forward past lost devices and open breakers.
    const int start = prev_device_ >= 0 ? prev_device_ : replica_;
    return breakers_->first_allowed(start, lost);
  }
  // Adaptive: the tracker proposes the least-loaded device; the breaker may
  // veto it, in which case the in-flight charge transfers to the first
  // admitted sibling.
  const int got = tracker_->acquire_preferring(prev_device_);
  if (got < 0) return -1;
  if (!lost(got) && breakers_->device(got).allow()) return got;
  const int alt = breakers_->first_allowed(
      got + 1, [&](int d) { return d == got || lost(d) ||
                                   tracker_->is_excluded(d); });
  if (alt < 0) {
    tracker_->abandon(got);
    return -1;
  }
  tracker_->transfer(got, alt);
  return alt;
}

Status JobEngine::gpu_once(int device, const JobRequest& req,
                           JobResult& result) {
  return req.kind == JobKind::kMandel ? mandel_once(device, req, result)
                                      : dedup_once(device, req, result);
}

Status JobEngine::mandel_once(int device, const JobRequest& req,
                              JobResult& result) {
  const kernels::MandelParams p = req.mandel;
  const std::size_t npix =
      static_cast<std::size_t>(p.dim) * static_cast<std::size_t>(p.dim);
  HS_RETURN_IF_ERROR(cuda_status(cudax::cudaSetDevice(device), "set device"));
  void* dev = nullptr;
  HS_RETURN_IF_ERROR(cuda_status(cudax::cudaMalloc(&dev, npix), "frame alloc"));
  auto* dev_pix = static_cast<std::uint8_t*>(dev);
  auto bail = [&](Status s) {
    (void)cudax::cudaFree(dev);
    return s;
  };
  Status s = cuda_status(
      cudax::launch_kernel(
          cudax::Dim3{static_cast<std::uint32_t>((npix + 255) / 256), 1, 1},
          cudax::Dim3{256, 1, 1}, cudax::cudaStream_t{},
          [p, npix, dev_pix](const cudax::ThreadCtx& tc) -> std::uint64_t {
            const std::uint64_t idx = tc.global_x();
            if (idx >= npix) return 1;
            const int i = static_cast<int>(idx / static_cast<std::uint64_t>(p.dim));
            const int j = static_cast<int>(idx % static_cast<std::uint64_t>(p.dim));
            const int k = kernels::mandel_iterations(p, i, j);
            dev_pix[idx] = kernels::mandel_color(k, p.niter);
            return static_cast<std::uint64_t>(k) + 1;
          }),
      "mandel kernel");
  if (!s.ok()) return bail(s);
  if (image_.size() < npix) image_.resize(npix);
  s = cuda_status(cudax::cudaMemcpy(image_.data(), dev, npix,
                                    cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost),
                  "frame d2h");
  if (!s.ok()) return bail(s);
  s = cuda_status(cudax::cudaDeviceSynchronize(), "device sync");
  if (!s.ok()) return bail(s);
  (void)cudax::cudaFree(dev);
  result.checksum =
      mandel::image_checksum(std::span<const std::uint8_t>(image_.data(), npix));
  result.output_bytes = npix;
  return OkStatus();
}

Status JobEngine::dedup_once(int device, const JobRequest& req,
                             JobResult& result) {
  std::vector<dedup::Batch> batches = dedup::fragment_input(
      std::span<const std::uint8_t>(req.payload.data(), req.payload.size()),
      req.dedup);
  HS_RETURN_IF_ERROR(cuda_status(cudax::cudaSetDevice(device), "set device"));
  for (dedup::Batch& batch : batches) {
    const std::size_t nblocks = batch.blocks.size();
    if (nblocks == 0) continue;
    void* dev_data = nullptr;
    void* dev_digests = nullptr;
    HS_RETURN_IF_ERROR(
        cuda_status(cudax::cudaMalloc(&dev_data, batch.data.size()),
                    "batch alloc"));
    auto bail = [&](Status s) {
      (void)cudax::cudaFree(dev_data);
      if (dev_digests != nullptr) (void)cudax::cudaFree(dev_digests);
      return s;
    };
    Status s = cuda_status(cudax::cudaMalloc(&dev_digests, nblocks * 20),
                           "digest alloc");
    if (!s.ok()) return bail(s);
    s = cuda_status(
        cudax::cudaMemcpy(dev_data, batch.data.data(), batch.data.size(),
                          cudax::cudaMemcpyKind::cudaMemcpyHostToDevice),
        "batch h2d");
    if (!s.ok()) return bail(s);
    const auto* in = static_cast<const std::uint8_t*>(dev_data);
    auto* out = static_cast<std::uint8_t*>(dev_digests);
    const dedup::Batch* bp = &batch;
    s = cuda_status(
        cudax::launch_kernel(
            cudax::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64), 1, 1},
            cudax::Dim3{64, 1, 1}, cudax::cudaStream_t{},
            [bp, in, out, nblocks](const cudax::ThreadCtx& tc) -> std::uint64_t {
              const std::uint64_t b = tc.global_x();
              if (b >= nblocks) return 1;
              const dedup::BlockInfo& block = bp->blocks[b];
              const auto digest = kernels::Sha1::hash(
                  std::span<const std::uint8_t>(in + block.start, block.len));
              std::memcpy(out + b * 20, digest.data(), digest.size());
              return kernels::Sha1::compression_rounds(block.len) * 100;
            }),
        "sha1 kernel");
    if (!s.ok()) return bail(s);
    if (digests_.size() < nblocks * 20) digests_.resize(nblocks * 20);
    s = cuda_status(
        cudax::cudaMemcpy(digests_.data(), dev_digests, nblocks * 20,
                          cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost),
        "digest d2h");
    if (!s.ok()) return bail(s);
    s = cuda_status(cudax::cudaDeviceSynchronize(), "device sync");
    if (!s.ok()) return bail(s);
    (void)cudax::cudaFree(dev_data);
    (void)cudax::cudaFree(dev_digests);
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::memcpy(batch.blocks[b].digest.data(), digests_.data() + b * 20, 20);
    }
  }
  finalize_dedup(batches, req.dedup, result);
  return OkStatus();
}

void JobEngine::run_cpu(const JobRequest& req, JobResult& result) {
  if (req.kind == JobKind::kMandel) {
    const kernels::MandelParams p = req.mandel;
    const std::size_t npix =
        static_cast<std::size_t>(p.dim) * static_cast<std::size_t>(p.dim);
    if (image_.size() < npix) image_.resize(npix);
    for (int i = 0; i < p.dim; ++i) {
      kernels::mandel_line(
          p, i,
          std::span<std::uint8_t>(
              image_.data() + static_cast<std::size_t>(i) *
                                  static_cast<std::size_t>(p.dim),
              static_cast<std::size_t>(p.dim)));
    }
    result.checksum = mandel::image_checksum(
        std::span<const std::uint8_t>(image_.data(), npix));
    result.output_bytes = npix;
    return;
  }
  std::vector<dedup::Batch> batches = dedup::fragment_input(
      std::span<const std::uint8_t>(req.payload.data(), req.payload.size()),
      req.dedup);
  for (dedup::Batch& batch : batches) dedup::hash_blocks(batch);
  finalize_dedup(batches, req.dedup, result);
}

JobResult JobEngine::run(const JobRequest& req) {
  JobResult result;
  if (req.kind == JobKind::kSynthetic) {
    // Pure wall-clock occupancy of this worker; no device, no retry ladder.
    std::this_thread::sleep_for(std::chrono::nanoseconds(req.synthetic_ns));
    result.status = OkStatus();
    result.checksum = req.synthetic_ns;
    result.cpu_path = true;
    return result;
  }
  while (true) {
    const int d = pick_device();
    if (d < 0) break;  // every device lost or breaker-open: CPU rung
    const auto t0 = std::chrono::steady_clock::now();
    Status s = retry_status(policy_, stats_, "serve.job",
                            [&] { return gpu_once(d, req, result); },
                            backoff_.delay_hook());
    if (s.ok()) {
      breakers_->device(d).on_success();
      if (tracker_ != nullptr) {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        tracker_->release(d, dt.count());
      }
      breakers_->publish();
      prev_device_ = d;
      result.status = OkStatus();
      result.cpu_path = false;
      result.device = d;
      return result;
    }
    breakers_->device(d).on_failure();
    if (tracker_ != nullptr) tracker_->abandon(d);
    if (s.code() == ErrorCode::kUnavailable) {
      // Sticky loss: this device never comes back — hard-open its breaker
      // (probes would fail instantly anyway) and drop the routing hint.
      if (stats_ != nullptr) {
        stats_->device_losses.fetch_add(1, std::memory_order_relaxed);
      }
      breakers_->device(d).force_open();
      if (tracker_ != nullptr) tracker_->exclude(d);
      breakers_->publish();
      prev_device_ = -1;
      if (stats_ != nullptr) {
        stats_->device_switches.fetch_add(1, std::memory_order_relaxed);
      }
      continue;  // migrate: try the next surviving device
    }
    breakers_->publish();
    break;  // retries exhausted on a live device: degrade to CPU
  }
  run_cpu(req, result);
  if (stats_ != nullptr) {
    stats_->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  result.status = OkStatus();
  result.cpu_path = true;
  result.device = -1;
  return result;
}

}  // namespace hs::serve
