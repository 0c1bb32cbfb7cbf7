#include "serve/jobs.hpp"

#include <chrono>
#include <span>
#include <thread>

#include "dedup/pipelines.hpp"
#include "dedup/stages.hpp"
#include "mandel/iteration_map.hpp"

namespace hs::serve {
namespace {

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

JobEngine::JobEngine(gpusim::Machine* machine, sched::BreakerBoard* breakers,
                     sched::DeviceLoadTracker* tracker, RetryPolicy policy,
                     RetryStats* stats, int replica_id)
    : ladder_({.tracker = tracker,
               .breakers = breakers,
               .policy = policy,
               .stats = stats,
               .label = "serve.job",
               .setup_label = "serve.setup",
               .seed = 0x7365727665ull},
              machine != nullptr ? machine->device_count() : 0, replica_id),
      device_(/*traced=*/false) {}

Status JobEngine::mandel_once(const JobRequest& req, JobResult& result) {
  const kernels::MandelParams p = req.mandel;
  const std::size_t npix =
      static_cast<std::size_t>(p.dim) * static_cast<std::size_t>(p.dim);
  auto frame = device_.scratch(0, npix);
  if (!frame.ok()) return frame.status();
  auto* dev_pix = static_cast<std::uint8_t*>(frame.value());
  HS_RETURN_IF_ERROR(device_.launch(
      npix, 256, "serve.mandel.kernel",
      [p, dev_pix](std::uint64_t idx) -> std::uint64_t {
        const auto dim = static_cast<std::uint64_t>(p.dim);
        const int k = kernels::mandel_iterations(p, static_cast<int>(idx / dim),
                                                 static_cast<int>(idx % dim));
        dev_pix[idx] = kernels::mandel_color(k, p.niter);
        return static_cast<std::uint64_t>(k) + 1;
      }));
  std::uint8_t* image = device_.staging(npix);
  HS_RETURN_IF_ERROR(
      device_.download(image, dev_pix, npix, "serve.mandel.d2h"));
  HS_RETURN_IF_ERROR(device_.sync("serve.mandel.sync"));
  result.checksum =
      mandel::image_checksum(std::span<const std::uint8_t>(image, npix));
  result.output_bytes = npix;
  return OkStatus();
}

Status JobEngine::dedup_once(const JobRequest& req, JobResult& result) {
  std::vector<dedup::Batch> batches = dedup::fragment_input(
      std::span<const std::uint8_t>(req.payload.data(), req.payload.size()),
      req.dedup);
  for (dedup::Batch& batch : batches) {
    if (batch.empty()) continue;
    HS_RETURN_IF_ERROR(dedup::hash_blocks_cuda(device_, batch));
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
  result.status = OkStatus();
  if (req.kind == JobKind::kSynthetic) {
    // Pure wall-clock occupancy of this worker; no device, no retry ladder.
    std::this_thread::sleep_for(std::chrono::nanoseconds(req.synthetic_ns));
    result.checksum = req.synthetic_ns;
    result.cpu_path = true;
    return result;
  }
  const Status s = ladder_.run(device_, [&] {
    device_.enter();
    return req.kind == JobKind::kMandel ? mandel_once(req, result)
                                        : dedup_once(req, result);
  });
  if (s.ok()) {
    result.device = device_.device();
    return result;
  }
  run_cpu(req, result);
  result.cpu_path = true;
  return result;
}

}  // namespace hs::serve
