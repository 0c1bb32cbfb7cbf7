// dedup_stream — closed loop, one caller: dedup::archive_spar_cpu back to
// back on seeded mixed-corpus payloads with BENCH_micro's chain LZSS
// configuration. Kernels, dedup and common do almost all the work here;
// flow moves few large items, and gpusim sits idle.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "bench.hpp"
#include "common/buffer_pool.hpp"
#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "dedup/stages.hpp"
#include "gen.hpp"
#include "kernels/simd/sha1_ni.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dd = hs::dedup;

dd::DedupConfig chain_config() {
  dd::DedupConfig cfg;
  cfg.batch_size = 256 * 1024;
  cfg.rabin.mask = 0x7FF;
  cfg.lzss.mode = hs::kernels::LzssMode::kChain;
  cfg.lzss.window_size = 4096;
  cfg.lzss.chain_depth = 2;
  return cfg;
}

hs::Result<std::vector<std::uint8_t>> archive_staged(
    std::span<const std::uint8_t> input, const dd::DedupConfig& config,
    Ledger& ledger) {
  const auto start = Clock::now();
  dd::ArchiveWriter writer(config);
  writer.reserve(input.size() + input.size() / 8 + input.size() / 64 + 4096);
  dd::DupCache cache;
  dd::BatchPool pool;
  const hs::kernels::Rabin rabin(config.rabin);
  std::uint64_t index = 0;
  hs::Status appended;
  for (std::size_t off = 0; off < input.size() && appended.ok();
       off += config.batch_size) {
    const std::size_t n =
        std::min<std::size_t>(config.batch_size, input.size() - off);
    dd::Batch batch = pool.acquire();
    {
      PhaseTimer t(ledger, "fragment");
      dd::fragment_batch_into(input.subspan(off, n), index++, rabin, batch);
    }
    {
      PhaseTimer t(ledger, "hash");
      dd::hash_blocks(batch);
    }
    {
      PhaseTimer t(ledger, "dupcheck");
      cache.check(batch);
    }
    {
      PhaseTimer t(ledger, "compress");
      dd::compress_blocks_cpu(batch, config);
    }
    {
      PhaseTimer t(ledger, "append");
      appended = writer.append(batch);
    }
    pool.release(std::move(batch));
  }
  std::vector<std::uint8_t> archive;
  if (appended.ok()) {
    PhaseTimer t(ledger, "finish");
    archive = writer.finish(hs::kernels::simd::sha1_hash_fast(input));
  }
  ledger.add_wall(seconds_between(start, Clock::now()));
  if (!appended.ok()) return appended;
  return archive;
}

namespace {

constexpr std::size_t kPayloadBytes = std::size_t{1} << 20;
constexpr std::uint32_t kPayloads = 8;
constexpr int kWarmupOps = 16;
constexpr int kHomeLoops = 48;
constexpr int kProbeLoops = 8;
constexpr std::uint64_t kSeedTag = 0xDED0;

/// The busy stages sized to fit 4 cores: one hash and two compress
/// replicas next to the serial duplicate check and writer.
dd::SparCpuOptions farm_options() {
  dd::SparCpuOptions options;
  options.workers_hash = 1;
  options.workers_compress = 2;
  return options;
}

struct Inputs {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::uint8_t>> reference;  ///< archive_sequential
};

Inputs make_inputs(const Options& opt, Outcome& out) {
  Inputs in;
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < kPayloads; ++i) {
    in.payloads.push_back(
        mixed_payload(derive_seed(opt.seed, kSeedTag), i, kPayloadBytes));
  }
  const auto t1 = Clock::now();
  for (const auto& payload : in.payloads) {
    auto ref = dd::archive_sequential(payload, chain_config());
    if (!ref.ok()) {
      out.fail("dedup_stream: archive_sequential failed: " +
               ref.status().ToString());
      in.reference.emplace_back();
      continue;
    }
    in.reference.push_back(std::move(ref).value());
  }
  std::fprintf(stderr,
               "[dedup_stream] synthesis %.3f s (not set-up), references "
               "%.3f s\n",
               seconds_between(t0, t1), seconds_between(t1, Clock::now()));
  return in;
}

}  // namespace

void dedup_stream_e2e(const Options& opt, Outcome& out) {
  const Inputs in = make_inputs(opt, out);
  const dd::DedupConfig cfg = chain_config();
  const dd::SparCpuOptions farm = farm_options();
  CyclicOrder order(derive_seed(opt.seed, kSeedTag, 1), kPayloads);
  // One archive of the next payload: the call's time, or nullopt when the
  // archive differs from the reference.
  auto archive = [&]() -> std::optional<double> {
    const std::uint32_t k = order.next();
    const auto t0 = Clock::now();
    const auto result = dd::archive_spar_cpu(in.payloads[k], cfg, farm);
    const double seconds = seconds_between(t0, Clock::now());
    if (!result.ok() || result.value() != in.reference[k]) return std::nullopt;
    return seconds;
  };
  // No long-lived system to build: set-up is the fixed warm-up that refills
  // the emptied buffer pool and starts the farm's threads.
  const std::vector<double> setups = timed_setups(kSetupReps, [&] {
    hs::BufferPool::Default().trim();
    for (int i = 0; i < kWarmupOps; ++i) {
      if (!archive()) {
        out.fail("dedup_stream: warm-up archive differs from "
                 "archive_sequential");
      }
    }
  });
  Samples latency_ms;
  const ClosedLoop loop = closed_loop(opt.seconds, archive, latency_ms, out);
  const double mb =
      static_cast<double>(loop.ok) * static_cast<double>(kPayloadBytes) / 1e6;
  emit_e2e(out, mb / loop.window_s, latency_ms.percentile(0.5),
           latency_ms.percentile(0.99),
           static_cast<double>(out.attempted) / loop.window_s, setups,
           peak_rss_mb());
}

void dedup_stream_layers(const Options& opt, bool home, Outcome& out) {
  const Inputs in = make_inputs(opt, out);
  const dd::DedupConfig cfg = chain_config();
  const dd::SparCpuOptions farm = farm_options();
  CyclicOrder order(derive_seed(opt.seed, kSeedTag, 1), kPayloads);
  auto archive_ok = [&] {
    const std::uint32_t k = order.next();
    const auto result = dd::archive_spar_cpu(in.payloads[k], cfg, farm);
    return result.ok() && result.value() == in.reference[k];
  };
  TracedWindow window;
  if (home) {
    for (int i = 0; i < kWarmupOps; ++i) (void)archive_ok();
    window = traced_window(opt.seconds, archive_ok);
  }

  // The stage ledger: archive_sequential's loop composed from the
  // dedup/stages.hpp calls, a timer around each.
  const int loops = home ? kHomeLoops : kProbeLoops;
  Ledger ledger;
  for (int i = 0; i < loops; ++i) {
    const std::uint32_t k = order.next();
    const auto staged = archive_staged(in.payloads[k], cfg, ledger);
    if (!staged.ok() || staged.value() != in.reference[k]) {
      out.fail("dedup_stream: stage-composed archive differs from "
               "archive_sequential");
    }
  }
  for (const char* phase :
       {"fragment", "hash", "dupcheck", "compress", "append", "finish"}) {
    out.metric(std::string("dedup.") + phase + "_ms",
               ledger.phase(phase) / loops * 1e3, "ms");
  }

  // Single-threaded baseline of the same job.
  double seq_s = 0;
  for (int i = 0; i < loops; ++i) {
    const std::uint32_t k = order.next();
    const auto t0 = Clock::now();
    const auto result = dd::archive_sequential(in.payloads[k], cfg);
    seq_s += seconds_between(t0, Clock::now());
    if (!result.ok() || result.value() != in.reference[k]) {
      out.fail("dedup_stream: archive_sequential is not deterministic");
    }
  }
  out.metric("dedup.seq_mb_per_s",
             loops * static_cast<double>(kPayloadBytes) / 1e6 / seq_s, "MB/s");

  // Content ratios of this seed's archives: counts no optimisation may move.
  std::uint64_t unique = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t archived = 0;
  for (const auto& ref : in.reference) {
    const auto info = dd::inspect(ref);
    if (!info.ok()) {
      out.fail("dedup_stream: reference archive does not parse");
      continue;
    }
    unique += info.value().unique_blocks;
    duplicate += info.value().duplicate_blocks;
    archived += ref.size();
  }
  out.metric("dedup.dup_frac",
             unique + duplicate > 0
                 ? static_cast<double>(duplicate) /
                       static_cast<double>(unique + duplicate)
                 : 0.0,
             "ratio");
  out.metric("dedup.archive_ratio",
             static_cast<double>(archived) /
                 static_cast<double>(kPayloads * kPayloadBytes),
             "ratio");
  if (home) emit_generic(window, ledger.unattributed_pct(), out);
}

}  // namespace perfbench
