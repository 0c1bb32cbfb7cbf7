// The four perfbench workloads. Each has an untraced end-to-end run and a
// traced per-layer run. A traced run calls its own workload's `layers` with
// home = true (traced window, generic metrics, full-size layer probes) and
// every other workload's with home = false (that module's layer metrics at
// a small fixed size), so each traced run prints every per-layer metric.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench.hpp"
#include "common/status.hpp"
#include "dedup/types.hpp"
#include "serve/service.hpp"

namespace perfbench {

void dedup_stream_e2e(const Options& opt, Outcome& out);
void dedup_stream_layers(const Options& opt, bool home, Outcome& out);
void mandel_gpu_e2e(const Options& opt, Outcome& out);
void mandel_gpu_layers(const Options& opt, bool home, Outcome& out);
void serve_mixed_e2e(const Options& opt, Outcome& out);
void serve_mixed_layers(const Options& opt, bool home, Outcome& out);
void model_replay_e2e(const Options& opt, Outcome& out);
void model_replay_layers(const Options& opt, bool home, Outcome& out);

/// dedup_stream's job configuration: BENCH_micro's chain-LZSS setup
/// (256 KiB batches, ~2 kB blocks, window 4096, chain depth 2).
[[nodiscard]] hs::dedup::DedupConfig chain_config();

/// archive_sequential's loop composed from the dedup/stages.hpp calls, with
/// a lap timer charging `ledger` around each stage call ("fragment",
/// "hash", "dupcheck", "compress", "append", "finish") and the call's wall
/// time. Its archive is byte-identical to archive_sequential's.
[[nodiscard]] hs::Result<std::vector<std::uint8_t>> archive_staged(
    std::span<const std::uint8_t> input, const hs::dedup::DedupConfig& config,
    Ledger& ledger);

/// Why serve::Service refused a submission, read from outside through its
/// Rejected{code, detail}. kOverload carries three admission gates that
/// only the detail string tells apart; a detail this mapping does not know
/// is kUnknown, never silently one of the others.
enum class ShedReason : std::uint8_t {
  kQueueFull,
  kWatermark,
  kP99Gate,
  kQuota,
  kShuttingDown,
  kUnknown,
};
[[nodiscard]] ShedReason classify_reject(const hs::serve::Rejected& rejected);

}  // namespace perfbench
