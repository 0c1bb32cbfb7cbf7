// Streaming LZSS compressor — the application of the paper's reference
// [24] ("Stream Parallelism on the LZSS Data Compression Application for
// Multi-Cores with GPUs"), which §IV-B integrates into Dedup. Standalone
// form: the input is cut into fixed-size blocks (stream items); a
// replicated stage compresses each block (CPU directly, or GPU FindMatch +
// CPU encode walk, exactly the split of Listing 3); an ordered writer
// emits the container.
//
// Container layout (little-endian):
//   header : magic "HSLZSS01" | u32 block_size | u32 lzss_window |
//            u32 lzss_min_match | u64 original_size | u64 block_count
//   block  : u32 raw_len | u32 comp_len | payload
//   trailer: u8[20] SHA-1 of the original input
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "gpusim/device.hpp"
#include "kernels/lzss.hpp"

namespace hs::lzssapp {

struct LzssStreamConfig {
  std::uint32_t block_size = 64 * 1024;
  kernels::LzssParams lzss;

  LzssStreamConfig() { lzss.window_size = 256; }
};

/// Sequential reference.
Result<std::vector<std::uint8_t>> compress_sequential(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config);

/// SPar pipeline: source -> farm(LZSS) -> ordered writer.
Result<std::vector<std::uint8_t>> compress_spar(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config,
    int replicas);

/// SPar + CUDA-shim pipeline: a generated SPar GPU stage offloads FindMatch
/// to the simulated GPUs (one thread per input position) and runs the
/// encode walk on the CPU — the [24] structure. `machine` must be bound to
/// cudax. Device faults are absorbed by the device ladder (retry, migrate,
/// then the CPU encoder), so the container always equals
/// compress_sequential's.
Result<std::vector<std::uint8_t>> compress_spar_cuda(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config,
    int replicas, gpusim::Machine& machine);

/// Decompresses a container, verifying structure and the SHA-1 trailer.
Result<std::vector<std::uint8_t>> decompress(
    std::span<const std::uint8_t> archive);

struct LzssStreamInfo {
  std::uint64_t original_size = 0;
  std::uint64_t block_count = 0;
  std::uint64_t compressed_payload = 0;
};

Result<LzssStreamInfo> inspect(std::span<const std::uint8_t> archive);

}  // namespace hs::lzssapp
