// The five Dedup pipeline stages as reusable functions (Fig. 3). Every
// pipeline variant (sequential, SPar CPU, SPar+GPU, single-thread
// CUDA/OpenCL) composes these, so all variants produce bit-identical
// archives.
//
//  1. fragment_input : fixed-size batches + rabin start_pos (CPU, serial)
//  2. hash_blocks    : SHA-1 per block (replicated; GPU = 1 thread/block)
//  3. check_duplicates: global digest table, assigns ids (serial in-order)
//  4. compress_blocks: LZSS on unique blocks (replicated; GPU = batched
//     FindMatch kernel + CPU encode walk)
//  5. ArchiveWriter  : reorder + write (serial in-order; see container.hpp)
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dedup/dup_store.hpp"
#include "dedup/types.hpp"
#include "kernels/lzss.hpp"
#include "kernels/sha1.hpp"
#include "kernels/simd/sha1_ni.hpp"

namespace hs::dedup {

/// Stage 1: cuts `input` into config.batch_size batches and computes each
/// batch's rabin block index. Returns batches in order.
std::vector<Batch> fragment_input(std::span<const std::uint8_t> input,
                                  const DedupConfig& config);

/// Streaming form of stage 1: fragment of one batch (used by pipeline
/// sources that do not want to materialize the whole input).
Batch fragment_batch(std::span<const std::uint8_t> chunk,
                     std::uint64_t index, const DedupConfig& config);

/// Allocation-free form of stage 1: refills a (possibly recycled) batch in
/// place with a caller-owned Rabin — hoisting the table construction out
/// of the per-batch path and reusing the batch's slab and vector
/// capacities. Produces exactly the batch fragment_batch would.
void fragment_batch_into(std::span<const std::uint8_t> chunk,
                         std::uint64_t index, const kernels::Rabin& rabin,
                         Batch& batch);

/// PARSEC's original fragmentation, before the paper's GPU refactor: batch
/// boundaries are themselves content-defined (a coarse rabin pass), so
/// batch sizes vary widely around config.batch_size — which is exactly why
/// the paper switched to fixed-size batches ("to best benefit from GPU
/// capabilities when a large batch of data has to process", §IV-B).
/// Exposed for the DESIGN.md §4.3 ablation.
std::vector<Batch> fragment_input_variable(
    std::span<const std::uint8_t> input, const DedupConfig& config);

/// Stage 2: fills BlockInfo::digest for every block (CPU reference path;
/// GPU variants run one simulated thread per block instead). With a store
/// attached, every digest is also record()ed into it as soon as it is
/// computed — concurrently safe, so replicated hash workers all feed the
/// same store — and BlockInfo::store_hit is set from the store's answer.
void hash_blocks(Batch& batch, DupStore* store = nullptr);

/// Total SHA-1 compression rounds of a batch (cost accounting).
std::uint64_t batch_sha1_rounds(const Batch& batch);

/// Stage 3's digest table grew into the persistent sharded DupStore
/// (dup_store.hpp); the historical name stays as an alias — check() and
/// unique_count() behave exactly as the old archive-local cache did, and a
/// default-constructed DupStore is a pure in-memory table.
using DupCache = DupStore;

/// Stage 4 (CPU path): LZSS-compresses every unique block directly.
void compress_blocks_cpu(Batch& batch, const DedupConfig& config);

/// Stage 4 (GPU path), step 1: batched FindMatch over the whole batch
/// (Listing 3) — the simulated-GPU variants execute this as a kernel; this
/// CPU form is the reference used in tests.
void find_batch_matches(Batch& batch, const DedupConfig& config);

/// Stage 4 (GPU path), step 2: CPU encode walk over the precomputed
/// matches for unique blocks only ("In CPU, we used the result of the
/// kernel function to run the compression on each block").
void compress_blocks_from_matches(Batch& batch, const DedupConfig& config);

/// FindMatch kernel cost units of the whole batch (sum over positions of
/// the Listing 3 scan length), for the performance model.
std::uint64_t batch_match_cost(const Batch& batch, const DedupConfig& config);

/// Compressed output bytes of a processed batch (unique payloads + record
/// overhead), for throughput accounting.
std::uint64_t batch_output_bytes(const Batch& batch);

// ---- GPU lanes: the body of one simulated thread, shared by every GPU path
// (the SPar+CUDA stages, the single-thread OpenCL driver, serve's jobs).

/// Stage 2 lane: SHA-1 of block `b` of `batch`, read from `data` (the
/// batch bytes as the device holds them) and written to digests + 20*b.
/// Returns the lane cost: SHA-1 rounds of the block, so warp divergence
/// follows the variable rabin block sizes. The body runs on the host, so it
/// hashes with the host's fastest single stream (SHA-NI when present, the
/// same digest as the scalar context); the modeled cost does not change.
inline std::uint64_t sha1_lane(const Batch& batch, const std::uint8_t* data,
                               std::size_t b, std::uint8_t* digests) {
  const BlockInfo& block = batch.blocks[b];
  const kernels::Sha1Digest digest = kernels::simd::sha1_hash_fast(
      std::span<const std::uint8_t>(data + block.start, block.len));
  std::memcpy(digests + b * digest.size(), digest.data(), digest.size());
  return kernels::Sha1::compression_rounds(block.len) * 100;
}

/// Stage 4 lane (Listing 3): locates the block holding `pos` from
/// start_pos, then the longest match at `pos` clamped to that block, read
/// from `data` (n batch bytes on the device). Returns the lane cost.
inline std::uint64_t find_match_lane(const Batch& batch,
                                     const std::uint8_t* data, std::size_t n,
                                     std::size_t pos,
                                     const kernels::LzssParams& lzss,
                                     kernels::LzssMatch* matches) {
  const auto& starts = batch.start_pos;
  std::size_t lo = 0;
  std::size_t hi = starts.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (starts[mid] <= pos) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const std::size_t bstart = starts[lo];
  const std::size_t bend = lo + 1 < starts.size() ? starts[lo + 1] : n;
  matches[pos] = kernels::lzss_longest_match(
      std::span<const std::uint8_t>(data, n), bstart, bend, pos, lzss);
  return kernels::lzss_match_cost(bstart, pos, lzss) * 2;
}

}  // namespace hs::dedup
