#include "dedup/stages.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "kernels/huffman.hpp"
#include "kernels/simd/rabin_lanes.hpp"
#include "kernels/simd/sha1_mb.hpp"

namespace hs::dedup {

namespace {
// Per-thread kernel scratch: farm workers each warm their own copy on the
// first batch, after which the hot path stays allocation-free (the
// steady-state alloc gate in micro_substrate counts on this).
kernels::simd::RabinScratch& rabin_scratch() {
  static thread_local kernels::simd::RabinScratch scratch;
  return scratch;
}
struct HashScratch {
  std::vector<kernels::simd::Sha1Job> jobs;
  kernels::simd::Sha1Scratch grouping;
};
HashScratch& hash_scratch() {
  static thread_local HashScratch scratch;
  return scratch;
}
}  // namespace

Batch fragment_batch(std::span<const std::uint8_t> chunk, std::uint64_t index,
                     const DedupConfig& config) {
  kernels::Rabin rabin(config.rabin);
  Batch batch;
  fragment_batch_into(chunk, index, rabin, batch);
  return batch;
}

void fragment_batch_into(std::span<const std::uint8_t> chunk,
                         std::uint64_t index, const kernels::Rabin& rabin,
                         Batch& batch) {
  batch.reset();
  batch.index = index;
  batch.data.assign(chunk);
  // Lane-dispatched rabin scan; cuts are bit-identical to
  // rabin.chunk_boundaries_into at every SIMD level.
  kernels::simd::rabin_boundaries(rabin, batch.data.span(), batch.start_pos,
                                  &rabin_scratch());
  batch.blocks.reserve(batch.start_pos.size());
  for (std::size_t k = 0; k < batch.start_pos.size(); ++k) {
    BlockInfo block;
    block.start = batch.start_pos[k];
    std::uint32_t end = k + 1 < batch.start_pos.size()
                            ? batch.start_pos[k + 1]
                            : static_cast<std::uint32_t>(batch.data.size());
    block.len = end - block.start;
    block.bytes = std::span<const std::uint8_t>(batch.data.data() + block.start,
                                                block.len);
    batch.blocks.push_back(std::move(block));
  }
}

std::vector<Batch> fragment_input(std::span<const std::uint8_t> input,
                                  const DedupConfig& config) {
  std::vector<Batch> batches;
  const std::size_t bs = std::max<std::uint32_t>(1, config.batch_size);
  for (std::size_t off = 0, idx = 0; off < input.size();
       off += bs, ++idx) {
    std::size_t n = std::min(bs, input.size() - off);
    batches.push_back(fragment_batch(input.subspan(off, n), idx, config));
  }
  return batches;
}

std::vector<Batch> fragment_input_variable(
    std::span<const std::uint8_t> input, const DedupConfig& config) {
  // Coarse content-defined pass: expected chunk ~ batch_size, bounded to
  // [batch_size/8, 4*batch_size].
  kernels::RabinParams coarse = config.rabin;
  coarse.min_block = std::max<std::uint32_t>(coarse.window * 2,
                                             config.batch_size / 8);
  coarse.max_block = config.batch_size * 4;
  // Boundary when the low bits match; choose the mask for an expected
  // chunk length near batch_size (expected gap ~ mask+1 bytes).
  std::uint32_t mask = 1;
  while (mask + 1 < config.batch_size) mask = (mask << 1) | 1;
  coarse.mask = mask;
  kernels::Rabin rabin(coarse);
  auto starts = rabin.chunk_boundaries(input);

  std::vector<Batch> batches;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    std::size_t begin = starts[i];
    std::size_t end = i + 1 < starts.size() ? starts[i + 1] : input.size();
    batches.push_back(fragment_batch(input.subspan(begin, end - begin),
                                     static_cast<std::uint64_t>(i), config));
  }
  return batches;
}

void hash_blocks(Batch& batch, DupStore* store) {
  // The whole batch goes through the multi-buffer lane API in one call:
  // blocks hash in parallel SIMD lanes (4-way SSE4.2 / 8-way AVX2) with
  // digests written straight into the block table.
  HashScratch& scratch = hash_scratch();
  scratch.jobs.clear();
  scratch.jobs.reserve(batch.blocks.size());
  for (BlockInfo& block : batch.blocks) {
    scratch.jobs.push_back(
        {block.bytes.data(), block.bytes.size(), &block.digest});
  }
  kernels::simd::sha1_many(scratch.jobs.data(), scratch.jobs.size(),
                           &scratch.grouping);
  if (store != nullptr) {
    // Feed the persistent store from the hash stage, while the digests are
    // hot — lock-striped, so concurrent hash workers rarely contend. This
    // runs before the serial stage-3 check and never affects it.
    for (BlockInfo& block : batch.blocks) {
      bool present = false;
      store->record(block.digest, &present);
      block.store_hit = present;
    }
  }
}

std::uint64_t batch_sha1_rounds(const Batch& batch) {
  std::uint64_t rounds = 0;
  for (const BlockInfo& block : batch.blocks) {
    rounds += kernels::Sha1::compression_rounds(block.len);
  }
  return rounds;
}

namespace {

/// Applies the configured entropy stage over the LZSS payload already in
/// block.compressed, keeping whichever representation is smaller
/// (per-block best-of: the 132-byte table+prefix overhead makes entropy
/// coding a loss for small or already-dense blocks). Sets
/// block.entropy_coded accordingly.
void finish_payload(const DedupConfig& config, BlockInfo& block) {
  block.entropy_coded = false;
  if (config.codec != DedupCodec::kLzssHuffman) return;
  // Prefix the LZSS layer's size (little-endian u32) so the extractor
  // knows how much the entropy layer decodes to.
  auto huff = kernels::huffman_encode(block.compressed.span());
  if (4 + huff.size() < block.compressed.size()) {
    PooledBuffer out;
    out.reserve(4 + huff.size());
    put_u32(out, static_cast<std::uint32_t>(block.compressed.size()));
    out.append(huff.data(), huff.size());
    block.compressed = std::move(out);
    block.entropy_coded = true;
  }
}

}  // namespace

void compress_blocks_cpu(Batch& batch, const DedupConfig& config) {
  for (BlockInfo& block : batch.blocks) {
    if (block.duplicate) continue;
    kernels::lzss_encode(batch.data.span(), block.start,
                         block.start + block.len, config.lzss,
                         block.compressed);
    finish_payload(config, block);
  }
}

void find_batch_matches(Batch& batch, const DedupConfig& config) {
  if (batch.data.empty()) {
    batch.matches.clear();
    return;
  }
  kernels::find_matches_batch(batch.data.span(), batch.start_pos, config.lzss,
                              batch.matches);
}

void compress_blocks_from_matches(Batch& batch, const DedupConfig& config) {
  for (BlockInfo& block : batch.blocks) {
    if (block.duplicate) continue;
    kernels::lzss_encode_from_matches(batch.data.span(), block.start,
                                      block.start + block.len, batch.matches,
                                      config.lzss, block.compressed);
    finish_payload(config, block);
  }
}

std::uint64_t batch_match_cost(const Batch& batch,
                               const DedupConfig& config) {
  std::uint64_t total = 0;
  std::size_t block_idx = 0;
  for (std::size_t pos = 0; pos < batch.data.size(); ++pos) {
    while (block_idx + 1 < batch.start_pos.size() &&
           pos >= batch.start_pos[block_idx + 1]) {
      ++block_idx;
    }
    total += kernels::lzss_match_cost(batch.start_pos[block_idx], pos,
                                      config.lzss);
  }
  return total;
}

std::uint64_t batch_output_bytes(const Batch& batch) {
  std::uint64_t bytes = 16;  // batch record header
  for (const BlockInfo& block : batch.blocks) {
    bytes += block.duplicate ? 9 : 9 + block.compressed.size();
  }
  return bytes;
}

}  // namespace hs::dedup
