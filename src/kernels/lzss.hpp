// LZSS codec — the compression stage of the GPU Dedup (the paper replaces
// PARSEC's Bzip2/Gzip with the LZSS of their prior work [24], and its
// FindMatch kernel is the heart of their §IV-B optimization).
//
// One exact, shared match function drives every variant:
//  * lzss_encode()            — CPU block encoder (match search inline);
//  * find_matches_batch()     — all matches of a whole multi-block batch at
//    once, the data-parallel form of the paper's Listing 3 FindMatchKernel
//    (one GPU thread per input position, block bounds from startPos);
//  * lzss_encode_from_matches() — CPU encode walk over precomputed matches
//    (the paper runs exactly this split: FindMatch on GPU, walk on CPU).
// Because the match function is shared, all variants emit bit-identical
// compressed streams — the cross-version equivalence the tests assert.
//
// Stream format (MSB-first bit stream):
//   flag 1 -> 8-bit literal
//   flag 0 -> (offset-1) in offset_bits, (length-min_match) in length_bits
// Matches never cross block boundaries and never overlap the lookahead
// (source indices stay below the current position, as in Listing 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/status.hpp"

namespace hs::kernels {

/// Match-finder selection. The bit stream format is identical either way —
/// any decoder reads both — but the encoded bytes differ, so goldens pin
/// one mode.
///  * kLegacy: the seed brute-force window scan (exact longest match,
///    oldest candidate on ties). Bit-exact with every archive golden
///    recorded before the chain matcher existed; the modeled/paper rows
///    stay on it.
///  * kChain: LZ4/zlib-style hash-chain matcher (3-byte hash heads +
///    chained previous positions, bounded walk depth) — approximate
///    (bounded depth, newest-first ties) but ~20-50x faster. All pipeline
///    variants still emit bit-identical archives to each other in this
///    mode; they just differ from the legacy stream.
enum class LzssMode : std::uint8_t {
  kLegacy = 0,
  kChain = 1,
};

/// "legacy" / "chain".
[[nodiscard]] std::string_view lzss_mode_name(LzssMode mode);

/// Parses a mode name; false on unknown names (value untouched).
bool parse_lzss_mode(std::string_view name, LzssMode& out);

struct LzssParams {
  std::uint32_t window_size = 4096;  ///< must be a power of two, <= 4096
  std::uint32_t min_match = 3;
  std::uint32_t max_match = 18;  ///< min_match + 15 with 4 length bits
  LzssMode mode = LzssMode::kLegacy;
  /// Chain links visited per kChain query before giving up (ignored by
  /// kLegacy). Bounds the worst case at O(n·depth) regardless of window
  /// size; raising it trades speed for ratio. Part of the match-finder
  /// configuration, so changing it re-goldens chain-mode streams.
  std::uint32_t chain_depth = 8;

  static constexpr std::uint32_t kOffsetBits = 12;
  static constexpr std::uint32_t kLengthBits = 4;

  [[nodiscard]] bool valid() const {
    return window_size >= 2 && window_size <= (1u << kOffsetBits) &&
           min_match >= 2 && max_match > min_match &&
           max_match - min_match < (1u << kLengthBits) && chain_depth >= 1;
  }
};

/// A match for one input position: `length` == 0 or < min_match means "emit
/// a literal here"; otherwise copy `length` bytes from `offset` positions
/// back.
struct LzssMatch {
  std::uint16_t length = 0;
  std::uint16_t offset = 0;
};

/// Longest match for `pos` within [block_start, block_end), searching at
/// most `params.window_size` positions back and never past block bounds or
/// the lookahead. Ties keep the oldest candidate (the Listing 3 scan
/// order). This is the per-thread body of the FindMatch kernel.
LzssMatch lzss_longest_match(std::span<const std::uint8_t> input,
                             std::size_t block_start, std::size_t block_end,
                             std::size_t pos, const LzssParams& params);

/// CPU one-shot encoder for input[block_start, block_end).
std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input,
                                      std::size_t block_start,
                                      std::size_t block_end,
                                      const LzssParams& params);

/// Whole-buffer convenience.
inline std::vector<std::uint8_t> lzss_encode(
    std::span<const std::uint8_t> input, const LzssParams& params = {}) {
  return lzss_encode(input, 0, input.size(), params);
}

/// Pooled-sink variant: encodes into `out` (cleared first), reusing its
/// slab — the allocation-free entry the dedup pipeline uses. Emits the
/// same bit stream as the vector overload.
void lzss_encode(std::span<const std::uint8_t> input, std::size_t block_start,
                 std::size_t block_end, const LzssParams& params,
                 PooledBuffer& out);

/// Decodes `compressed` into exactly `original_size` bytes; DATA_LOSS on a
/// malformed stream (truncated stream, offset before block start, …).
Result<std::vector<std::uint8_t>> lzss_decode(
    std::span<const std::uint8_t> compressed, std::size_t original_size,
    const LzssParams& params = {});

/// Matches for every position of a multi-block batch: `start_pos` holds the
/// block start indices (rabin output; start_pos[0] == 0), blocks end where
/// the next begins (last ends at input.size()). out_matches is resized to
/// input.size(). This mirrors the batched FindMatchKernel: position i's
/// block is found from start_pos, and the search is clamped to that block.
void find_matches_batch(std::span<const std::uint8_t> input,
                        std::span<const std::uint32_t> start_pos,
                        const LzssParams& params,
                        std::vector<LzssMatch>& out_matches);

/// Encode walk over precomputed matches (absolute-indexed), equivalent to
/// lzss_encode for the same block bounds.
std::vector<std::uint8_t> lzss_encode_from_matches(
    std::span<const std::uint8_t> input, std::size_t block_start,
    std::size_t block_end, std::span<const LzssMatch> matches,
    const LzssParams& params);

/// Pooled-sink variant of the encode walk (out cleared first).
void lzss_encode_from_matches(std::span<const std::uint8_t> input,
                              std::size_t block_start, std::size_t block_end,
                              std::span<const LzssMatch> matches,
                              const LzssParams& params, PooledBuffer& out);

/// Work units (input-byte comparisons) the cost model charges one simulated
/// GPU lane for matching position `pos`; mirrors the Listing 3 loop trip
/// count: scan length of the window clamped to the block. Inline: the
/// modeled FindMatch kernels evaluate it once per lane, about 10^9 times in
/// a few seconds of modeled replays.
inline std::uint64_t lzss_match_cost(std::size_t block_start, std::size_t pos,
                                     const LzssParams& params) {
  const std::size_t distance = pos - block_start;
  return 1 + std::min<std::size_t>(distance, params.window_size);
}

}  // namespace hs::kernels
