#include "kernels/simd/lzss_match.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace hs::kernels::simd {

// The seed scalar body (moved verbatim from lzss.cpp); the reference every
// wide body must match bit-for-bit.
LzssMatch lzss_longest_match_scalar(std::span<const std::uint8_t> input,
                                    std::size_t block_start,
                                    std::size_t block_end, std::size_t pos,
                                    const LzssParams& params) {
  assert(params.valid());
  assert(pos >= block_start && pos < block_end && block_end <= input.size());

  const std::size_t search_begin =
      pos - block_start > params.window_size ? pos - params.window_size
                                             : block_start;
  // Longest possible: bounded by the block end and by the no-overlap rule
  // (source indices stay below pos).
  const std::size_t lookahead_limit =
      std::min<std::size_t>(params.max_match, block_end - pos);

  LzssMatch best;
  const std::uint8_t* base = input.data();
  const std::uint8_t first = base[pos];
  for (std::size_t cand = search_begin; cand < pos; ++cand) {
    // memchr skips straight to the next candidate whose first byte matches,
    // visiting exactly the candidates the byte loop would have accepted, in
    // the same oldest-first order (so ties still keep the oldest).
    const void* hit = std::memchr(base + cand, first, pos - cand);
    if (hit == nullptr) break;
    cand = static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                    base);
    // Source must stay below pos: max length additionally bounded by
    // pos - cand.
    const std::size_t limit = std::min(lookahead_limit, pos - cand);
    std::size_t len = 1;
    // Word-at-a-time extension. In bounds: len + 8 <= limit implies
    // cand + len + 8 <= cand + limit <= pos < input.size() and
    // pos + len + 8 <= pos + limit <= block_end <= input.size().
    if constexpr (std::endian::native == std::endian::little) {
      while (len + 8 <= limit) {
        std::uint64_t a, b;
        std::memcpy(&a, base + cand + len, 8);
        std::memcpy(&b, base + pos + len, 8);
        if (a == b) {
          len += 8;
        } else {
          len += static_cast<std::size_t>(std::countr_zero(a ^ b)) >> 3;
          goto extended;
        }
      }
    }
    while (len < limit && base[cand + len] == base[pos + len]) ++len;
  extended:
    if (len > best.length) {
      best.length = static_cast<std::uint16_t>(len);
      best.offset = static_cast<std::uint16_t>(pos - cand);
      if (len == lookahead_limit) break;  // cannot do better
    }
  }
  if (best.length < params.min_match) return LzssMatch{};
  return best;
}

LzssMatch lzss_longest_match_at(Level level,
                                std::span<const std::uint8_t> input,
                                std::size_t block_start, std::size_t block_end,
                                std::size_t pos, const LzssParams& params) {
  if (level > best_supported()) level = best_supported();
  switch (level) {
    case Level::kAvx2:
      return lzss_longest_match_avx2(input, block_start, block_end, pos,
                                     params);
    case Level::kSse42:
      return lzss_longest_match_sse42(input, block_start, block_end, pos,
                                      params);
    case Level::kScalar:
      break;
  }
  return lzss_longest_match_scalar(input, block_start, block_end, pos, params);
}

}  // namespace hs::kernels::simd
