// Vectorized LZSS match finder (DESIGN.md §4g).
//
// The scalar FindMatch body walks candidates with memchr and extends
// byte/word-wise. The wide bodies keep the exact same result contract —
// (max length, oldest candidate on ties), early exit at the lookahead
// limit — but scan 16/32 candidate first-bytes per compare (vector
// equality + movemask) and extend matches 16/32 bytes per compare. Two
// result-preserving prunes make the big win: a candidate is skipped when
// its length cap can't strictly beat the current best, or when the byte
// that WOULD extend the best (cand[best.length] vs pos[best.length])
// already mismatches. Encoded streams stay bit-identical to scalar
// (asserted by tests/simd_dispatch_test.cpp and the golden archives).
#pragma once

#include <cstddef>
#include <span>

#include "kernels/lzss.hpp"
#include "kernels/simd/dispatch.hpp"

namespace hs::kernels::simd {

/// Per-level match search; same contract as kernels::lzss_longest_match
/// (which dispatches here on active_level()). Levels above the host's
/// support are clamped.
LzssMatch lzss_longest_match_at(Level level,
                                std::span<const std::uint8_t> input,
                                std::size_t block_start, std::size_t block_end,
                                std::size_t pos, const LzssParams& params);

// Per-level bodies. The scalar body is the seed reference implementation;
// SSE4.2/AVX2 fall back to it when built without x86 intrinsics.
LzssMatch lzss_longest_match_scalar(std::span<const std::uint8_t> input,
                                    std::size_t block_start,
                                    std::size_t block_end, std::size_t pos,
                                    const LzssParams& params);
LzssMatch lzss_longest_match_sse42(std::span<const std::uint8_t> input,
                                   std::size_t block_start,
                                   std::size_t block_end, std::size_t pos,
                                   const LzssParams& params);
LzssMatch lzss_longest_match_avx2(std::span<const std::uint8_t> input,
                                  std::size_t block_start,
                                  std::size_t block_end, std::size_t pos,
                                  const LzssParams& params);

}  // namespace hs::kernels::simd
