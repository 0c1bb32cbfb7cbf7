// 16-byte LZSS match search (SSE4.2). Compiled with -msse4.2 on x86;
// forwards to the scalar body elsewhere.
#include "kernels/simd/lzss_match.hpp"

#if defined(__SSE4_2__)

#include <immintrin.h>

#include "kernels/simd/lzss_match_wide.hpp"

namespace hs::kernels::simd {
namespace {

struct SseTraits {
  static constexpr unsigned kWidth = 16;
  static unsigned eq_mask(const std::uint8_t* p, std::uint8_t b) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return static_cast<unsigned>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(b)))));
  }
  static unsigned neq_mask(const std::uint8_t* a, const std::uint8_t* b) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    return ~static_cast<unsigned>(
               _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb))) &
           0xFFFFu;
  }
};

}  // namespace

LzssMatch lzss_longest_match_sse42(std::span<const std::uint8_t> input,
                                   std::size_t block_start,
                                   std::size_t block_end, std::size_t pos,
                                   const LzssParams& params) {
  return detail::longest_match_wide<SseTraits>(input, block_start, block_end,
                                               pos, params);
}

}  // namespace hs::kernels::simd

#else  // !__SSE4_2__

namespace hs::kernels::simd {
LzssMatch lzss_longest_match_sse42(std::span<const std::uint8_t> input,
                                   std::size_t block_start,
                                   std::size_t block_end, std::size_t pos,
                                   const LzssParams& params) {
  return lzss_longest_match_scalar(input, block_start, block_end, pos, params);
}
}  // namespace hs::kernels::simd

#endif
