// 32-byte LZSS match search (AVX2). Compiled with -mavx2 on x86; forwards
// to the SSE4.2 body (itself falling back to scalar) elsewhere.
#include "kernels/simd/lzss_match.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "kernels/simd/lzss_match_wide.hpp"

namespace hs::kernels::simd {
namespace {

struct Avx2Traits {
  static constexpr unsigned kWidth = 32;
  static unsigned eq_mask(const std::uint8_t* p, std::uint8_t b) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return static_cast<unsigned>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(v, _mm256_set1_epi8(static_cast<char>(b)))));
  }
  static unsigned neq_mask(const std::uint8_t* a, const std::uint8_t* b) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    return ~static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
  }
};

}  // namespace

LzssMatch lzss_longest_match_avx2(std::span<const std::uint8_t> input,
                                  std::size_t block_start,
                                  std::size_t block_end, std::size_t pos,
                                  const LzssParams& params) {
  return detail::longest_match_wide<Avx2Traits>(input, block_start, block_end,
                                                pos, params);
}

}  // namespace hs::kernels::simd

#else  // !__AVX2__

namespace hs::kernels::simd {
LzssMatch lzss_longest_match_avx2(std::span<const std::uint8_t> input,
                                  std::size_t block_start,
                                  std::size_t block_end, std::size_t pos,
                                  const LzssParams& params) {
  return lzss_longest_match_sse42(input, block_start, block_end, pos, params);
}
}  // namespace hs::kernels::simd

#endif
