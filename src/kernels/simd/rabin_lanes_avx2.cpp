// 4-lane Rabin match-bitmap kernel (AVX2). Compiled with -mavx2 on x86;
// forwards to the scalar body elsewhere.
#include "kernels/simd/rabin_lanes.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace hs::kernels::simd {
namespace {

constexpr int kLanes = 4;

/// ORs a 64-bit word of match bits into the bitmap at an arbitrary bit
/// offset. `nwords` guards the straddling high write at the buffer end
/// (the spilled bits are beyond position n-1 and therefore zero).
inline void or_word_at(std::uint64_t* bits, std::size_t nwords,
                       std::size_t bitpos, std::uint64_t word) {
  const std::size_t q = bitpos >> 6;
  const std::size_t r = bitpos & 63;
  bits[q] |= word << r;
  if (r != 0 && q + 1 < nwords) bits[q + 1] |= word >> (64 - r);
}

inline __m256i set1(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// a * kMult mod 2^64 per lane; vpmullq is AVX-512, so compose it from
/// 32x32->64 partial products: lo*lo + ((lo*hi + hi*lo) << 32).
inline __m256i mul_k(__m256i a) {
  const __m256i kl = set1(Rabin::kMult & 0xFFFFFFFFull);
  const __m256i kh = set1(Rabin::kMult >> 32);
  const __m256i lo = _mm256_mul_epu32(a, kl);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, kh),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), kl));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

}  // namespace

void rabin_match_bits_avx2(const Rabin& rabin,
                           std::span<const std::uint8_t> data,
                           std::uint64_t* bits) {
  const RabinParams& p = rabin.params();
  const std::size_t n = data.size();
  const std::size_t nwords = (n + 63) / 64;
  const std::uint32_t window = p.window;

  // Stripes shorter than this lose the warm-up cost; let scalar run them.
  constexpr std::size_t kMinStripe = 512;
  if (n < window || (n - (window - 1)) / kLanes < kMinStripe) {
    rabin_match_bits_scalar(rabin, data, bits);
    return;
  }
  std::memset(bits, 0, nwords * sizeof(std::uint64_t));

  const std::uint64_t* push = rabin.push_table();
  const std::uint64_t* pop = rabin.pop_table();
  const std::uint8_t* d = data.data();
  const std::uint64_t mask = p.mask;
  const std::uint64_t magic = p.magic;

  // Positions window-1 .. n-1 carry a full window. Lane l owns the `per`
  // positions starting at base[l]; the remainder past the last lane is
  // finished scalar below.
  const std::size_t total = n - (window - 1);
  const std::size_t per = total / kLanes;
  std::size_t base[kLanes];
  std::uint64_t warm[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    base[l] = (window - 1) + static_cast<std::size_t>(l) * per;
    // Full-window warm-up so the first vector step can roll normally.
    warm[l] = rabin.window_fingerprint(
        data.subspan(base[l] - (window - 1), window));
    if ((warm[l] & mask) == magic) {
      bits[base[l] >> 6] |= 1ull << (base[l] & 63);
    }
  }

  const __m256i vmask = set1(mask);
  const __m256i vmagic = set1(magic);
  __m256i vfp = _mm256_set_epi64x(
      static_cast<long long>(warm[3]), static_cast<long long>(warm[2]),
      static_cast<long long>(warm[1]), static_cast<long long>(warm[0]));

  std::uint64_t acc[kLanes] = {};
  std::size_t chunk_start = 1;  // step index where `acc` bit 0 lives
  for (std::size_t s = 1; s < per; ++s) {
    // Per-lane push[d[i]] - pop[d[i-window]], fed to the set intrinsic as
    // register values: routing them through a stack array costs a
    // store-forwarding stall every iteration.
    const auto u = [&](int l) {
      const std::size_t i = base[l] + s;
      return static_cast<long long>(push[d[i]] - pop[d[i - window]]);
    };
    vfp = _mm256_add_epi64(mul_k(vfp),
                           _mm256_set_epi64x(u(3), u(2), u(1), u(0)));
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(vfp, vmask),
                                               vmagic))));
    const std::size_t off = s - chunk_start;
    if (m != 0) {
      for (int l = 0; l < kLanes; ++l) {
        acc[l] |= static_cast<std::uint64_t>((m >> l) & 1u) << off;
      }
    }
    if (off == 63) {
      for (int l = 0; l < kLanes; ++l) {
        if (acc[l] != 0) {
          or_word_at(bits, nwords, base[l] + chunk_start, acc[l]);
        }
        acc[l] = 0;
      }
      chunk_start = s + 1;
    }
  }
  if (chunk_start < per) {
    for (int l = 0; l < kLanes; ++l) {
      if (acc[l] != 0) or_word_at(bits, nwords, base[l] + chunk_start, acc[l]);
    }
  }

  // Scalar tail: positions past the last full stripe.
  std::size_t i = (window - 1) + per * kLanes;
  if (i < n) {
    std::uint64_t fp =
        rabin.window_fingerprint(data.subspan(i - (window - 1), window));
    while (true) {
      if ((fp & mask) == magic) bits[i >> 6] |= 1ull << (i & 63);
      if (++i >= n) break;
      fp = fp * Rabin::kMult + push[d[i]] - pop[d[i - window]];
    }
  }
}

}  // namespace hs::kernels::simd

#else  // !__AVX2__

namespace hs::kernels::simd {
void rabin_match_bits_avx2(const Rabin& rabin,
                           std::span<const std::uint8_t> data,
                           std::uint64_t* bits) {
  rabin_match_bits_scalar(rabin, data, bits);
}
}  // namespace hs::kernels::simd

#endif
