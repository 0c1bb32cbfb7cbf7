// SHA-NI single-stream SHA-1 (see sha1_ni.hpp). Built with -msha -msse4.1
// on x86; other targets compile the fallback half of this file only.
#include "kernels/simd/sha1_ni.hpp"

#include <cstring>

#include "kernels/simd/dispatch.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)
#define HS_SHA_EXT_COMPILED 1
#include <immintrin.h>
#else
#define HS_SHA_EXT_COMPILED 0
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hs::kernels::simd {

namespace {

bool cpu_has_sha_extensions() {
#if (defined(__x86_64__) || defined(__i386__)) && HS_SHA_EXT_COMPILED
  // Structured extended feature leaf: SHA is CPUID.(EAX=7,ECX=0):EBX[29].
  // Not part of __builtin_cpu_supports' portable name set, so query the
  // leaf directly.
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

#if HS_SHA_EXT_COMPILED

/// Runs the 80-round compression over `blocks` consecutive 64-byte blocks.
/// `state` is h0..h4 in natural (word) order, as Sha1 keeps them.
//
// Round-group structure: SHA1RNDS4 retires four rounds per invocation with
// its f/K selector as an immediate, so the 80 rounds are 20 groups of 4.
// Group g consumes the message quad W[4g..4g+3] held in x{g%4}; the same
// register is then rescheduled to W[4(g+4)..] via SHA1MSG1 -> XOR ->
// SHA1MSG2 (the standard W recurrence four-at-a-time), which is what the
// HS_SHA1_GROUP macro expands to. E is carried between groups by
// SHA1NEXTE from the pre-round ABCD snapshot; only the first group of a
// block adds the chaining E with a plain vector add.
void compress_blocks(std::uint32_t state[5], const std::uint8_t* data,
                     std::size_t blocks) {
  // Byte shuffle turning a 16-byte little-endian load into four big-endian
  // words with W0 in the high lane, where SHA1RNDS4 expects it.
  const __m128i kFlip =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e;
    __m128i x0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), kFlip);
    __m128i x1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kFlip);
    __m128i x2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kFlip);
    __m128i x3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kFlip);

// One 4-round group: fold E into this group's W quad, snapshot ABCD for
// the next group's SHA1NEXTE, run the rounds, reschedule W for group g+4.
#define HS_SHA1_GROUP(K, W, WA, WB, WC)                    \
  do {                                                     \
    const __m128i e_cur = _mm_sha1nexte_epu32(e, W);       \
    const __m128i prev = abcd;                             \
    abcd = _mm_sha1rnds4_epu32(abcd, e_cur, K);            \
    e = prev;                                              \
    W = _mm_sha1msg2_epu32(                                \
        _mm_xor_si128(_mm_sha1msg1_epu32(W, WA), WB), WC); \
  } while (0)
#define HS_SHA1_GROUP_TAIL(K, W)                     \
  do {                                               \
    const __m128i e_cur = _mm_sha1nexte_epu32(e, W); \
    const __m128i prev = abcd;                       \
    abcd = _mm_sha1rnds4_epu32(abcd, e_cur, K);      \
    e = prev;                                        \
  } while (0)

    {  // group 0: chaining E enters by plain add, not SHA1NEXTE
      const __m128i e_cur = _mm_add_epi32(e, x0);
      const __m128i prev = abcd;
      abcd = _mm_sha1rnds4_epu32(abcd, e_cur, 0);
      e = prev;
      x0 = _mm_sha1msg2_epu32(
          _mm_xor_si128(_mm_sha1msg1_epu32(x0, x1), x2), x3);
    }
    HS_SHA1_GROUP(0, x1, x2, x3, x0);  // groups 1-4: rounds 4..19
    HS_SHA1_GROUP(0, x2, x3, x0, x1);
    HS_SHA1_GROUP(0, x3, x0, x1, x2);
    HS_SHA1_GROUP(0, x0, x1, x2, x3);
    HS_SHA1_GROUP(1, x1, x2, x3, x0);  // groups 5-9: rounds 20..39
    HS_SHA1_GROUP(1, x2, x3, x0, x1);
    HS_SHA1_GROUP(1, x3, x0, x1, x2);
    HS_SHA1_GROUP(1, x0, x1, x2, x3);
    HS_SHA1_GROUP(1, x1, x2, x3, x0);
    HS_SHA1_GROUP(2, x2, x3, x0, x1);  // groups 10-14: rounds 40..59
    HS_SHA1_GROUP(2, x3, x0, x1, x2);
    HS_SHA1_GROUP(2, x0, x1, x2, x3);
    HS_SHA1_GROUP(2, x1, x2, x3, x0);
    HS_SHA1_GROUP(2, x2, x3, x0, x1);
    HS_SHA1_GROUP(3, x3, x0, x1, x2);  // group 15: rounds 60..63
    HS_SHA1_GROUP_TAIL(3, x0);         // groups 16-19: no more schedule
    HS_SHA1_GROUP_TAIL(3, x1);
    HS_SHA1_GROUP_TAIL(3, x2);
    HS_SHA1_GROUP_TAIL(3, x3);

#undef HS_SHA1_GROUP
#undef HS_SHA1_GROUP_TAIL

    // Chain: h += working state. SHA1NEXTE folds the rotated final A into
    // the saved E lane in one instruction.
    e = _mm_sha1nexte_epu32(e, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

Sha1Digest hash_ni_impl(std::span<const std::uint8_t> data) {
  std::uint32_t state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u};
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress_blocks(state, data.data(), whole);

  // Padding: 0x80, zeros, 64-bit big-endian bit length — one tail block,
  // or two when fewer than 8 length bytes fit after the 0x80.
  const std::size_t rem = data.size() - whole * 64;
  std::uint8_t tail[128] = {};
  if (rem > 0) std::memcpy(tail, data.data() + whole * 64, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = rem < 56 ? 64 : 128;
  const std::uint64_t bit_len =
      static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  compress_blocks(state, tail, tail_len / 64);

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(i) * 4] =
        static_cast<std::uint8_t>(state[i] >> 24);
    out[static_cast<std::size_t>(i) * 4 + 1] =
        static_cast<std::uint8_t>(state[i] >> 16);
    out[static_cast<std::size_t>(i) * 4 + 2] =
        static_cast<std::uint8_t>(state[i] >> 8);
    out[static_cast<std::size_t>(i) * 4 + 3] =
        static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

#endif  // HS_SHA_EXT_COMPILED

}  // namespace

bool sha1_ni_available() {
  static const bool available = cpu_has_sha_extensions();
  return available;
}

Sha1Digest sha1_hash_ni(std::span<const std::uint8_t> data) {
#if HS_SHA_EXT_COMPILED
  if (sha1_ni_available()) return hash_ni_impl(data);
#endif
  return Sha1::hash(data);
}

Sha1Digest sha1_hash_fast(std::span<const std::uint8_t> data) {
  if (active_level() > Level::kScalar && sha1_ni_available()) {
    return sha1_hash_ni(data);
  }
  return Sha1::hash(data);
}

}  // namespace hs::kernels::simd
