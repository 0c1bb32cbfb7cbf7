// Tests for the computational kernels: Mandelbrot math, SHA-1 against FIPS
// vectors, Rabin chunking invariants, LZSS roundtrips and the batched
// FindMatch equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/rng.hpp"
#include "kernels/lzss.hpp"
#include "kernels/mandel.hpp"
#include "kernels/rabin.hpp"
#include "kernels/sha1.hpp"

namespace hs::kernels {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---- Mandelbrot ----------------------------------------------------------------

TEST(MandelTest, InteriorPointRunsAllIterations) {
  MandelParams p;
  p.dim = 100;
  p.niter = 500;
  // The image center (0,0 in the complex plane) is inside the set.
  int i = static_cast<int>((0.0 - p.init_b) / p.step());
  int j = static_cast<int>((0.0 - p.init_a) / p.step());
  EXPECT_EQ(mandel_iterations(p, i, j), p.niter);
  EXPECT_EQ(mandel_color(p.niter, p.niter), 0);  // interior plotted black
}

TEST(MandelTest, ExteriorPointEscapesQuickly) {
  MandelParams p;
  p.dim = 100;
  p.niter = 500;
  // The top-left corner (-2.125, -1.5i) lies outside the radius-2 circle
  // region of slow escape; it must escape in a handful of iterations.
  EXPECT_LT(mandel_iterations(p, 0, 0), 10);
  EXPECT_GT(mandel_color(1, 500), 200);  // fast escapees plotted bright
}

TEST(MandelTest, LineMatchesPixelwiseComputation) {
  MandelParams p;
  p.dim = 64;
  p.niter = 100;
  std::vector<std::uint8_t> row(64);
  std::uint64_t cost = mandel_line(p, 32, row);
  EXPECT_GT(cost, 0u);
  for (int j = 0; j < p.dim; ++j) {
    EXPECT_EQ(row[static_cast<std::size_t>(j)],
              mandel_color(mandel_iterations(p, 32, j), p.niter));
  }
}

TEST(MandelTest, CostReflectsDivergence) {
  // A line through the set's interior costs far more than the first line.
  MandelParams p;
  p.dim = 128;
  p.niter = 2000;
  std::vector<std::uint8_t> row(128);
  std::uint64_t edge = mandel_line(p, 0, row);
  std::uint64_t center = mandel_line(p, 64, row);
  EXPECT_GT(center, 5 * edge);
}

// ---- SHA-1 ------------------------------------------------------------------------

TEST(Sha1Test, FipsVectors) {
  EXPECT_EQ(digest_hex(Sha1::hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(digest_hex(Sha1::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(digest_hex(Sha1::hash({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, MillionAs) {
  std::vector<std::uint8_t> data(1000000, 'a');
  EXPECT_EQ(digest_hex(Sha1::hash(data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Xoshiro256 rng(1);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  // Feed in awkward chunk sizes crossing the 64-byte block boundary.
  for (std::size_t chunk : {1ul, 7ul, 63ul, 64ul, 65ul, 1000ul}) {
    Sha1 ctx;
    for (std::size_t i = 0; i < data.size(); i += chunk) {
      std::size_t n = std::min(chunk, data.size() - i);
      ctx.update(std::span<const std::uint8_t>(data.data() + i, n));
    }
    EXPECT_EQ(ctx.finish(), Sha1::hash(data)) << "chunk=" << chunk;
  }
}

TEST(Sha1Test, LengthSweepAroundPaddingBoundaries) {
  // Every length near the 56/64-byte padding edges hashes distinctly and
  // deterministically.
  std::vector<Sha1Digest> seen;
  for (std::size_t len = 50; len <= 70; ++len) {
    std::vector<std::uint8_t> data(len, 0x5C);
    Sha1Digest d1 = Sha1::hash(data);
    Sha1Digest d2 = Sha1::hash(data);
    EXPECT_EQ(d1, d2);
    for (const auto& prev : seen) EXPECT_NE(d1, prev);
    seen.push_back(d1);
  }
}

TEST(Sha1Test, CompressionRoundsModel) {
  EXPECT_EQ(Sha1::compression_rounds(0), 1u);
  EXPECT_EQ(Sha1::compression_rounds(55), 1u);
  EXPECT_EQ(Sha1::compression_rounds(56), 2u);  // length spills to 2nd block
  EXPECT_EQ(Sha1::compression_rounds(64), 2u);
  EXPECT_EQ(Sha1::compression_rounds(119), 2u);
  EXPECT_EQ(Sha1::compression_rounds(120), 3u);
}

// ---- Rabin ---------------------------------------------------------------------------

RabinParams small_params() {
  RabinParams p;
  p.window = 16;
  p.min_block = 64;
  p.max_block = 4096;
  p.mask = 0xFF;  // ~256-byte average blocks: plenty of boundaries in tests
  p.magic = 0x42;
  return p;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

TEST(RabinTest, BoundariesAreDeterministicAndOrdered) {
  Rabin rabin(small_params());
  auto data = random_bytes(50000, 3);
  auto a = rabin.chunk_boundaries(data);
  auto b = rabin.chunk_boundaries(data);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front(), 0u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.size(), 10u);  // random data must produce many boundaries
}

TEST(RabinTest, BlockSizeLimitsRespected) {
  Rabin rabin(small_params());
  auto data = random_bytes(100000, 4);
  auto starts = rabin.chunk_boundaries(data);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    std::uint32_t len = starts[i] - starts[i - 1];
    EXPECT_GE(len, rabin.params().min_block);
    EXPECT_LE(len, rabin.params().max_block);
  }
}

TEST(RabinTest, ConstantDataHitsMaxBlock) {
  Rabin rabin(small_params());
  std::vector<std::uint8_t> data(20000, 0x00);
  auto starts = rabin.chunk_boundaries(data);
  // All-zero data either never matches the magic (max_block cuts) or
  // always produces the same cut; either way blocks are uniform.
  for (std::size_t i = 2; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i] - starts[i - 1], starts[1] - starts[0]);
  }
}

TEST(RabinTest, EmptyInput) {
  Rabin rabin(small_params());
  EXPECT_TRUE(rabin.chunk_boundaries({}).empty());
}

TEST(RabinTest, ContentDefinedShiftInvariance) {
  // THE content-defined-chunking property: inserting a prefix disturbs
  // only boundaries near the front; later boundaries realign (shifted).
  Rabin rabin(small_params());
  auto data = random_bytes(60000, 5);
  auto original = rabin.chunk_boundaries(data);

  std::vector<std::uint8_t> shifted = random_bytes(137, 99);
  shifted.insert(shifted.end(), data.begin(), data.end());
  auto after = rabin.chunk_boundaries(shifted);

  // Collect boundary positions relative to the original data.
  std::vector<std::int64_t> orig_set(original.begin(), original.end());
  std::size_t realigned = 0;
  for (std::uint32_t b : after) {
    std::int64_t rel = static_cast<std::int64_t>(b) - 137;
    if (rel > 4096 &&  // beyond the disturbed head region
        std::binary_search(orig_set.begin(), orig_set.end(), rel)) {
      ++realigned;
    }
  }
  // Most tail boundaries must realign.
  std::size_t tail_boundaries = 0;
  for (std::int64_t b : orig_set) {
    if (b > 4096) ++tail_boundaries;
  }
  EXPECT_GT(realigned, tail_boundaries * 8 / 10);
}

TEST(RabinTest, WindowFingerprintMatchesRolling) {
  Rabin rabin(small_params());
  auto data = random_bytes(1000, 7);
  // The fingerprint of a standalone window equals the rolling value at the
  // same offset (probed indirectly: identical windows -> identical fp).
  auto w1 = rabin.window_fingerprint(
      std::span<const std::uint8_t>(data.data() + 100, 16));
  auto w2 = rabin.window_fingerprint(
      std::span<const std::uint8_t>(data.data() + 100, 16));
  EXPECT_EQ(w1, w2);
  auto w3 = rabin.window_fingerprint(
      std::span<const std::uint8_t>(data.data() + 101, 16));
  EXPECT_NE(w1, w3);
}

TEST(RabinTest, DuplicateContentProducesDuplicateBlocks) {
  // Two copies of the same payload must chunk into the same block
  // payloads — the property the dedup cache exploits.
  Rabin rabin(small_params());
  auto unit = random_bytes(30000, 11);
  std::vector<std::uint8_t> doubled = unit;
  doubled.insert(doubled.end(), unit.begin(), unit.end());
  auto starts = rabin.chunk_boundaries(doubled);

  // A boundary must land exactly at the copy seam for blocks to repeat.
  // Content-defined cuts guarantee boundaries realign within the copy, so
  // block payloads from the second half repeat payloads from the first.
  std::vector<std::string> first_half, second_half;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    std::size_t start = starts[i];
    std::size_t end =
        i + 1 < starts.size() ? starts[i + 1] : doubled.size();
    std::string payload(doubled.begin() + static_cast<long>(start),
                        doubled.begin() + static_cast<long>(end));
    (start < unit.size() ? first_half : second_half)
        .push_back(std::move(payload));
  }
  std::size_t duplicates = 0;
  for (const auto& p : second_half) {
    if (std::find(first_half.begin(), first_half.end(), p) !=
        first_half.end()) {
      ++duplicates;
    }
  }
  ASSERT_GT(second_half.size(), 10u);
  EXPECT_GT(duplicates, second_half.size() * 7 / 10);
}

// ---- LZSS -----------------------------------------------------------------------------

LzssParams small_lzss() {
  LzssParams p;
  p.window_size = 256;
  return p;
}

TEST(LzssTest, RoundtripCompressible) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  auto input = bytes_of(text);
  auto compressed = lzss_encode(input, small_lzss());
  EXPECT_LT(compressed.size(), input.size() / 2);  // must actually compress
  auto back = lzss_decode(compressed, input.size(), small_lzss());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
}

TEST(LzssTest, RoundtripIncompressibleRandom) {
  auto input = random_bytes(10000, 21);
  auto compressed = lzss_encode(input, small_lzss());
  auto back = lzss_decode(compressed, input.size(), small_lzss());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
  // Random data expands slightly (flag bits) but never catastrophically.
  EXPECT_LT(compressed.size(), input.size() * 9 / 8 + 16);
}

TEST(LzssTest, RoundtripEdgeCases) {
  LzssParams p = small_lzss();
  for (const auto& input : std::vector<std::vector<std::uint8_t>>{
           {},
           {0x42},
           {1, 2},
           std::vector<std::uint8_t>(5000, 0xAA),     // long single run
           bytes_of("abcabcabcabcabcabcabc"),          // short period
           random_bytes(3, 1),
       }) {
    auto compressed = lzss_encode(input, p);
    auto back = lzss_decode(compressed, input.size(), p);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), input);
  }
}

TEST(LzssTest, DecodeRejectsCorruptStreams) {
  auto input = bytes_of("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
  auto compressed = lzss_encode(input, small_lzss());
  // Truncated stream.
  auto truncated = compressed;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(lzss_decode(truncated, input.size(), small_lzss()).status().code(),
            ErrorCode::kDataLoss);
  // Stream demanding more output than declared is caught by size check.
  EXPECT_FALSE(lzss_decode(compressed, input.size() * 10,
                           small_lzss()).ok());
  // A match pointing before the start of the block.
  std::vector<std::uint8_t> bogus = {0x00, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(lzss_decode(bogus, 20, small_lzss()).ok());
}

TEST(LzssTest, DeclaredSizeIsNotReservedPastTheInput) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators bypass the heap counters";
#endif
  // A short stream declaring 4 GiB of output is truncated data; decoding
  // it must not reserve the declared size first.
  auto compressed = lzss_encode(bytes_of("short payload"), small_lzss());
  const std::uint64_t before = heap_alloc_bytes();
  EXPECT_EQ(lzss_decode(compressed, 0xFFFFFFFFu, small_lzss()).status().code(),
            ErrorCode::kDataLoss);
  EXPECT_LT(heap_alloc_bytes() - before, 1u << 20);
}

TEST(LzssTest, InvalidParamsRejected) {
  LzssParams p;
  p.window_size = 1 << 13;  // too large for 12 offset bits
  EXPECT_FALSE(p.valid());
  EXPECT_FALSE(lzss_decode({}, 0, p).ok());
}

TEST(LzssTest, MatchesNeverCrossBlockBoundaries) {
  // Two identical blocks: positions in the second block must not match
  // into the first (FindMatch's startPos/lastPos clamping, Listing 3).
  auto unit = bytes_of("abcdefghijklmnopqrstuvwxyz0123456789");
  std::vector<std::uint8_t> input = unit;
  input.insert(input.end(), unit.begin(), unit.end());
  std::vector<std::uint32_t> starts = {
      0, static_cast<std::uint32_t>(unit.size())};
  std::vector<LzssMatch> matches;
  find_matches_batch(input, starts, small_lzss(), matches);
  // First position of block 2 has no history inside its own block.
  EXPECT_EQ(matches[unit.size()].length, 0);
  for (std::size_t pos = unit.size(); pos < input.size(); ++pos) {
    if (matches[pos].length > 0) {
      EXPECT_LE(matches[pos].offset, pos - unit.size());
    }
  }
}

TEST(LzssTest, BatchMatchesEqualPerBlockEncoding) {
  // The paper's central Dedup fix: one batched FindMatch over all blocks
  // must give the same compression as running each block separately.
  auto input = random_bytes(6000, 33);
  // Make it compressible: overwrite with repeated slices.
  for (std::size_t i = 2000; i < 4000; ++i) input[i] = input[i - 500];
  std::vector<std::uint32_t> starts = {0, 1500, 2048, 4096};
  std::vector<LzssMatch> matches;
  find_matches_batch(input, starts, small_lzss(), matches);

  for (std::size_t b = 0; b < starts.size(); ++b) {
    std::size_t s = starts[b];
    std::size_t e = b + 1 < starts.size() ? starts[b + 1] : input.size();
    auto direct = lzss_encode(input, s, e, small_lzss());
    auto via_batch =
        lzss_encode_from_matches(input, s, e, matches, small_lzss());
    EXPECT_EQ(direct, via_batch) << "block " << b;
    auto back = lzss_decode(direct, e - s, small_lzss());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(std::equal(back.value().begin(), back.value().end(),
                           input.begin() + static_cast<long>(s)));
  }
}

TEST(LzssTest, LongestMatchTieBreaksOldest) {
  // "abcXabcYabc|abc?" — two equally long earlier matches; Listing 3's
  // oldest-first scan keeps the first (largest offset).
  auto input = bytes_of("abcXabcYabc");
  LzssParams p = small_lzss();
  // Match for the final "abc" run: search at pos 8 ("abc" at 8..10).
  LzssMatch m = lzss_longest_match(input, 0, input.size(), 8, p);
  ASSERT_EQ(m.length, 3);
  EXPECT_EQ(m.offset, 8);  // references pos 0, not pos 4
}

TEST(LzssTest, MatchesNeverOverlapLookahead) {
  // Long runs: with the no-overlap rule of Listing 3, a match's source
  // must lie entirely before the current position.
  std::vector<std::uint8_t> input(200, 'z');
  LzssParams p = small_lzss();
  for (std::size_t pos = 1; pos < input.size(); pos += 17) {
    LzssMatch m = lzss_longest_match(input, 0, input.size(), pos, p);
    if (m.length >= p.min_match) {
      EXPECT_LE(static_cast<std::size_t>(m.length), pos)
          << "match would overlap the lookahead at pos " << pos;
    }
  }
}

TEST(RabinTest, WindowFingerprintMatchesRollingValue) {
  // The standalone window fingerprint must agree with the rolling
  // computation: rolling over [0..i] after a full window equals the
  // fingerprint of the window's bytes alone.
  RabinParams p = small_params();
  Rabin rabin(p);
  auto data = random_bytes(256, 13);
  // Roll manually using window_fingerprint over each full window.
  auto w1 = rabin.window_fingerprint(
      std::span<const std::uint8_t>(data.data() + 64, p.window));
  // Identical content elsewhere gives identical fingerprints (content
  // dependence, not position dependence).
  std::vector<std::uint8_t> copy(data.begin() + 64,
                                 data.begin() + 64 + p.window);
  auto w2 = rabin.window_fingerprint(copy);
  EXPECT_EQ(w1, w2);
}

TEST(LzssTest, MatchCostModelBounds) {
  LzssParams p = small_lzss();
  EXPECT_EQ(lzss_match_cost(0, 0, p), 1u);          // nothing to scan
  EXPECT_EQ(lzss_match_cost(0, 10, p), 11u);        // ramp-up
  EXPECT_EQ(lzss_match_cost(0, 100000, p), 257u);   // clamped to window
}

// Property sweep: roundtrip holds across window sizes and content types.
class LzssSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(LzssSweep, Roundtrip) {
  auto [window, kind] = GetParam();
  LzssParams p;
  p.window_size = window;
  std::vector<std::uint8_t> input;
  switch (kind) {
    case 0:
      input = random_bytes(4096, window);
      break;
    case 1:
      input.assign(4096, 0x11);
      break;
    case 2: {
      auto word = bytes_of("stream processing on multicores ");
      while (input.size() < 4096) {
        input.insert(input.end(), word.begin(), word.end());
      }
      break;
    }
    default: {  // random with embedded duplicate ranges
      input = random_bytes(4096, 7 * window);
      for (std::size_t i = 1000; i < 3000; ++i) input[i] = input[i - 250];
      break;
    }
  }
  auto compressed = lzss_encode(input, p);
  auto back = lzss_decode(compressed, input.size(), p);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LzssSweep,
    ::testing::Combine(::testing::Values(16u, 64u, 256u, 4096u),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace hs::kernels
