// Dispatch equivalence suite for the SIMD kernel engine (DESIGN.md §4g):
// every wide body must be bit-identical to the scalar reference — SHA-1
// digests, Rabin cut positions, LZSS matches and encoded streams — across
// all input lengths 0..512 plus large random/corpus-shaped buffers.
// Levels the host cannot execute are skipped (the dispatcher would clamp
// them to an already-covered level).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "kernels/lzss.hpp"
#include "kernels/rabin.hpp"
#include "kernels/sha1.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/lzss_match.hpp"
#include "kernels/simd/rabin_lanes.hpp"
#include "kernels/simd/sha1_mb.hpp"
#include "kernels/simd/sha1_ni.hpp"

namespace hs::kernels::simd {
namespace {

std::vector<Level> wide_levels() {
  std::vector<Level> levels;
  for (Level l : {Level::kSse42, Level::kAvx2}) {
    if (supports(l)) levels.push_back(l);
  }
  return levels;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  hs::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---- dispatch plumbing ---------------------------------------------------

TEST(SimdDispatchTest, LevelOrderingAndNames) {
  EXPECT_LT(Level::kScalar, Level::kSse42);
  EXPECT_LT(Level::kSse42, Level::kAvx2);
  EXPECT_EQ(level_name(Level::kScalar), "scalar");
  EXPECT_EQ(level_name(Level::kSse42), "sse42");
  EXPECT_EQ(level_name(Level::kAvx2), "avx2");
  Level l = Level::kScalar;
  EXPECT_TRUE(parse_level("avx2", l));
  EXPECT_EQ(l, Level::kAvx2);
  EXPECT_TRUE(parse_level("sse4.2", l));
  EXPECT_EQ(l, Level::kSse42);
  EXPECT_FALSE(parse_level("neon", l));
  EXPECT_EQ(l, Level::kSse42);  // untouched on failure
}

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndClampWorks) {
  EXPECT_TRUE(supports(Level::kScalar));
  EXPECT_LE(active_level(), best_supported());
  const Level prev = active_level();
  set_active_level(Level::kAvx2);  // clamped if unsupported
  EXPECT_LE(active_level(), best_supported());
  set_active_level(prev);
}

// ---- SHA-1 multi-buffer --------------------------------------------------

TEST(SimdSha1Test, AllLengths0To512MatchScalar) {
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    // One job per length, hashed in a single multi-buffer call so the
    // grouping logic sees heavily mixed block counts.
    std::vector<std::uint8_t> data = random_bytes(513, 0xABCD01);
    std::vector<Sha1Job> jobs;
    std::vector<Sha1Digest> got(513);
    for (std::size_t len = 0; len <= 512; ++len) {
      jobs.push_back({data.data(), len, &got[len]});
    }
    sha1_many_at(level, jobs.data(), jobs.size(), nullptr);
    for (std::size_t len = 0; len <= 512; ++len) {
      EXPECT_EQ(got[len], Sha1::hash(std::span(data.data(), len)))
          << "len=" << len;
    }
  }
}

TEST(SimdSha1Test, RandomizedJobMixesMatchScalar) {
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    hs::Xoshiro256 rng(0x5EED5);
    std::vector<std::uint8_t> data = random_bytes(1 << 20, 0xABCD02);
    Sha1Scratch scratch;
    for (int round = 0; round < 20; ++round) {
      const std::size_t count = 1 + rng() % 40;
      std::vector<Sha1Job> jobs;
      std::vector<Sha1Digest> got(count);
      for (std::size_t j = 0; j < count; ++j) {
        // Dedup-shaped lengths: a few bytes up to 64 KiB.
        const std::size_t len = rng() % (1u << (6 + rng() % 11));
        const std::size_t off = rng() % (data.size() - len);
        jobs.push_back({data.data() + off, len, &got[j]});
      }
      sha1_many_at(level, jobs.data(), count, &scratch);
      for (std::size_t j = 0; j < count; ++j) {
        EXPECT_EQ(got[j], Sha1::hash(std::span(jobs[j].data, jobs[j].len)));
      }
    }
  }
}

TEST(SimdSha1Test, LargeBuffersMatchScalar) {
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    std::vector<std::uint8_t> data = random_bytes(3 << 20, 0xABCD03);
    // 8 jobs spanning the buffer, megabyte-scale each.
    std::vector<Sha1Job> jobs;
    std::vector<Sha1Digest> got(8);
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t off = j * (data.size() / 8);
      const std::size_t len = data.size() / 8 + (j % 3) * 1000;
      jobs.push_back(
          {data.data() + off, std::min(len, data.size() - off), &got[j]});
    }
    sha1_many_at(level, jobs.data(), jobs.size(), nullptr);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(got[j], Sha1::hash(std::span(jobs[j].data, jobs[j].len)));
    }
  }
}

// ---- SHA-1 single-stream (SHA-NI) ----------------------------------------

// sha1_hash_ni must be bit-identical to the scalar context for every
// length — the sweep covers both padding shapes (one tail block for
// rem < 56, two otherwise) and every block-boundary straddle. When the
// host lacks the SHA extensions the function falls back to Sha1::hash and
// the test degenerates to a self-check, which is still worth running for
// the fallback plumbing.
TEST(SimdSha1Test, NiSingleStreamMatchesScalarAllLengths) {
  const std::vector<std::uint8_t> data = random_bytes(600, 0x5AA1);
  for (std::size_t len = 0; len <= 600; ++len) {
    const std::span<const std::uint8_t> msg(data.data(), len);
    EXPECT_EQ(sha1_hash_ni(msg), Sha1::hash(msg)) << "len " << len;
  }
}

TEST(SimdSha1Test, NiSingleStreamMatchesScalarLargeBuffers) {
  for (std::size_t len : {std::size_t{1} << 16, (std::size_t{1} << 20) + 37,
                          std::size_t{3} << 20}) {
    const auto data = random_bytes(len, 0xA1 + len);
    EXPECT_EQ(sha1_hash_ni(data), Sha1::hash(data)) << "len " << len;
  }
}

TEST(SimdSha1Test, FastPathHonorsForcedScalarLevel) {
  const auto data = random_bytes(100000, 0xFA57);
  const Level saved = active_level();
  const Sha1Digest want = Sha1::hash(data);
  for (Level level : {Level::kScalar, best_supported()}) {
    set_active_level(level);
    EXPECT_EQ(sha1_hash_fast(data), want)
        << "level " << level_name(level);
  }
  set_active_level(saved);
}

// ---- Rabin lanes ---------------------------------------------------------

void expect_same_cuts(Level level, const Rabin& rabin,
                      std::span<const std::uint8_t> data) {
  std::vector<std::uint32_t> want;
  rabin.chunk_boundaries_into(data, want);
  std::vector<std::uint32_t> got;
  rabin_boundaries_at(level, rabin, data, got, nullptr);
  ASSERT_EQ(got, want) << "n=" << data.size();
}

TEST(SimdRabinTest, AllLengths0To512MatchScalar) {
  const Rabin rabin({.window = 16, .min_block = 16, .max_block = 128,
                     .mask = 0xF, .magic = 0x7});
  std::vector<std::uint8_t> data = random_bytes(512, 0xABCD04);
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    for (std::size_t n = 0; n <= 512; ++n) {
      expect_same_cuts(level, rabin, std::span(data.data(), n));
    }
  }
}

TEST(SimdRabinTest, LargeBuffersMatchScalarDefaultParams) {
  const Rabin rabin({.mask = 0x7FF});  // dedup's golden config
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      std::vector<std::uint8_t> data = random_bytes(1 << 20, seed);
      expect_same_cuts(level, rabin, data);
    }
    // Corpus-shaped content exercises realistic cut densities.
    for (auto kind : {hs::datagen::CorpusKind::kParsecLike,
                      hs::datagen::CorpusKind::kSourceLike,
                      hs::datagen::CorpusKind::kSilesiaLike}) {
      auto data = hs::datagen::generate({kind, 2u << 20, 7});
      expect_same_cuts(level, rabin, data);
    }
  }
}

TEST(SimdRabinTest, MatchBitmapAgreesAcrossLevels) {
  const Rabin rabin({.mask = 0xFF});
  std::vector<std::uint8_t> data = random_bytes(300000, 0xABCD05);
  const std::size_t nwords = (data.size() + 63) / 64;
  // AVX2 is the only wide bitmap body; kSse42 runs the scalar walk.
  if (!supports(Level::kAvx2)) GTEST_SKIP() << "host lacks AVX2";
  std::vector<std::uint64_t> scalar_bits(nwords);
  rabin_match_bits_scalar(rabin, data, scalar_bits.data());
  std::vector<std::uint64_t> bits(nwords);
  rabin_match_bits_avx2(rabin, data, bits.data());
  EXPECT_EQ(bits, scalar_bits);
}

// Forced max_block cuts and runs with no content cut at all.
TEST(SimdRabinTest, UniformContentForcesMaxBlockCuts) {
  const Rabin rabin({.window = 16, .min_block = 64, .max_block = 256,
                     .mask = 0xFFFF, .magic = 0x1});
  std::vector<std::uint8_t> data(5000, 0x41);  // constant: no magic hits
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    expect_same_cuts(level, rabin, data);
  }
}

// ---- LZSS match + encoded streams ---------------------------------------

TEST(SimdLzssTest, AllPositionsAllLengths0To512MatchScalar) {
  LzssParams params;
  params.window_size = 64;
  // Low-entropy bytes so matches of many lengths and ties actually occur.
  hs::Xoshiro256 rng(0xABCD06);
  std::vector<std::uint8_t> data(513);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() % 7);
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    for (std::size_t n = 1; n <= 512; ++n) {
      for (std::size_t pos = 0; pos < n; ++pos) {
        const LzssMatch want =
            lzss_longest_match_scalar(std::span(data.data(), n), 0, n, pos,
                                      params);
        const LzssMatch got = lzss_longest_match_at(
            level, std::span(data.data(), n), 0, n, pos, params);
        ASSERT_TRUE(got.length == want.length && got.offset == want.offset)
            << "n=" << n << " pos=" << pos << " got=(" << got.length << ","
            << got.offset << ") want=(" << want.length << "," << want.offset
            << ")";
      }
    }
  }
}

TEST(SimdLzssTest, EncodedStreamsBitIdenticalOnCorpora) {
  LzssParams params;
  params.window_size = 256;  // dedup's config
  const Level prev = active_level();
  for (auto kind : {hs::datagen::CorpusKind::kParsecLike,
                    hs::datagen::CorpusKind::kSourceLike,
                    hs::datagen::CorpusKind::kSilesiaLike}) {
    auto data = hs::datagen::generate({kind, 1u << 20, 11});
    set_active_level(Level::kScalar);
    const auto want = lzss_encode(data, params);
    for (Level level : wide_levels()) {
      SCOPED_TRACE(std::string(level_name(level)));
      set_active_level(level);
      const auto got = lzss_encode(data, params);
      EXPECT_EQ(got, want);
    }
  }
  set_active_level(prev);
}

TEST(SimdLzssTest, BatchMatchesBitIdenticalWithBlockBounds) {
  LzssParams params;
  params.window_size = 256;
  auto data = hs::datagen::generate(
      {hs::datagen::CorpusKind::kSourceLike, 1u << 19, 3});
  const Rabin rabin({.mask = 0xFF});
  std::vector<std::uint32_t> starts;
  rabin.chunk_boundaries_into(data, starts);
  const Level prev = active_level();
  set_active_level(Level::kScalar);
  std::vector<LzssMatch> want;
  find_matches_batch(data, starts, params, want);
  for (Level level : wide_levels()) {
    SCOPED_TRACE(std::string(level_name(level)));
    set_active_level(level);
    std::vector<LzssMatch> got;
    find_matches_batch(data, starts, params, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].length == want[i].length &&
                  got[i].offset == want[i].offset)
          << "pos=" << i;
    }
  }
  set_active_level(prev);
}

}  // namespace
}  // namespace hs::kernels::simd
