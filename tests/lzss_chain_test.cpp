// Differential suite for the hash-chain LZSS match finder (DESIGN.md §4j):
// chain-mode streams must round-trip exactly at every SIMD level and be
// bit-identical across pipeline variants (inline encode vs batched
// find_matches_batch), and legacy mode must be untouched by the new
// machinery. Inputs sweep the shapes that stress a chain matcher: pure
// random (hash collisions only), highly repetitive (deep chains, max-length
// matches), corpus-shaped text, and every length 0..300 to hit the
// block-tail guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "kernels/lzss.hpp"
#include "kernels/simd/dispatch.hpp"

namespace hs::kernels {
namespace {

namespace simd = hs::kernels::simd;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kSse42, simd::Level::kAvx2}) {
    if (simd::supports(l)) levels.push_back(l);
  }
  return levels;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Mix of literal runs and copied back-references — compressible with
/// varied offsets/lengths, the adversarial middle ground between random
/// and constant.
std::vector<std::uint8_t> structured_bytes(std::size_t n,
                                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    if (out.size() > 8 && rng() % 3 != 0) {
      const std::size_t off = 1 + rng() % std::min<std::size_t>(
                                              out.size() - 1, 5000);
      std::size_t len = 3 + rng() % 40;
      for (std::size_t i = 0; i < len && out.size() < n; ++i) {
        out.push_back(out[out.size() - off]);
      }
    } else {
      std::size_t len = 1 + rng() % 12;
      for (std::size_t i = 0; i < len && out.size() < n; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
  return out;
}

LzssParams chain_params(std::uint32_t window = 4096,
                        std::uint32_t depth = 8) {
  LzssParams p;
  p.mode = LzssMode::kChain;
  p.window_size = window;
  p.chain_depth = depth;
  return p;
}

void expect_round_trip(std::span<const std::uint8_t> input,
                       const LzssParams& params, const std::string& label) {
  const std::vector<std::uint8_t> encoded = lzss_encode(input, params);
  auto decoded = lzss_decode(encoded, input.size(), params);
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), input.size()) << label;
  EXPECT_TRUE(std::equal(input.begin(), input.end(),
                         decoded.value().begin()))
      << label;
}

TEST(LzssChainTest, ModeNames) {
  EXPECT_EQ(lzss_mode_name(LzssMode::kLegacy), "legacy");
  EXPECT_EQ(lzss_mode_name(LzssMode::kChain), "chain");
  LzssMode m = LzssMode::kLegacy;
  EXPECT_TRUE(parse_lzss_mode("chain", m));
  EXPECT_EQ(m, LzssMode::kChain);
  EXPECT_TRUE(parse_lzss_mode("legacy", m));
  EXPECT_EQ(m, LzssMode::kLegacy);
  m = LzssMode::kChain;
  EXPECT_FALSE(parse_lzss_mode("brute", m));
  EXPECT_EQ(m, LzssMode::kChain);  // untouched on failure
  EXPECT_FALSE(parse_lzss_mode("", m));
}

TEST(LzssChainTest, ParamsValidation) {
  LzssParams p = chain_params();
  EXPECT_TRUE(p.valid());
  p.chain_depth = 0;
  EXPECT_FALSE(p.valid());
  p = chain_params(8192);  // exceeds the 12 offset bits
  EXPECT_FALSE(p.valid());
}

TEST(LzssChainTest, RoundTripAllLengths) {
  const simd::Level saved = simd::active_level();
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto rnd = random_bytes(n, 0x1000 + n);
    const auto rep = std::vector<std::uint8_t>(n, 0x41);
    expect_round_trip(rnd, chain_params(), "random n=" + std::to_string(n));
    expect_round_trip(rep, chain_params(), "const n=" + std::to_string(n));
  }
  simd::set_active_level(saved);
}

TEST(LzssChainTest, RoundTripFuzzAllLevelsBothModes) {
  const simd::Level saved = simd::active_level();
  for (simd::Level level : supported_levels()) {
    simd::set_active_level(level);
    const std::string lv(simd::level_name(level));
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const auto input = structured_bytes(40000 + 977 * seed, seed);
      for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
        for (std::uint32_t window : {256u, 4096u}) {
          LzssParams p = chain_params(window);
          p.mode = mode;
          expect_round_trip(input, p,
                            lv + " seed=" + std::to_string(seed) + " mode=" +
                                std::string(lzss_mode_name(mode)) +
                                " w=" + std::to_string(window));
        }
      }
    }
  }
  simd::set_active_level(saved);
}

// The purity contract: per-block inline encode and the whole-batch
// find_matches_batch + encode walk must produce the same bytes, in both
// modes — this is what makes every pipeline variant (CPU inline, simulated
// GPU FindMatch kernel) emit identical archives.
TEST(LzssChainTest, InlineMatchesBatchedFindMatches) {
  for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
    LzssParams p = chain_params();
    p.mode = mode;
    const auto input = structured_bytes(90000, 0xBA7C4);
    // Uneven block bounds, including a tiny tail block.
    std::vector<std::uint32_t> starts{0, 1777, 1800, 30000, 89997};
    std::vector<LzssMatch> matches;
    find_matches_batch(input, starts, p, matches);
    ASSERT_EQ(matches.size(), input.size());
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::size_t b = starts[k];
      const std::size_t e =
          k + 1 < starts.size() ? starts[k + 1] : input.size();
      const auto inline_bytes =
          lzss_encode(input, b, e, p);
      const auto walked =
          lzss_encode_from_matches(input, b, e, matches, p);
      EXPECT_EQ(inline_bytes, walked)
          << "mode " << lzss_mode_name(mode) << " block " << k;
    }
  }
}

// Chain mode with a depth large enough to see every window candidate still
// differs from legacy only in tie order — both must round-trip and both
// must compress repetitive data hard.
TEST(LzssChainTest, CompressionRatioSanity) {
  const auto input = datagen::generate(
      {datagen::CorpusKind::kSourceLike, 200000, 42});
  LzssParams legacy_params;  // the seed dedup config: window 256
  legacy_params.window_size = 256;
  const auto legacy = lzss_encode(input, legacy_params);
  const auto chain = lzss_encode(input, chain_params(4096, 2));
  // The tuned chain config (bigger window) must compress at least as well
  // as legacy's window-256 brute force, with a little slack for its
  // bounded depth.
  EXPECT_LT(static_cast<double>(chain.size()),
            static_cast<double>(legacy.size()) * 1.02)
      << "chain " << chain.size() << " vs legacy " << legacy.size();
  // And both decode.
  expect_round_trip(input, chain_params(4096, 2), "ratio-chain");
}

// PooledBuffer sink must emit the same bytes as the vector overload (the
// chain walk's RawBitWriter arena path is shared by both).
TEST(LzssChainTest, PooledSinkMatchesVector) {
  const auto input = structured_bytes(50000, 0x9);
  for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
    LzssParams p = chain_params();
    p.mode = mode;
    const auto expect = lzss_encode(input, 0, input.size(), p);
    PooledBuffer out;
    lzss_encode(input, 0, input.size(), p, out);
    ASSERT_EQ(out.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(out.data(), expect.data(), out.size()))
        << lzss_mode_name(mode);
  }
}

}  // namespace
}  // namespace hs::kernels
