// Tests for the canonical Huffman codec and its integration as the Dedup
// entropy stage (codec = kLzssHuffman).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "kernels/huffman.hpp"

namespace hs::kernels {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(HuffmanTest, RoundtripText) {
  auto input = bytes_of(
      "the quick brown fox jumps over the lazy dog again and again and "
      "again because entropy coding loves repeated letters");
  auto compressed = huffman_encode(input);
  auto back = huffman_decode(compressed, input.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input);
}

TEST(HuffmanTest, SkewedDataCompresses) {
  // 90% 'a': entropy ~0.7 bits/byte, so big wins even with the 128 B header.
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> input(20000);
  for (auto& b : input) {
    b = rng.chance(0.9) ? 'a' : static_cast<std::uint8_t>(rng.bounded(256));
  }
  auto compressed = huffman_encode(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
  auto back = huffman_decode(compressed, input.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
}

TEST(HuffmanTest, RoundtripEdgeCases) {
  for (const auto& input : std::vector<std::vector<std::uint8_t>>{
           {},                                   // empty
           {0x42},                               // one byte
           std::vector<std::uint8_t>(5000, 7),   // single symbol
           {0, 255},                             // two extremes
           random_bytes(4096, 9),                // uniform random
       }) {
    auto compressed = huffman_encode(input);
    auto back = huffman_decode(compressed, input.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), input);
  }
}

TEST(HuffmanTest, DecodeRejectsCorruption) {
  auto input = bytes_of("hello hello hello hello");
  auto compressed = huffman_encode(input);
  // Truncated header.
  std::vector<std::uint8_t> tiny(compressed.begin(), compressed.begin() + 10);
  EXPECT_EQ(huffman_decode(tiny, input.size()).status().code(),
            ErrorCode::kDataLoss);
  // Truncated payload.
  auto cut = compressed;
  cut.resize(cut.size() - 1);
  cut.resize(129);  // header + 1 byte
  EXPECT_FALSE(huffman_decode(cut, input.size()).ok());
  // A Kraft-violating table (every symbol claims a 1-bit code).
  std::vector<std::uint8_t> bogus(128 + 16, 0x11);
  EXPECT_EQ(huffman_decode(bogus, 4).status().code(), ErrorCode::kDataLoss);
}

TEST(HuffmanTest, DeclaredSizeIsNotReservedPastTheInput) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators bypass the heap counters";
#endif
  // A short stream declaring 4 GiB of output is truncated data; decoding
  // it must not reserve the declared size first.
  auto compressed = huffman_encode(bytes_of("short payload"));
  const std::uint64_t before = heap_alloc_bytes();
  EXPECT_EQ(huffman_decode(compressed, 0xFFFFFFFFu).status().code(),
            ErrorCode::kDataLoss);
  EXPECT_LT(heap_alloc_bytes() - before, 1u << 20);
}

TEST(HuffmanTest, CodeLengthsRespectKraftAndCap) {
  // Fibonacci-like frequencies force deep trees; lengths must stay <= 15
  // and satisfy Kraft.
  std::vector<std::uint64_t> freqs(256, 0);
  std::uint64_t a = 1, b = 1;
  for (int s = 0; s < 40; ++s) {
    freqs[static_cast<std::size_t>(s)] = a;
    std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  auto lengths = huffman_code_lengths(freqs);
  double kraft = 0;
  for (int s = 0; s < 256; ++s) {
    if (freqs[static_cast<std::size_t>(s)] > 0) {
      ASSERT_GT(lengths[static_cast<std::size_t>(s)], 0);
    }
    if (lengths[static_cast<std::size_t>(s)] > 0) {
      EXPECT_LE(lengths[static_cast<std::size_t>(s)], 15);
      kraft += std::pow(2.0, -static_cast<double>(
                                  lengths[static_cast<std::size_t>(s)]));
    }
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(HuffmanTest, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs(256, 0);
  freqs['a'] = 1000;
  freqs['b'] = 100;
  freqs['c'] = 10;
  freqs['d'] = 1;
  auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths['a'], lengths['b']);
  EXPECT_LE(lengths['b'], lengths['c']);
  EXPECT_LE(lengths['c'], lengths['d']);
}

}  // namespace
}  // namespace hs::kernels

namespace hs::dedup {
namespace {

TEST(DedupCodecTest, HuffmanCodecRoundtripsAndShrinksArchives) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kSourceLike;  // compressible text
  spec.bytes = 256 * 1024;
  auto input = datagen::generate(spec);

  DedupConfig lzss_only;
  lzss_only.batch_size = 64 * 1024;
  DedupConfig with_entropy = lzss_only;
  with_entropy.codec = DedupCodec::kLzssHuffman;

  auto plain = archive_sequential(input, lzss_only);
  auto entropy = archive_sequential(input, with_entropy);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(entropy.ok());

  // Per-block best-of: the entropy archive can never be larger, and on
  // compressible source text some blocks must actually choose it.
  EXPECT_LE(entropy.value().size(), plain.value().size());
  auto info = inspect(entropy.value());
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().entropy_blocks, 0u);

  for (const auto* archive : {&plain.value(), &entropy.value()}) {
    auto back = extract(*archive);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), input);
  }
}

TEST(DedupCodecTest, CodecRecordedInHeader) {
  DedupConfig cfg;
  cfg.codec = DedupCodec::kLzssHuffman;
  auto archive = archive_sequential(std::vector<std::uint8_t>(1000, 'x'), cfg);
  ASSERT_TRUE(archive.ok());
  // Byte 12 holds the codec id (after magic + version).
  EXPECT_EQ(archive.value()[12], 1);
  auto back = extract(archive.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 1000u);
}

TEST(DedupCodecTest, SparPipelineSupportsEntropyCodec) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 128 * 1024;
  auto input = datagen::generate(spec);
  DedupConfig cfg;
  cfg.batch_size = 32 * 1024;
  cfg.codec = DedupCodec::kLzssHuffman;
  auto seq = archive_sequential(input, cfg);
  auto spar = archive_spar_cpu(input, cfg, 3);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(spar.ok());
  EXPECT_EQ(seq.value(), spar.value());
  auto back = extract(spar.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
}

}  // namespace
}  // namespace hs::dedup
