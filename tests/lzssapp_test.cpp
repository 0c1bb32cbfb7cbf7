// Tests for the standalone streaming LZSS application ([24]'s structure):
// cross-variant container equivalence, roundtrips, corruption handling,
// and the parallel dedup extractor extension.
#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "common/bytes.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "lzssapp/lzss_stream.hpp"

namespace hs::lzssapp {
namespace {

std::vector<std::uint8_t> test_input() {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kSourceLike;
  spec.bytes = 300 * 1024;
  spec.seed = 77;
  return datagen::generate(spec);
}

LzssStreamConfig test_config() {
  LzssStreamConfig cfg;
  cfg.block_size = 32 * 1024;
  cfg.lzss.window_size = 128;
  return cfg;
}

TEST(LzssStreamTest, SequentialRoundtrip) {
  auto input = test_input();
  auto archive = compress_sequential(input, test_config());
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_LT(archive.value().size(), input.size());  // source text compresses
  auto back = decompress(archive.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input);
}

TEST(LzssStreamTest, SparMatchesSequential) {
  auto input = test_input();
  auto seq = compress_sequential(input, test_config());
  auto spar = compress_spar(input, test_config(), 4);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(spar.ok()) << spar.status().ToString();
  EXPECT_EQ(seq.value(), spar.value());
}

TEST(LzssStreamTest, SparCudaMatchesSequential) {
  auto input = test_input();
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  auto seq = compress_sequential(input, test_config());
  auto gpu = compress_spar_cuda(input, test_config(), 3, *machine);
  cudax::unbind_machine();
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(gpu.ok()) << gpu.status().ToString();
  EXPECT_EQ(seq.value(), gpu.value());
  // One FindMatch kernel per block.
  std::uint64_t launches = machine->device(0).counters().kernels_launched +
                           machine->device(1).counters().kernels_launched;
  EXPECT_EQ(launches, (input.size() + 32 * 1024 - 1) / (32 * 1024));
}

TEST(LzssStreamTest, InspectReportsStructure) {
  auto input = test_input();
  auto archive = compress_sequential(input, test_config());
  ASSERT_TRUE(archive.ok());
  auto info = inspect(archive.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().original_size, input.size());
  EXPECT_EQ(info.value().block_count,
            (input.size() + 32 * 1024 - 1) / (32 * 1024));
  EXPECT_GT(info.value().compressed_payload, 0u);
}

TEST(LzssStreamTest, CorruptionDetected) {
  auto input = test_input();
  auto archive = compress_sequential(input, test_config());
  ASSERT_TRUE(archive.ok());
  {
    auto bad = archive.value();
    bad[3] ^= 0xFF;  // magic
    EXPECT_EQ(decompress(bad).status().code(), ErrorCode::kDataLoss);
  }
  {
    auto bad = archive.value();
    bad.resize(bad.size() / 3);
    EXPECT_FALSE(decompress(bad).ok());
  }
  {
    auto bad = archive.value();
    bad[bad.size() / 2] ^= 0x10;
    EXPECT_FALSE(decompress(bad).ok());
  }
}

TEST(LzssStreamTest, UntrustedOriginalSizeIsNotReserved) {
  // A 56-byte container whose header declares 2^62 original bytes must be
  // rejected as corrupt, not reserved (std::bad_alloc).
  auto archive = compress_sequential({}, test_config());
  ASSERT_TRUE(archive.ok());
  std::vector<std::uint8_t> bad = archive.value();
  ASSERT_EQ(bad.size(), 56u);
  constexpr std::size_t kOriginalSizeAt = 8 + 4 + 4 + 4;
  patch_u64(bad, kOriginalSizeAt, std::uint64_t{1} << 62);
  ErrorCode code = ErrorCode::kOk;
  EXPECT_NO_THROW(code = decompress(bad).status().code());
  EXPECT_EQ(code, ErrorCode::kDataLoss);
}

TEST(LzssStreamTest, UntrustedBlockLengthIsNotReserved) {
  // A 44-byte container: the header, then one block declaring 2^32 - 1
  // raw bytes and carrying no payload.
  auto archive = compress_sequential({}, test_config());
  ASSERT_TRUE(archive.ok());
  constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 8 + 8;
  std::vector<std::uint8_t> bad(archive.value().begin(),
                                archive.value().begin() + kHeaderBytes);
  patch_u64(bad, kHeaderBytes - 8, 1);  // block count
  put_u32(bad, 0xFFFFFFFFu);            // raw_len
  put_u32(bad, 0);                      // comp_len
  ASSERT_EQ(bad.size(), 44u);
  [[maybe_unused]] const std::uint64_t before = heap_alloc_bytes();
  ErrorCode code = ErrorCode::kOk;
  EXPECT_NO_THROW(code = decompress(bad).status().code());
  EXPECT_EQ(code, ErrorCode::kDataLoss);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitizer allocators bypass the heap counters.
  EXPECT_LT(heap_alloc_bytes() - before, 1u << 20);
#endif
}

TEST(LzssStreamTest, EmptyInput) {
  auto archive = compress_sequential({}, test_config());
  ASSERT_TRUE(archive.ok());
  auto back = decompress(archive.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(LzssStreamTest, InvalidConfigRejected) {
  LzssStreamConfig cfg;
  cfg.lzss.window_size = 1 << 14;  // exceeds offset bits
  EXPECT_FALSE(compress_sequential(test_input(), cfg).ok());
}

}  // namespace
}  // namespace hs::lzssapp

namespace hs::dedup {
namespace {

TEST(ParallelExtractTest, MatchesSerialExtract) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 400 * 1024;
  auto input = datagen::generate(spec);
  DedupConfig cfg;
  cfg.batch_size = 64 * 1024;
  for (DedupCodec codec : {DedupCodec::kLzss, DedupCodec::kLzssHuffman}) {
    cfg.codec = codec;
    auto archive = archive_sequential(input, cfg);
    ASSERT_TRUE(archive.ok());
    auto serial = extract(archive.value());
    auto parallel = extract_parallel(archive.value(), 4);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel.value(), serial.value());
    EXPECT_EQ(parallel.value(), input);
  }
}

TEST(ParallelExtractTest, CorruptArchivesFailCleanly) {
  datagen::CorpusSpec spec;
  spec.bytes = 100 * 1024;
  auto input = datagen::generate(spec);
  DedupConfig cfg;
  cfg.batch_size = 32 * 1024;
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  auto bad = archive.value();
  bad[bad.size() / 2] ^= 0x04;
  auto r = extract_parallel(bad, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss);
}

TEST(ParallelExtractTest, SingleReplicaWorks) {
  std::vector<std::uint8_t> input(50000, 'q');
  DedupConfig cfg;
  cfg.batch_size = 8 * 1024;
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  auto r = extract_parallel(archive.value(), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), input);
}

}  // namespace
}  // namespace hs::dedup
