// Tests for the Dedup application: stage correctness, container format
// (including corruption handling), cross-variant archive equivalence,
// end-to-end roundtrips on all three corpora, and Fig. 5 model shape.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/modeled.hpp"
#include "dedup/pipelines.hpp"
#include "dedup/stages.hpp"
#include "kernels/lzss.hpp"

namespace hs::dedup {
namespace {

DedupConfig test_config() {
  DedupConfig cfg;
  cfg.batch_size = 64 * 1024;
  cfg.rabin.min_block = 256;
  cfg.rabin.max_block = 8192;
  cfg.rabin.mask = 0x3FF;  // ~1 kB blocks
  cfg.lzss.window_size = 128;
  return cfg;
}

std::vector<std::uint8_t> test_input(std::size_t bytes = 300 * 1024) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = bytes;
  spec.seed = 123;
  return datagen::generate(spec);
}

// ---- stages -----------------------------------------------------------------------

TEST(StagesTest, FragmentationCoversInputExactly) {
  auto input = test_input();
  DedupConfig cfg = test_config();
  auto batches = fragment_input(input, cfg);
  ASSERT_GT(batches.size(), 1u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].index, i);
    EXPECT_LE(batches[i].data.size(), cfg.batch_size);
    total += batches[i].data.size();
    // Blocks tile the batch.
    std::uint32_t pos = 0;
    for (const BlockInfo& block : batches[i].blocks) {
      EXPECT_EQ(block.start, pos);
      pos += block.len;
    }
    EXPECT_EQ(pos, batches[i].data.size());
  }
  EXPECT_EQ(total, input.size());
}

TEST(StagesTest, HashMatchesDirectSha1) {
  auto input = test_input(64 * 1024);
  DedupConfig cfg = test_config();
  auto batches = fragment_input(input, cfg);
  Batch& batch = batches[0];
  hash_blocks(batch);
  const BlockInfo& block = batch.blocks[0];
  auto direct = kernels::Sha1::hash(std::span<const std::uint8_t>(
      batch.data.data() + block.start, block.len));
  EXPECT_EQ(block.digest, direct);
}

TEST(StagesTest, DupCacheAssignsStableIds) {
  DupCache cache;
  auto input = test_input();
  DedupConfig cfg = test_config();
  auto batches = fragment_input(input, cfg);
  std::uint64_t max_id = 0;
  std::uint64_t uniques = 0;
  for (Batch& batch : batches) {
    hash_blocks(batch);
    cache.check(batch);
    for (const BlockInfo& block : batch.blocks) {
      if (block.duplicate) {
        EXPECT_LT(block.global_id, uniques)
            << "duplicate must reference an earlier unique";
      } else {
        EXPECT_EQ(block.global_id, uniques);
        ++uniques;
      }
      max_id = std::max(max_id, block.global_id);
    }
  }
  EXPECT_EQ(cache.unique_count(), uniques);
  EXPECT_GT(uniques, 0u);
  EXPECT_LT(max_id, uniques);
}

TEST(StagesTest, ParsecLikeInputHasDuplicates) {
  DupCache cache;
  auto input = test_input();
  auto batches = fragment_input(input, test_config());
  std::uint64_t dups = 0, total = 0;
  for (Batch& batch : batches) {
    hash_blocks(batch);
    cache.check(batch);
    for (const BlockInfo& b : batch.blocks) {
      dups += b.duplicate ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(dups, total / 20);  // the corpus is built to contain duplicates
}

TEST(StagesTest, CompressFromMatchesEqualsDirect) {
  auto input = test_input(128 * 1024);
  DedupConfig cfg = test_config();
  auto batches = fragment_input(input, cfg);
  DupCache cache;
  for (Batch& batch : batches) {
    hash_blocks(batch);
    cache.check(batch);
  }
  Batch direct = batches[0];
  Batch via_gpu_path = batches[0];
  compress_blocks_cpu(direct, cfg);
  find_batch_matches(via_gpu_path, cfg);
  compress_blocks_from_matches(via_gpu_path, cfg);
  ASSERT_EQ(direct.blocks.size(), via_gpu_path.blocks.size());
  for (std::size_t k = 0; k < direct.blocks.size(); ++k) {
    EXPECT_EQ(direct.blocks[k].compressed, via_gpu_path.blocks[k].compressed)
        << "block " << k;
  }
}

TEST(StagesTest, CostAccountingIsPositiveAndConsistent) {
  auto input = test_input(64 * 1024);
  DedupConfig cfg = test_config();
  auto batches = fragment_input(input, cfg);
  Batch& b = batches[0];
  EXPECT_GT(batch_sha1_rounds(b), b.blocks.size());  // > 1 round per block
  EXPECT_GT(batch_match_cost(b, cfg), b.data.size());  // >= 1 unit per byte
  hash_blocks(b);
  DupCache cache;
  cache.check(b);
  compress_blocks_cpu(b, cfg);
  EXPECT_GT(batch_output_bytes(b), 0u);
}

// Parameterized fragmentation sweep: exact coverage for any batch size.
class FragmentSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FragmentSweep, BatchesAndBlocksTileTheInput) {
  auto input = test_input(150 * 1024 + 37);  // deliberately unaligned
  DedupConfig cfg = test_config();
  cfg.batch_size = GetParam();
  auto batches = fragment_input(input, cfg);
  std::size_t total = 0;
  for (const Batch& b : batches) {
    EXPECT_LE(b.data.size(), cfg.batch_size);
    std::uint32_t pos = 0;
    for (const BlockInfo& block : b.blocks) {
      EXPECT_EQ(block.start, pos);
      pos += block.len;
    }
    EXPECT_EQ(pos, b.data.size());
    total += b.data.size();
  }
  EXPECT_EQ(total, input.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, FragmentSweep,
                         ::testing::Values(4096u, 16384u, 65536u, 262144u,
                                           1048576u));

TEST(StagesTest, VariableFragmentationCoversInputWithVaryingBatches) {
  auto input = test_input(512 * 1024);
  DedupConfig cfg = test_config();
  cfg.batch_size = 64 * 1024;
  auto batches = fragment_input_variable(input, cfg);
  ASSERT_GT(batches.size(), 2u);
  std::size_t total = 0;
  std::size_t min_size = input.size(), max_size = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].index, i);
    total += batches[i].data.size();
    min_size = std::min(min_size, batches[i].data.size());
    max_size = std::max(max_size, batches[i].data.size());
  }
  EXPECT_EQ(total, input.size());
  // Content-defined boundaries: sizes genuinely vary.
  EXPECT_GT(max_size, min_size);
}

// ---- container ----------------------------------------------------------------------

TEST(ContainerTest, RoundtripSequential) {
  auto input = test_input();
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_LT(archive.value().size(), input.size());  // actually deduped+compressed
  auto back = extract(archive.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input);
}

// Regression: decoding past the container's 64 MB reserve cap used a
// self-range insert for duplicate blocks; once the output vector grew past
// its capped capacity mid-insert, the insert's own source iterators were
// formally invalidated (UB; it happens to survive on common library
// implementations, so the decoders now resize-then-copy by index). One
// repeated 64 KB pattern keeps compression cheap (everything past batch 0
// is duplicate references) while the duplicate self-copies carry the
// output well past the cap in both extract() and extract_parallel()'s
// assemble sink.
TEST(ContainerTest, ExtractBeyondPreallocCapStaysValid) {
  constexpr std::size_t kCap = std::size_t{64} << 20;  // container kMaxPrealloc
  const auto pattern = test_input(64 * 1024);
  std::vector<std::uint8_t> input;
  input.reserve(kCap + pattern.size());
  while (input.size() <= kCap) {
    input.insert(input.end(), pattern.begin(), pattern.end());
  }
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  ASSERT_LT(archive.value().size(), input.size() / 8);  // dedup kicked in

  auto back = extract(archive.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == input);

  auto par = extract_parallel(archive.value(), 4);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_TRUE(par.value() == input);
}

// A batch that declares 1 byte but holds references to an earlier 64 KiB
// block must fail before the output grows by a single reference: each
// reference is bounded by its batch in extract() and in extract_parallel()'s
// assemble sink alike.
TEST(ContainerTest, DuplicateReferencesAreBoundedByTheirBatch) {
  const std::vector<std::uint8_t> block = test_input(64 * 1024);
  const kernels::LzssParams lzss;
  const std::vector<std::uint8_t> payload = kernels::lzss_encode(block, lzss);
  const auto len = static_cast<std::uint32_t>(block.size());
  std::vector<std::uint8_t> archive;
  auto put = [&archive](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      archive.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (char c : std::string_view("HSDEDUP1")) archive.push_back(c);
  put(1, 4);             // version
  put(0, 4);             // codec: LZSS
  put(len + 1, 8);       // original size
  put(2, 8);             // batch count
  put(lzss.window_size, 4);
  put(lzss.min_match, 4);
  put(0, 8);             // batch 0: the unique block
  put(len, 4);
  put(1, 4);
  put(0, 1);
  put(len, 4);
  put(payload.size(), 4);
  archive.insert(archive.end(), payload.begin(), payload.end());
  put(1, 8);             // batch 1: declares 1 byte, holds 4 references
  put(1, 4);
  put(4, 4);
  for (int k = 0; k < 4; ++k) {
    put(1, 1);
    put(0, 8);
  }
  archive.insert(archive.end(), 20, 0);  // trailer, never reached

  auto expect_bounded = [](const Result<std::vector<std::uint8_t>>& r) {
    EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss);
    EXPECT_NE(r.status().message().find("unique block exceeds its batch size"),
              std::string::npos)
        << r.status().ToString();
  };
  expect_bounded(extract(archive));
  expect_bounded(extract_parallel(archive, 2));
}

// One batch and one unique block that each declare 2^32 - 1 bytes, with no
// payload: extraction fails on the missing payload without reserving the
// declared size first.
TEST(ContainerTest, DeclaredBlockLengthIsNotReserved) {
  const kernels::LzssParams lzss;
  std::vector<std::uint8_t> archive;
  for (char c : std::string_view("HSDEDUP1")) archive.push_back(c);
  put_u32(archive, 1);            // version
  put_u32(archive, 0);            // codec: LZSS
  put_u64(archive, 0);            // original size
  put_u64(archive, 1);            // batch count
  put_u32(archive, lzss.window_size);
  put_u32(archive, lzss.min_match);
  put_u64(archive, 0);            // batch 0
  put_u32(archive, 0xFFFFFFFFu);  // original_len
  put_u32(archive, 1);            // block count
  archive.push_back(0);           // unique block
  put_u32(archive, 0xFFFFFFFFu);  // raw_len
  put_u32(archive, 0);            // comp_len: no payload
  [[maybe_unused]] const std::uint64_t before = heap_alloc_bytes();
  EXPECT_EQ(extract(archive).status().code(), ErrorCode::kDataLoss);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // Sanitizer allocators bypass the heap counters.
  EXPECT_LT(heap_alloc_bytes() - before, 1u << 20);
#endif
}

TEST(ContainerTest, InspectCountsBlocks) {
  auto input = test_input();
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  auto info = inspect(archive.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().original_size, input.size());
  EXPECT_GT(info.value().unique_blocks, 0u);
  EXPECT_GT(info.value().duplicate_blocks, 0u);
  EXPECT_GT(info.value().compressed_payload_bytes, 0u);
}

TEST(ContainerTest, CorruptionIsDetected) {
  auto input = test_input(100 * 1024);
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());

  {  // bad magic
    auto bad = archive.value();
    bad[0] ^= 0xFF;
    EXPECT_EQ(extract(bad).status().code(), ErrorCode::kDataLoss);
  }
  {  // truncated
    auto bad = archive.value();
    bad.resize(bad.size() / 2);
    EXPECT_FALSE(extract(bad).ok());
  }
  {  // flipped payload byte: either LZSS structure or SHA-1 must catch it
    auto bad = archive.value();
    bad[bad.size() / 2] ^= 0x01;
    EXPECT_FALSE(extract(bad).ok());
  }
  {  // missing trailer
    auto bad = archive.value();
    bad.resize(bad.size() - 10);
    EXPECT_FALSE(extract(bad).ok());
  }
}

// Deterministic byte-flip / truncation fuzzing: a corrupted archive must
// either fail with a corruption code (DATA_LOSS / OUT_OF_RANGE) or — when
// the flipped byte is dead padding the decoder never reads — extract to
// the bit-exact original payload. It must never crash, hang, or silently
// return different bytes.
TEST(ContainerTest, ByteFlipFuzzNeverCrashesOrCorrupts) {
  auto input = test_input(40 * 1024);
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  const std::vector<std::uint8_t>& good = archive.value();

  auto check = [&](const std::vector<std::uint8_t>& bad, std::size_t pos) {
    auto result = extract(bad);
    if (result.ok()) {
      EXPECT_EQ(result.value(), input) << "silent corruption at byte " << pos;
    } else {
      ErrorCode code = result.status().code();
      EXPECT_TRUE(code == ErrorCode::kDataLoss ||
                  code == ErrorCode::kOutOfRange)
          << "byte " << pos << ": " << result.status().ToString();
    }
  };

  // Exhaustive over the header region (magic, version, codec, sizes, LZSS
  // parameters): every bit of the first 40 bytes.
  for (std::size_t pos = 0; pos < std::min<std::size_t>(40, good.size());
       ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = good;
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      check(bad, pos);
    }
  }

  // Seeded single-bit flips across the whole archive body.
  Xoshiro256 rng(2026);
  for (int it = 0; it < 1500; ++it) {
    auto bad = good;
    std::size_t pos = rng.bounded(bad.size());
    bad[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    check(bad, pos);
  }

  // Truncations at every stride-97 prefix length.
  for (std::size_t len = 0; len < good.size(); len += 97) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<long>(len));
    check(bad, len);
  }
}

TEST(ContainerTest, WriterEnforcesOrder) {
  DedupConfig cfg = test_config();
  ArchiveWriter writer(cfg);
  Batch batch;
  batch.index = 1;  // skipped 0
  EXPECT_EQ(writer.append(batch).code(), ErrorCode::kFailedPrecondition);
}

TEST(ContainerTest, EmptyInputRoundtrip) {
  DedupConfig cfg = test_config();
  auto archive = archive_sequential({}, cfg);
  ASSERT_TRUE(archive.ok());
  auto back = extract(archive.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

// ---- cross-variant equivalence ---------------------------------------------------------

class VariantEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = test_input(200 * 1024);
    cfg_ = test_config();
    auto ref = archive_sequential(input_, cfg_);
    ASSERT_TRUE(ref.ok());
    reference_ = std::move(ref).value();
  }
  std::vector<std::uint8_t> input_;
  DedupConfig cfg_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(VariantEquivalenceTest, SparCpuMatches) {
  auto r = archive_spar_cpu(input_, cfg_, 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
}

TEST_F(VariantEquivalenceTest, SparCpuAsymmetricFarmsMatch) {
  SparCpuOptions opts;
  opts.workers_hash = 3;
  opts.workers_compress = 2;
  auto r = archive_spar_cpu(input_, cfg_, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
}

TEST_F(VariantEquivalenceTest, SparCpuPinnedMatches) {
  SparCpuOptions opts;
  opts.workers_hash = 2;
  opts.workers_compress = 2;
  opts.pin = true;
  auto r = archive_spar_cpu(input_, cfg_, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
}

TEST_F(VariantEquivalenceTest, SparCudaMatches) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  auto r = archive_spar_cuda(input_, cfg_, 4, *machine);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  std::uint64_t launches = machine->device(0).counters().kernels_launched +
                           machine->device(1).counters().kernels_launched;
  // Two kernels (hash + FindMatch) per batch.
  EXPECT_EQ(launches, 2 * ((input_.size() + cfg_.batch_size - 1) /
                           cfg_.batch_size));
}

TEST_F(VariantEquivalenceTest, OpenClSingleThreadMatchesBothKernelForms) {
  for (bool batched : {true, false}) {
    auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
    auto r = archive_opencl_single_thread(input_, cfg_, *machine, batched);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), reference_) << "batched=" << batched;
  }
}

TEST_F(VariantEquivalenceTest, PerBlockKernelsLaunchFarMore) {
  auto m1 = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  auto m2 = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  ASSERT_TRUE(archive_opencl_single_thread(input_, cfg_, *m1, true).ok());
  ASSERT_TRUE(archive_opencl_single_thread(input_, cfg_, *m2, false).ok());
  EXPECT_GT(m2->device(0).counters().kernels_launched,
            5 * m1->device(0).counters().kernels_launched);
}

// ---- roundtrip across all corpora --------------------------------------------------------

class CorpusRoundtrip
    : public ::testing::TestWithParam<datagen::CorpusKind> {};

TEST_P(CorpusRoundtrip, SequentialArchiveExtracts) {
  datagen::CorpusSpec spec;
  spec.kind = GetParam();
  spec.bytes = 256 * 1024;
  auto input = datagen::generate(spec);
  DedupConfig cfg = test_config();
  auto archive = archive_sequential(input, cfg);
  ASSERT_TRUE(archive.ok());
  auto back = extract(archive.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input);
}

INSTANTIATE_TEST_SUITE_P(AllCorpora, CorpusRoundtrip,
                         ::testing::Values(datagen::CorpusKind::kParsecLike,
                                           datagen::CorpusKind::kSourceLike,
                                           datagen::CorpusKind::kSilesiaLike));

// ---- Fig. 5 model shape --------------------------------------------------------------------

class Fig5ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusSpec spec;
    spec.kind = datagen::CorpusKind::kParsecLike;
    spec.bytes = 1024 * 1024;
    auto input = datagen::generate(spec);
    DedupConfig cfg = test_config();
    cfg.batch_size = 128 * 1024;
    trace_ = new DedupTrace(build_trace(input, cfg));
    cfg_ = new Fig5Config();
    cfg_->dedup = cfg;
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete cfg_;
  }
  static DedupTrace* trace_;
  static Fig5Config* cfg_;
};

DedupTrace* Fig5ModelTest::trace_ = nullptr;
Fig5Config* Fig5ModelTest::cfg_ = nullptr;

TEST_F(Fig5ModelTest, TraceAccounting) {
  EXPECT_EQ(trace_->input_bytes, 1024u * 1024u);
  EXPECT_EQ(trace_->batches.size(), 8u);
  EXPECT_GT(trace_->unique_blocks, 0u);
  EXPECT_GT(trace_->duplicate_blocks, 0u);
  EXPECT_GT(trace_->output_bytes, 0u);
  EXPECT_LT(trace_->output_bytes, trace_->input_bytes);
}

TEST_F(Fig5ModelTest, BatchedKernelIsTheBigWin) {
  // The paper's central Dedup finding: without the single batched
  // FindMatch kernel, GPU performance is "very poor".
  Fig5Config batched = *cfg_;
  Fig5Config per_block = *cfg_;
  per_block.batched_kernel = false;
  auto fast = run_fig5(*trace_, batched, Fig5Backend::kSparCuda);
  auto slow = run_fig5(*trace_, per_block, Fig5Backend::kSparCuda);
  EXPECT_GT(fast.throughput_mb_s, 1.5 * slow.throughput_mb_s);
  EXPECT_GT(slow.kernel_launches, fast.kernel_launches);
}

TEST_F(Fig5ModelTest, SparCudaBeatsCpuAndSingleThread) {
  auto spar_cuda = run_fig5(*trace_, *cfg_, Fig5Backend::kSparCuda);
  auto spar_cpu = run_fig5(*trace_, *cfg_, Fig5Backend::kSparCpu);
  auto cuda_1t = run_fig5(*trace_, *cfg_, Fig5Backend::kCudaSingle);
  auto seq = run_fig5(*trace_, *cfg_, Fig5Backend::kSequential);
  EXPECT_GT(spar_cuda.throughput_mb_s, spar_cpu.throughput_mb_s);
  EXPECT_GT(spar_cuda.throughput_mb_s, cuda_1t.throughput_mb_s);
  EXPECT_GT(spar_cpu.throughput_mb_s, seq.throughput_mb_s);
}

TEST_F(Fig5ModelTest, TwoMemSpacesHelpOpenClNotCuda) {
  // §V-B: "the optimization of 2x memory space version increased
  // performance for OpenCL. However, it was not the case for CUDA."
  Fig5Config one = *cfg_;
  Fig5Config two = *cfg_;
  two.mem_spaces = 2;
  auto ocl1 = run_fig5(*trace_, one, Fig5Backend::kOclSingle);
  auto ocl2 = run_fig5(*trace_, two, Fig5Backend::kOclSingle);
  auto cuda1 = run_fig5(*trace_, one, Fig5Backend::kCudaSingle);
  auto cuda2 = run_fig5(*trace_, two, Fig5Backend::kCudaSingle);
  EXPECT_GT(ocl2.throughput_mb_s, ocl1.throughput_mb_s * 1.02);
  EXPECT_LT(std::abs(cuda2.throughput_mb_s - cuda1.throughput_mb_s),
            cuda1.throughput_mb_s * 0.05);
}

TEST_F(Fig5ModelTest, VariableBatchesAreSlower) {
  // DESIGN.md §4.3: the paper refactored to fixed-size batches; the
  // original content-defined batch boundaries must model slower.
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 2 * 1024 * 1024;
  auto input = datagen::generate(spec);
  DedupConfig dcfg = cfg_->dedup;
  auto fixed = build_trace(input, dcfg, false);
  auto variable = build_trace(input, dcfg, true);
  auto r_fixed = run_fig5(fixed, *cfg_, Fig5Backend::kSparCuda);
  auto r_var = run_fig5(variable, *cfg_, Fig5Backend::kSparCuda);
  EXPECT_GT(r_fixed.throughput_mb_s, r_var.throughput_mb_s);
}

TEST_F(Fig5ModelTest, LabelsDescribeVariants) {
  Fig5Config c = *cfg_;
  c.mem_spaces = 2;
  c.devices = 2;
  auto r = run_fig5(*trace_, c, Fig5Backend::kSparOcl);
  EXPECT_EQ(r.label, "spar+opencl 2x-mem 2gpu");
  c.batched_kernel = false;
  auto r2 = run_fig5(*trace_, c, Fig5Backend::kCudaSingle);
  EXPECT_NE(r2.label.find("per-block-kernels"), std::string::npos);
}

// ---- golden pins ----------------------------------------------------------------

// Every Fig. 5 variant on a 512 KiB trace, pinned bit for bit: modeled
// seconds and throughput as hexfloats plus kernel launches. A change to any
// modeled schedule fails here with the replacement row in the message.
struct Fig5Pin {
  const char* name;
  double modeled_seconds;
  double throughput_mb_s;
  std::uint64_t kernel_launches;
};

constexpr Fig5Pin kFig5Pins[] = {
    {"sequential", 0x1.2bf204c68c8c8p-4,
     0x1.ca369857c1202p+2, 0},
    {"spar-cpu", 0x1.013729860cff2p-5,
     0x1.0b2abdc911401p+4, 0},
    {"cuda-1thread batched m1 d1 static", 0x1.c13f1caf4012ep-9,
     0x1.31eea0d506d4fp+7, 16},
    {"cuda-1thread batched m2 d1 static", 0x1.c13f1caf4012fp-9,
     0x1.31eea0d506d4ep+7, 16},
    {"cuda-1thread per-block m1 d1 static", 0x1.9136425bad50ap-7,
     0x1.568f39823da5fp+5, 425},
    {"cuda-1thread per-block m2 d1 static", 0x1.9136425bad508p-7,
     0x1.568f39823da61p+5, 425},
    {"opencl-1thread batched m1 d1 static", 0x1.c357fba356d09p-9,
     0x1.3082b93d7d42ep+7, 16},
    {"opencl-1thread batched m2 d1 static", 0x1.0e8fc704d2169p-9,
     0x1.fbf9fcb7a3ebap+7, 16},
    {"opencl-1thread per-block m1 d1 static", 0x1.91bc7a18b3001p-7,
     0x1.561cc70c07b81p+5, 425},
    {"opencl-1thread per-block m2 d1 static", 0x1.4895f797a2dfbp-7,
     0x1.a2462f608a5cfp+5, 425},
    {"spar+cuda batched m1 d1 static", 0x1.abb686abc86c4p-10,
     0x1.4155a3c52961ap+8, 16},
    {"spar+cuda batched m1 d1 adaptive", 0x1.abb686abc86c4p-10,
     0x1.4155a3c52961ap+8, 16},
    {"spar+cuda batched m1 d2 static", 0x1.24ad1cec1e0b4p-10,
     0x1.d5980666486dbp+8, 16},
    {"spar+cuda batched m1 d2 adaptive", 0x1.24ad1cec1e0b4p-10,
     0x1.d5980666486dbp+8, 16},
    {"spar+cuda batched m2 d1 static", 0x1.abb686abc86c4p-10,
     0x1.4155a3c52961ap+8, 16},
    {"spar+cuda batched m2 d1 adaptive", 0x1.abb686abc86c4p-10,
     0x1.4155a3c52961ap+8, 16},
    {"spar+cuda batched m2 d2 static", 0x1.24ad1cec1e0b4p-10,
     0x1.d5980666486dbp+8, 16},
    {"spar+cuda batched m2 d2 adaptive", 0x1.5c20c74e88c85p-10,
     0x1.8acb54d31a18ap+8, 16},
    {"spar+cuda per-block m1 d1 static", 0x1.8395a7e68aa3fp-7,
     0x1.629a8fea0bb2ep+5, 425},
    {"spar+cuda per-block m1 d1 adaptive", 0x1.8395a7e68aa3fp-7,
     0x1.629a8fea0bb2ep+5, 425},
    {"spar+cuda per-block m1 d2 static", 0x1.f33e03136120ap-8,
     0x1.134b8d548a43bp+6, 425},
    {"spar+cuda per-block m1 d2 adaptive", 0x1.fe6bb2951f7abp-8,
     0x1.0d441a7f3a667p+6, 425},
    {"spar+cuda per-block m2 d1 static", 0x1.8395a7e68aa3fp-7,
     0x1.629a8fea0bb2ep+5, 425},
    {"spar+cuda per-block m2 d1 adaptive", 0x1.8395a7e68aa3fp-7,
     0x1.629a8fea0bb2ep+5, 425},
    {"spar+cuda per-block m2 d2 static", 0x1.f33e03136120ap-8,
     0x1.134b8d548a43bp+6, 425},
    {"spar+cuda per-block m2 d2 adaptive", 0x1.024696a8d43c3p-7,
     0x1.0a11f89a30442p+6, 425},
    {"spar+opencl batched m1 d1 static", 0x1.b06e7c50fb972p-10,
     0x1.3dd4051f95f1ap+8, 16},
    {"spar+opencl batched m1 d1 adaptive", 0x1.b06e7c50fb972p-10,
     0x1.3dd4051f95f1ap+8, 16},
    {"spar+opencl batched m1 d2 static", 0x1.27d26b5a4027dp-10,
     0x1.d099aa44996cfp+8, 16},
    {"spar+opencl batched m1 d2 adaptive", 0x1.27d26b5a4027dp-10,
     0x1.d099aa44996cfp+8, 16},
    {"spar+opencl batched m2 d1 static", 0x1.b06e7c50fb972p-10,
     0x1.3dd4051f95f1ap+8, 16},
    {"spar+opencl batched m2 d1 adaptive", 0x1.b06e7c50fb972p-10,
     0x1.3dd4051f95f1ap+8, 16},
    {"spar+opencl batched m2 d2 static", 0x1.27d26b5a4027dp-10,
     0x1.d099aa44996cfp+8, 16},
    {"spar+opencl batched m2 d2 adaptive", 0x1.5fcc4d79b0946p-10,
     0x1.86acfae73ff99p+8, 16},
    {"spar+opencl per-block m1 d1 static", 0x1.9efa883af3b1ap-7,
     0x1.4b31fbb0edd25p+5, 425},
    {"spar+opencl per-block m1 d1 adaptive", 0x1.9efa883af3b1ap-7,
     0x1.4b31fbb0edd25p+5, 425},
    {"spar+opencl per-block m1 d2 static", 0x1.0afcf7df0ce2ep-7,
     0x1.01634285a3504p+6, 425},
    {"spar+opencl per-block m1 d2 adaptive", 0x1.1109406551097p-7,
     0x1.f75f6ce1d73fbp+5, 425},
    {"spar+opencl per-block m2 d1 static", 0x1.9efa883af3b1ap-7,
     0x1.4b31fbb0edd25p+5, 425},
    {"spar+opencl per-block m2 d1 adaptive", 0x1.9efa883af3b1ap-7,
     0x1.4b31fbb0edd25p+5, 425},
    {"spar+opencl per-block m2 d2 static", 0x1.0afcf7df0ce2ep-7,
     0x1.01634285a3504p+6, 425},
    {"spar+opencl per-block m2 d2 adaptive", 0x1.142ac4bb363e3p-7,
     0x1.f1aa7dd6d65dep+5, 425},
};

struct Fig5Variant {
  std::string name;
  Fig5Config config;
  Fig5Backend backend;
};

std::vector<Fig5Variant> golden_variants() {
  Fig5Config base;
  base.dedup = test_config();
  base.replicas = 3;
  std::vector<Fig5Variant> out;
  for (Fig5Backend b : {Fig5Backend::kSequential, Fig5Backend::kSparCpu,
                        Fig5Backend::kCudaSingle, Fig5Backend::kOclSingle,
                        Fig5Backend::kSparCuda, Fig5Backend::kSparOcl}) {
    const std::string name(fig5_backend_name(b));
    if (b == Fig5Backend::kSequential || b == Fig5Backend::kSparCpu) {
      out.push_back({name, base, b});
      continue;
    }
    const bool farm =
        b == Fig5Backend::kSparCuda || b == Fig5Backend::kSparOcl;
    for (bool batched : {true, false}) {
      for (int spaces : {1, 2}) {
        for (int devices : {1, 2}) {
          for (auto mode :
               {sched::SchedMode::kStatic, sched::SchedMode::kAdaptive}) {
            // The single-thread drivers drive one GPU and ignore the sched.
            if (!farm && (devices > 1 || mode != sched::SchedMode::kStatic)) {
              continue;
            }
            Fig5Config c = base;
            c.batched_kernel = batched;
            c.mem_spaces = spaces;
            c.devices = devices;
            c.sched = mode;
            out.push_back({name + (batched ? " batched" : " per-block") +
                               " m" + std::to_string(spaces) + " d" +
                               std::to_string(devices) + " " +
                               sched::to_string(mode),
                           c, b});
          }
        }
      }
    }
  }
  return out;
}

TEST(Fig5GoldenTest, EveryVariantMatchesItsPin) {
  const DedupTrace trace =
      build_trace(test_input(512 * 1024), test_config());
  const std::vector<Fig5Variant> variants = golden_variants();
  EXPECT_EQ(variants.size(), std::size(kFig5Pins));
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Fig5Result r =
        run_fig5(trace, variants[i].config, variants[i].backend);
    char row[256];
    std::snprintf(row, sizeof row, "    {\"%s\", %a,\n     %a, %llu},",
                  variants[i].name.c_str(), r.modeled_seconds,
                  r.throughput_mb_s,
                  static_cast<unsigned long long>(r.kernel_launches));
    if (i >= std::size(kFig5Pins)) {
      ADD_FAILURE() << "unpinned variant:\n" << row;
      continue;
    }
    const Fig5Pin& pin = kFig5Pins[i];
    EXPECT_EQ(variants[i].name, pin.name) << row;
    EXPECT_EQ(r.modeled_seconds, pin.modeled_seconds) << row;
    EXPECT_EQ(r.throughput_mb_s, pin.throughput_mb_s) << row;
    EXPECT_EQ(r.kernel_launches, pin.kernel_launches) << row;
  }
}

}  // namespace
}  // namespace hs::dedup
