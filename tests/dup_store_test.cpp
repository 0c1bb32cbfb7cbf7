// Persistent sharded DupStore suite (DESIGN.md §4j): archive-local check()
// semantics (exact DupCache behaviour), concurrent record/lookup/spill from
// many threads (run under TSan in CI), segment spill + recovery-on-open
// including truncation and bit-rot quarantine, and the restart-equivalence
// contract: archives produced against a recovered store are byte-identical
// to the first run's.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "dedup/dup_store.hpp"
#include "dedup/pipelines.hpp"
#include "dedup/stages.hpp"
#include "kernels/sha1.hpp"

namespace hs::dedup {
namespace {

namespace fs = std::filesystem;

kernels::Sha1Digest digest_of(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return kernels::Sha1::hash(std::span<const std::uint8_t>(bytes, 8));
}

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("dup_store_test_" + tag + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

TEST(DupStoreTest, CheckAssignsStreamOrderIds) {
  DupStore store;
  Batch batch;
  batch.blocks.resize(4);
  batch.blocks[0].digest = digest_of(1);
  batch.blocks[1].digest = digest_of(2);
  batch.blocks[2].digest = digest_of(1);  // dup of block 0
  batch.blocks[3].digest = digest_of(3);
  store.check(batch);
  EXPECT_FALSE(batch.blocks[0].duplicate);
  EXPECT_EQ(batch.blocks[0].global_id, 0u);
  EXPECT_FALSE(batch.blocks[1].duplicate);
  EXPECT_EQ(batch.blocks[1].global_id, 1u);
  EXPECT_TRUE(batch.blocks[2].duplicate);
  EXPECT_EQ(batch.blocks[2].global_id, 0u);
  EXPECT_FALSE(batch.blocks[3].duplicate);
  EXPECT_EQ(batch.blocks[3].global_id, 2u);
  EXPECT_EQ(store.unique_count(), 3u);
}

TEST(DupStoreTest, RecordAndLookupInMemory) {
  DupStore store;
  bool present = true;
  const std::uint64_t id_a = store.record(digest_of(7), &present);
  EXPECT_FALSE(present);
  const std::uint64_t id_b = store.record(digest_of(8), &present);
  EXPECT_FALSE(present);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(store.record(digest_of(7), &present), id_a);
  EXPECT_TRUE(present);
  std::uint64_t id = 0;
  EXPECT_TRUE(store.lookup(digest_of(8), &id));
  EXPECT_EQ(id, id_b);
  EXPECT_FALSE(store.lookup(digest_of(9), &id));
  const DupStore::Stats s = store.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.store_hits, 1u);
  EXPECT_EQ(s.store_misses, 2u);
  // No directory attached: spill is a no-op, not an error.
  EXPECT_TRUE(store.spill().ok());
  EXPECT_EQ(store.stats().spills, 0u);
}

TEST(DupStoreTest, SpillAndRecover) {
  TempDir dir("spill");
  constexpr std::uint64_t kCount = 1000;
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    for (std::uint64_t i = 0; i < kCount; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
    // Second spill with nothing new pending: no extra segment.
    ASSERT_TRUE(store.spill().ok());
    EXPECT_EQ(store.stats().spills, 1u);
    EXPECT_EQ(store.stats().pending_entries, 0u);
  }
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  const DupStore::Stats s = recovered.stats();
  EXPECT_EQ(s.entries, kCount);
  EXPECT_EQ(s.entries_recovered, kCount);
  EXPECT_EQ(s.segments_loaded, 1u);
  EXPECT_EQ(s.truncated_segments, 0u);
  EXPECT_EQ(s.quarantined_segments, 0u);
  // Every digest resolves to the id it was assigned pre-restart, and
  // re-recording counts as a hit, not an insert.
  bool present = false;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::uint64_t id = 0;
    ASSERT_TRUE(recovered.lookup(digest_of(i), &id));
    recovered.record(digest_of(i), &present);
    EXPECT_TRUE(present);
  }
  EXPECT_EQ(recovered.stats().store_misses, 0u);
  // New ids resume above every recovered one.
  const std::uint64_t fresh = recovered.record(digest_of(kCount + 5), nullptr);
  EXPECT_GE(fresh, kCount);
}

TEST(DupStoreTest, MultipleSegmentsAccumulate) {
  TempDir dir("multi");
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    for (std::uint64_t i = 0; i < 100; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
    for (std::uint64_t i = 100; i < 250; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
  }
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  EXPECT_EQ(recovered.stats().segments_loaded, 2u);
  EXPECT_EQ(recovered.stats().entries, 250u);
  // A post-recovery spill must not clobber an existing segment index.
  recovered.record(digest_of(9999), nullptr);
  ASSERT_TRUE(recovered.spill().ok());
  DupStore again;
  ASSERT_TRUE(again.open(dir.path).ok());
  EXPECT_EQ(again.stats().segments_loaded, 3u);
  EXPECT_EQ(again.stats().entries, 251u);
}

TEST(DupStoreTest, TruncatedSegmentRecoversPrefix) {
  TempDir dir("trunc");
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    for (std::uint64_t i = 0; i < 500; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
  }
  const fs::path seg = fs::path(dir.path) / "segment-000000.dup";
  ASSERT_TRUE(fs::exists(seg));
  // Chop the file mid-entry: header + 123 whole entries + 7 stray bytes.
  const std::uintmax_t keep =
      DupStore::kHeaderBytes + 123 * DupStore::kEntryBytes + 7;
  fs::resize_file(seg, keep);
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  const DupStore::Stats s = recovered.stats();
  EXPECT_EQ(s.truncated_segments, 1u);
  EXPECT_EQ(s.quarantined_segments, 0u);
  EXPECT_EQ(s.entries, 123u);
}

TEST(DupStoreTest, BitFlipQuarantinesSegment) {
  TempDir dir("rot");
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    for (std::uint64_t i = 0; i < 64; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
  }
  const std::string seg =
      (fs::path(dir.path) / "segment-000000.dup").string();
  // Flip one payload bit; the trailer SHA-1 must catch it.
  std::FILE* f = std::fopen(seg.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(DupStore::kHeaderBytes + 10), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  const DupStore::Stats s = recovered.stats();
  EXPECT_EQ(s.quarantined_segments, 1u);
  EXPECT_EQ(s.entries, 0u);
  // The quarantined file is left in place for forensics, not deleted.
  EXPECT_TRUE(fs::exists(seg));
}

TEST(DupStoreTest, OverflowingEntryCountIsAShortSegment) {
  // Header and trailer only, declaring 2^62 entries: 2^62 * 28 bytes wraps
  // to 0, so a size computed by multiplication would call this 44-byte
  // file full-length, validate its trailer and walk 2^62 entries.
  TempDir dir("wrap");
  fs::create_directories(dir.path);
  std::vector<std::uint8_t> seg(DupStore::kSegmentMagic,
                                DupStore::kSegmentMagic + 8);
  put_u32(seg, DupStore::kSegmentVersion);
  put_u32(seg, 0);
  put_u64(seg, std::uint64_t{1} << 62);
  const kernels::Sha1Digest trailer = kernels::Sha1::hash(seg);
  seg.insert(seg.end(), trailer.begin(), trailer.end());
  ASSERT_EQ(seg.size(), 44u);
  const std::string path = (fs::path(dir.path) / "segment-000000.dup").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(seg.data(), 1, seg.size(), f), seg.size());
  std::fclose(f);
  DupStore store;
  ASSERT_TRUE(store.open(dir.path).ok());
  const DupStore::Stats s = store.stats();
  EXPECT_EQ(s.segments_loaded, 1u);
  EXPECT_EQ(s.truncated_segments, 1u);
  EXPECT_EQ(s.quarantined_segments, 0u);
  EXPECT_EQ(s.entries_recovered, 0u);
}

TEST(DupStoreTest, SpillTempFileIsNotASegment) {
  // A spill writes segment-N.dup.tmp and renames it; a .tmp left behind
  // is not a segment name, so reopening recovers nothing from it.
  TempDir dir("tmpname");
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    for (std::uint64_t i = 0; i < 10; ++i) store.record(digest_of(i), nullptr);
    ASSERT_TRUE(store.spill().ok());
  }
  const fs::path seg = fs::path(dir.path) / "segment-000000.dup";
  fs::rename(seg, seg.string() + ".tmp");
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  const DupStore::Stats s = recovered.stats();
  EXPECT_EQ(s.segments_loaded, 0u);
  EXPECT_EQ(s.entries_recovered, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(DupStoreTest, RecoveryFuzzRandomTruncation) {
  Xoshiro256 rng(0xD00D);
  for (int round = 0; round < 10; ++round) {
    TempDir dir("fuzz" + std::to_string(round));
    const std::uint64_t count = 50 + rng() % 400;
    {
      DupStore store;
      ASSERT_TRUE(store.open(dir.path).ok());
      for (std::uint64_t i = 0; i < count; ++i) {
        store.record(digest_of(i * 7919 + round), nullptr);
      }
      ASSERT_TRUE(store.spill().ok());
    }
    const fs::path seg = fs::path(dir.path) / "segment-000000.dup";
    const std::uintmax_t full = fs::file_size(seg);
    const std::uintmax_t keep = rng() % (full + 1);
    fs::resize_file(seg, keep);
    DupStore recovered;
    ASSERT_TRUE(recovered.open(dir.path).ok());
    const DupStore::Stats s = recovered.stats();
    if (keep >= full) {
      EXPECT_EQ(s.entries, count);
    } else if (keep < DupStore::kHeaderBytes) {
      EXPECT_EQ(s.entries, 0u);  // header gone: quarantined
      EXPECT_EQ(s.quarantined_segments, 1u);
    } else {
      const std::uint64_t expect =
          std::min<std::uint64_t>((keep - DupStore::kHeaderBytes) /
                                      DupStore::kEntryBytes,
                                  count);
      EXPECT_EQ(s.entries, expect) << "keep=" << keep << "/" << full;
      EXPECT_EQ(s.truncated_segments, 1u);
    }
    // Whatever was recovered, the store stays usable.
    recovered.record(digest_of(1u << 30), nullptr);
    EXPECT_TRUE(recovered.spill().ok());
  }
}

// Mixed concurrent record/lookup/spill across every shard — the TSan CI
// job runs this; any missing lock on the shard maps or the spill
// bookkeeping trips it.
TEST(DupStoreTest, ConcurrentRecordLookupSpill) {
  TempDir dir("conc");
  DupStore store;
  ASSERT_TRUE(store.open(dir.path).ok());
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Half the keyspace is shared across threads: real contention on
        // both the hit and the insert path of every shard.
        const std::uint64_t key =
            (i % 2 == 0) ? i : (static_cast<std::uint64_t>(t) << 32) | i;
        bool present = false;
        store.record(digest_of(key), &present);
        if (present) hits.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t id = 0;
        store.lookup(digest_of(key), &id);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(store.spill().ok());
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  ASSERT_TRUE(store.spill().ok());
  const DupStore::Stats s = store.stats();
  EXPECT_EQ(s.store_hits + s.store_misses,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.entries, s.store_misses);
  EXPECT_EQ(s.pending_entries, 0u);
  // Everything recorded concurrently must be recoverable.
  DupStore recovered;
  ASSERT_TRUE(recovered.open(dir.path).ok());
  EXPECT_EQ(recovered.stats().entries, s.entries);
}

// Restart equivalence, the contract the CI persistence leg automates:
// archiving the same input against a fresh store and against a recovered
// one yields byte-identical archives, and the recovered run sees every
// block as a store hit.
TEST(DupStoreTest, CrossRestartIdenticalArchives) {
  TempDir dir("restart");
  const auto input = datagen::generate(
      {datagen::CorpusKind::kParsecLike, 1500 * 1000, 7});
  DedupConfig cfg;
  cfg.batch_size = 256 * 1024;
  cfg.rabin.mask = 0x7FF;

  std::vector<std::uint8_t> first;
  std::uint64_t blocks = 0;
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    auto archive = archive_sequential(input, cfg, &store);
    ASSERT_TRUE(archive.ok());
    first = std::move(archive).value();
    ASSERT_TRUE(store.spill().ok());
    const DupStore::Stats s = store.stats();
    blocks = s.store_hits + s.store_misses;
    EXPECT_GT(s.store_misses, 0u);
  }
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    auto archive = archive_sequential(input, cfg, &store);
    ASSERT_TRUE(archive.ok());
    EXPECT_EQ(archive.value(), first);
    const DupStore::Stats s = store.stats();
    EXPECT_EQ(s.store_misses, 0u);  // every digest recovered from disk
    EXPECT_EQ(s.store_hits, blocks);
  }
  // The parallel pipeline against the same recovered store: same bytes.
  {
    DupStore store;
    ASSERT_TRUE(store.open(dir.path).ok());
    SparCpuOptions opts;
    opts.workers_hash = 3;
    opts.workers_compress = 3;
    opts.store = &store;
    auto archive = archive_spar_cpu(input, cfg, opts);
    ASSERT_TRUE(archive.ok());
    EXPECT_EQ(archive.value(), first);
    EXPECT_EQ(store.stats().store_misses, 0u);
  }
}

// Attaching a store must never change the archive relative to no store at
// all (the store is telemetry; ids come from the archive-local check()).
TEST(DupStoreTest, StoreAttachmentDoesNotChangeArchive) {
  TempDir dir("inert");
  const auto input = datagen::generate(
      {datagen::CorpusKind::kSourceLike, 800 * 1000, 11});
  DedupConfig cfg;
  cfg.batch_size = 128 * 1024;
  cfg.rabin.mask = 0x7FF;
  auto plain = archive_sequential(input, cfg);
  ASSERT_TRUE(plain.ok());
  DupStore store;
  ASSERT_TRUE(store.open(dir.path).ok());
  auto with_store = archive_sequential(input, cfg, &store);
  ASSERT_TRUE(with_store.ok());
  EXPECT_EQ(plain.value(), with_store.value());
}

}  // namespace
}  // namespace hs::dedup
