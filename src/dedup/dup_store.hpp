// Persistent sharded content store — the grown-up form of stage 3's
// digest table (DESIGN.md §4j).
//
// Two independent roles live here, matching how the dedup pipelines use
// it:
//
//  * Archive-local duplicate check (the historical DupCache): check()
//    assigns unique-block ids 0,1,2,... in stream order, serially — the
//    container format requires a duplicate record to reference an id the
//    decoder has already materialized, so this part is inherently serial
//    and *never* consults disk state. Archives are therefore byte-stable
//    across restarts whether or not a store directory is attached.
//
//  * Cross-run content index: record()/lookup() track every digest ever
//    seen in N = 16 lock-striped shards, callable concurrently from the
//    hash farm's workers (each block's digest is recorded by whichever
//    worker hashed it, in completion order). spill() drains
//    not-yet-persisted entries to an on-disk segment; open() replays all
//    segments to rebuild the shard maps, so a restarted process knows
//    exactly which content it has archived before (the store_hits
//    counters the persistence CI leg diffs).
//
// Segment format (little-endian, container.hpp idiom):
//   header : magic "HSDUPSG1" | u32 version | u32 reserved |
//            u64 entry_count
//   entry  : u8[20] SHA-1 digest | u64 store_id       (28 bytes)
//   trailer: u8[20] SHA-1 over header+entries (integrity)
//
// Recovery rules (exercised by dup_store_test's corruption fuzz):
//   * well-formed segment (size and trailer match) -> load every entry;
//   * short file (truncation, e.g. media loss; also any file too short
//     for its declared count) -> load the longest whole-entry prefix,
//     counted in Stats::truncated_segments;
//   * full-length file whose trailer mismatches (bit rot) -> quarantine:
//     load nothing from it, counted in Stats::quarantined_segments.
// Spills write to a ".tmp" sibling and rename into place, so a crash
// never leaves a half-written file under a live segment name (exactly
// segment-<digits>.dup; open() ignores every other name); on any write
// error the drained entries are re-queued for the next spill.
//
// Store ids are assignment-ordered (atomic counter) and only meaningful
// within one store directory; hit counters are runtime telemetry and are
// not persisted.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "dedup/types.hpp"
#include "kernels/sha1.hpp"

namespace hs::dedup {

/// Hash of a SHA-1 digest for the duplicate table: the digest is already
/// uniformly distributed, so folding its words is enough. Keying the table
/// by the 20-byte array directly (instead of a std::string, which exceeds
/// the small-string optimization) keeps the per-block lookup heap-free.
struct DigestHash {
  std::size_t operator()(const kernels::Sha1Digest& d) const {
    std::uint64_t a, b;
    std::uint32_t c;
    std::memcpy(&a, d.data(), 8);
    std::memcpy(&b, d.data() + 8, 8);
    std::memcpy(&c, d.data() + 16, 4);
    std::uint64_t h = a;
    h ^= b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= c + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

class DupStore {
 public:
  static constexpr std::uint32_t kShards = 16;
  static constexpr char kSegmentMagic[9] = "HSDUPSG1";
  static constexpr std::uint32_t kSegmentVersion = 1;
  static constexpr std::size_t kEntryBytes = 20 + 8;
  static constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;
  static constexpr std::size_t kTrailerBytes = 20;

  struct Stats {
    std::uint64_t entries = 0;       ///< digests resident across shards
    std::uint64_t store_hits = 0;    ///< record() found the digest
    std::uint64_t store_misses = 0;  ///< record() inserted the digest
    std::uint64_t segments_loaded = 0;
    std::uint64_t entries_recovered = 0;  ///< entries replayed by open()
    std::uint64_t truncated_segments = 0;
    std::uint64_t quarantined_segments = 0;
    std::uint64_t spills = 0;          ///< segments written by spill()
    std::uint64_t pending_entries = 0; ///< recorded but not yet spilled
  };

  DupStore();
  DupStore(const DupStore&) = delete;
  DupStore& operator=(const DupStore&) = delete;

  /// Attaches a store directory (created if absent) and replays every
  /// segment in it per the recovery rules above. Call once, before any
  /// record(); entries recovered from disk do not count as this run's
  /// hits or misses.
  Status open(const std::string& dir);

  /// Registers `digest`, returning its stable store id. Sets *was_present
  /// to true when the digest was already known (this run or recovered).
  /// Thread-safe and lock-striped: concurrent callers on different shards
  /// never contend.
  std::uint64_t record(const kernels::Sha1Digest& digest, bool* was_present);

  /// True (and *id_out filled) when the digest is known. Thread-safe.
  bool lookup(const kernels::Sha1Digest& digest, std::uint64_t* id_out) const;

  /// Writes all entries recorded since the last spill into a new segment
  /// file. No-op (OK) when nothing is pending or no directory is
  /// attached; on failure the drained entries are re-queued and the error
  /// returned. Thread-safe against concurrent record().
  Status spill();

  [[nodiscard]] Stats stats() const;

  // ---- archive-local stage 3 (the historical DupCache interface) ----

  /// Stage 3 body: marks duplicates and assigns global ids in order.
  /// Archive-local: ids restart at 0 per DupStore instance and are never
  /// influenced by recovered disk state (the container format's
  /// stream-order id contract).
  void check(Batch& batch);

  /// Number of archive-local unique blocks registered by check().
  [[nodiscard]] std::uint64_t unique_count() const;

 private:
  struct Entry {
    std::uint64_t store_id = 0;
    std::uint64_t hits = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<kernels::Sha1Digest, Entry, DigestHash> map;
    /// Entries recorded since the last successful spill.
    std::vector<std::pair<kernels::Sha1Digest, std::uint64_t>> pending;
  };

  static std::uint32_t shard_of(const kernels::Sha1Digest& d) {
    return d[0] & (kShards - 1);
  }

  /// Loads one segment file per the recovery rules; returns entries.
  void load_segment(const std::string& path);

  // Cross-run store state.
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> next_store_id_{0};
  std::atomic<std::uint64_t> store_hits_{0};
  std::atomic<std::uint64_t> store_misses_{0};
  std::string dir_;  ///< empty = in-memory only
  std::uint64_t next_segment_ = 0;
  std::uint64_t segments_loaded_ = 0;
  std::uint64_t entries_recovered_ = 0;
  std::uint64_t truncated_segments_ = 0;
  std::uint64_t quarantined_segments_ = 0;
  std::uint64_t spills_ = 0;
  mutable std::mutex spill_mu_;  ///< serializes spill()/open bookkeeping

  // Archive-local duplicate-check state (DupCache).
  mutable std::mutex check_mu_;
  std::unordered_map<kernels::Sha1Digest, std::uint64_t, DigestHash> ids_;
  std::uint64_t next_id_ = 0;
};

}  // namespace hs::dedup
