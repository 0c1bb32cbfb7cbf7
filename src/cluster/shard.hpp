// Content-hash sharding of the duplicate check across cluster nodes.
//
// Ownership rule: a digest's owner node is digest[0] % nodes. Because the
// rule is a pure function of content, every node routes a given block to
// the same owner, and the owner's membership answer is exactly what one
// global table would say — so a sharded check reaches the same
// duplicate/unique decisions as the single-host DupCache, in any node
// count (asserted by cluster_test). Each owner keeps its own DupStore
// shard, which brings along the persistence + recovery machinery
// (spill/open) per node.
//
// Archive-local ids stay globally serial (the container format's decoder
// contract: a duplicate record references an id already materialized), so
// check() assigns them from one counter in stream order exactly like
// DupCache::check.
//
// The modeled replay (dedup::run_fig5) does not call this class on the hot
// path — it partitions per-batch shard keys (BatchCosts::shard_key) with
// the same owner rule to charge lookup traffic to the fabric; this class is
// the functional twin that real pipelines and tests run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dedup/dup_store.hpp"
#include "dedup/types.hpp"

namespace hs::cluster {

class ShardedDupIndex {
 public:
  /// `nodes` >= 1. Shards start in-memory; attach directories via open().
  explicit ShardedDupIndex(int nodes);

  [[nodiscard]] int nodes() const { return static_cast<int>(shards_.size()); }

  /// Owner node of a digest.
  [[nodiscard]] int owner(const kernels::Sha1Digest& digest) const {
    return static_cast<int>(digest[0] % shards_.size());
  }

  /// Attaches per-node store directories "<dir>/shard-<i>" (created if
  /// absent) and replays their segments.
  Status open(const std::string& dir);

  /// Spills every shard's pending entries (first error wins).
  Status spill();

  /// Stage-3 body, sharded: marks duplicates and assigns serial ids via
  /// each block's owner shard. Decisions are identical to DupCache::check.
  /// Also records each digest into the owner's cross-run store and tallies
  /// local vs remote lookups as seen from `origin_node`.
  void check(dedup::Batch& batch, int origin_node);

  /// Per-node lookup traffic generated by check() so far.
  struct Traffic {
    std::uint64_t local_lookups = 0;   ///< block owned by the origin node
    std::uint64_t remote_lookups = 0;  ///< block owned elsewhere
  };
  [[nodiscard]] const Traffic& traffic() const { return traffic_; }

  [[nodiscard]] dedup::DupStore& shard(int i) {
    return *shards_.at(static_cast<std::size_t>(i));
  }

  /// Archive-local unique blocks registered by check(), across shards.
  [[nodiscard]] std::uint64_t unique_count() const { return next_id_; }

 private:
  std::vector<std::unique_ptr<dedup::DupStore>> shards_;
  /// Archive-local digest -> id per shard (the owner's slice of what
  /// DupCache keeps in one map).
  std::vector<
      std::unordered_map<kernels::Sha1Digest, std::uint64_t,
                         dedup::DigestHash>>
      ids_;
  std::uint64_t next_id_ = 0;
  Traffic traffic_;
};

}  // namespace hs::cluster
