#include "cluster/shard.hpp"

#include <cassert>

namespace hs::cluster {

ShardedDupIndex::ShardedDupIndex(int nodes) {
  assert(nodes >= 1);
  shards_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    shards_.push_back(std::make_unique<dedup::DupStore>());
  }
  ids_.resize(static_cast<std::size_t>(nodes));
}

void ShardedDupIndex::check(dedup::Batch& batch, int origin_node) {
  for (dedup::BlockInfo& block : batch.blocks) {
    const int o = owner(block.digest);
    if (o == origin_node) {
      traffic_.local_lookups += 1;
    } else {
      traffic_.remote_lookups += 1;
    }
    auto& ids = ids_[static_cast<std::size_t>(o)];
    auto [it, inserted] = ids.try_emplace(block.digest, next_id_);
    if (inserted) {
      block.duplicate = false;
      block.global_id = next_id_++;
    } else {
      block.duplicate = true;
      block.global_id = it->second;
    }
    bool was_present = false;
    shards_[static_cast<std::size_t>(o)]->record(block.digest, &was_present);
    block.store_hit = was_present;
  }
}

}  // namespace hs::cluster
