#include "dedup/dup_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>

#include "common/bytes.hpp"
#include "common/format.hpp"

namespace hs::dedup {
namespace fs = std::filesystem;

namespace {

/// Segment file names are segment-<%06llu>.dup so a lexicographic directory
/// scan is also index order.
std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "segment-%06llu.dup",
                static_cast<unsigned long long>(index));
  return buf;
}

/// The index of a segment file name, which is exactly segment-<digits>.dup:
/// a spill's ".tmp" sibling is not a segment.
bool parse_segment_index(std::string_view name, std::uint64_t& out) {
  if (!name.starts_with("segment-") || !name.ends_with(".dup")) return false;
  name.remove_prefix(8);
  name.remove_suffix(4);
  auto index = parse_int<std::uint64_t>(name);
  if (index.ok()) out = index.value();
  return index.ok();
}

}  // namespace

DupStore::DupStore() : shards_(std::make_unique<Shard[]>(kShards)) {}

std::uint64_t DupStore::record(const kernels::Sha1Digest& digest,
                               bool* was_present) {
  Shard& shard = shards_[shard_of(digest)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(digest);
  if (inserted) {
    it->second.store_id = next_store_id_.fetch_add(1, std::memory_order_relaxed);
    shard.pending.emplace_back(digest, it->second.store_id);
    store_misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++it->second.hits;
    store_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (was_present != nullptr) *was_present = !inserted;
  return it->second.store_id;
}

bool DupStore::lookup(const kernels::Sha1Digest& digest,
                      std::uint64_t* id_out) const {
  const Shard& shard = shards_[shard_of(digest)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(digest);
  if (it == shard.map.end()) return false;
  if (id_out != nullptr) *id_out = it->second.store_id;
  return true;
}

void DupStore::load_segment(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Unreadable counts as quarantined — we know it exists (the directory
    // scan found it) but can trust nothing in it.
    ++quarantined_segments_;
    return;
  }
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(fsize > 0 ? static_cast<std::size_t>(fsize)
                                            : 0);
  const std::size_t got =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(got);

  ++segments_loaded_;
  ByteReader r(bytes);
  std::span<const std::uint8_t> magic, version_reserved;
  std::uint64_t declared = 0;
  if (!r.bytes(8, magic) || std::memcmp(magic.data(), kSegmentMagic, 8) != 0 ||
      !r.bytes(8, version_reserved) || !r.u64(declared)) {
    ++quarantined_segments_;
    return;
  }

  // Full length when the file holds the declared entries and a trailer;
  // compared by division, so no declared count can wrap the size.
  std::uint64_t usable = 0;
  if (r.remaining() >= kTrailerBytes &&
      declared <= (r.remaining() - kTrailerBytes) / kEntryBytes) {
    // Full-length file: the trailer must validate or nothing is trusted
    // (a flipped bit could be in any entry).
    const std::size_t body = kHeaderBytes + declared * kEntryBytes;
    kernels::Sha1Digest want;
    std::memcpy(want.data(), bytes.data() + body, 20);
    if (kernels::Sha1::hash(std::span(bytes.data(), body)) != want) {
      ++quarantined_segments_;
      return;
    }
    usable = declared;
  } else {
    // Short file (media loss, or a file cut short outside spill(), whose
    // leaked ".tmp" is never a segment name): recover the longest
    // whole-entry prefix.
    usable = std::min<std::uint64_t>(declared, r.remaining() / kEntryBytes);
    ++truncated_segments_;
  }

  std::span<const std::uint8_t> entry;
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < usable && r.bytes(20, entry) && r.u64(id);
       ++i) {
    kernels::Sha1Digest digest;
    std::memcpy(digest.data(), entry.data(), 20);
    Shard& shard = shards_[shard_of(digest)];
    auto [it, inserted] = shard.map.try_emplace(digest);
    if (inserted) {
      it->second.store_id = id;
      ++entries_recovered_;
    }
    // Duplicate digests across segments keep the first (lowest-segment) id.
  }
}

Status DupStore::open(const std::string& dir) {
  std::lock_guard<std::mutex> lock(spill_mu_);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Internal("dup store: cannot create directory " + dir + ": " +
                    ec.message());
  }
  dir_ = dir;

  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::uint64_t index = 0;
    const std::string name = entry.path().filename().string();
    if (!parse_segment_index(name, index)) continue;
    segments.emplace_back(index, entry.path().string());
  }
  if (ec) {
    return Internal("dup store: cannot scan directory " + dir + ": " +
                    ec.message());
  }
  std::sort(segments.begin(), segments.end());
  std::uint64_t max_id = 0;
  for (const auto& [index, path] : segments) {
    load_segment(path);
    next_segment_ = std::max(next_segment_, index + 1);
  }
  // Resume id assignment above every recovered id so restarted runs never
  // collide with persisted ones.
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> shard_lock(shards_[s].mu);
    for (const auto& [digest, entry] : shards_[s].map) {
      max_id = std::max(max_id, entry.store_id + 1);
    }
  }
  std::uint64_t cur = next_store_id_.load(std::memory_order_relaxed);
  if (max_id > cur) next_store_id_.store(max_id, std::memory_order_relaxed);
  return OkStatus();
}

Status DupStore::spill() {
  std::lock_guard<std::mutex> lock(spill_mu_);
  if (dir_.empty()) return OkStatus();

  // Drain every shard's pending list under its own lock; record() keeps
  // running on other shards while we do.
  std::vector<std::pair<kernels::Sha1Digest, std::uint64_t>> drained;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> shard_lock(shards_[s].mu);
    auto& pending = shards_[s].pending;
    drained.insert(drained.end(), pending.begin(), pending.end());
    pending.clear();
  }
  if (drained.empty()) return OkStatus();

  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes + drained.size() * kEntryBytes + kTrailerBytes);
  bytes.insert(bytes.end(), kSegmentMagic, kSegmentMagic + 8);
  put_u32(bytes, kSegmentVersion);
  put_u32(bytes, 0);  // reserved
  put_u64(bytes, drained.size());
  for (const auto& [digest, id] : drained) {
    bytes.insert(bytes.end(), digest.begin(), digest.end());
    put_u64(bytes, id);
  }
  const kernels::Sha1Digest trailer =
      kernels::Sha1::hash(std::span(bytes.data(), bytes.size()));
  bytes.insert(bytes.end(), trailer.begin(), trailer.end());

  const std::uint64_t index = next_segment_;
  const std::string final_path =
      (fs::path(dir_) / segment_name(index)).string();
  const std::string tmp_path = final_path + ".tmp";

  auto requeue = [&] {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      std::lock_guard<std::mutex> shard_lock(shards_[s].mu);
      for (const auto& e : drained) {
        if (shard_of(e.first) == s) shards_[s].pending.push_back(e);
      }
    }
  };

  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    requeue();
    return Internal("dup store: cannot open " + tmp_path);
  }
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != bytes.size() || !flushed) {
    std::remove(tmp_path.c_str());
    requeue();
    return Internal("dup store: short write to " + tmp_path);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    requeue();
    return Internal("dup store: cannot rename " + tmp_path + ": " +
                    ec.message());
  }
  next_segment_ = index + 1;
  ++spills_;
  return OkStatus();
}

DupStore::Stats DupStore::stats() const {
  Stats st;
  st.store_hits = store_hits_.load(std::memory_order_relaxed);
  st.store_misses = store_misses_.load(std::memory_order_relaxed);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> shard_lock(shards_[s].mu);
    st.entries += shards_[s].map.size();
    st.pending_entries += shards_[s].pending.size();
  }
  std::lock_guard<std::mutex> lock(spill_mu_);
  st.segments_loaded = segments_loaded_;
  st.entries_recovered = entries_recovered_;
  st.truncated_segments = truncated_segments_;
  st.quarantined_segments = quarantined_segments_;
  st.spills = spills_;
  return st;
}

void DupStore::check(Batch& batch) {
  std::lock_guard<std::mutex> lock(check_mu_);
  for (BlockInfo& block : batch.blocks) {
    auto [it, inserted] = ids_.try_emplace(block.digest, next_id_);
    if (inserted) {
      block.duplicate = false;
      block.global_id = next_id_++;
    } else {
      block.duplicate = true;
      block.global_id = it->second;
    }
  }
}

std::uint64_t DupStore::unique_count() const {
  std::lock_guard<std::mutex> lock(check_mu_);
  return next_id_;
}

}  // namespace hs::dedup
