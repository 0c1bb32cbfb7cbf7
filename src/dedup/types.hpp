// Core data types of the Dedup application (paper §IV-B).
//
// The paper's GPU refactoring fixes the batch size at 1 MB and lets rabin
// produce variable-size *blocks* inside each batch (Fig. 2): `start_pos`
// is the index vector every stage shares. A Batch flows through the
// 5-stage graph of Fig. 3: fragment -> SHA-1 -> duplicate check ->
// compress -> reorder/write.
//
// The datapath is zero-copy: a batch owns one pooled contiguous buffer and
// every block is a span into it (fragment/hash/check never copy block
// bytes); only unique-block compressed payloads own memory, drawn from the
// same BufferPool and recycled when the writer retires the batch.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/buffer_pool.hpp"
#include "kernels/lzss.hpp"
#include "kernels/rabin.hpp"
#include "kernels/sha1.hpp"

namespace hs::dedup {

/// Block payload codec. kLzss is the paper's choice; kLzssHuffman layers a
/// canonical-Huffman entropy stage over the LZSS output (restoring the
/// missing half of PARSEC's gzip/bzip2, as an extension).
enum class DedupCodec : std::uint8_t {
  kLzss = 0,
  kLzssHuffman = 1,
};

struct DedupConfig {
  /// Fixed batch size (the paper's 1 MB; benches scale it).
  std::uint32_t batch_size = 1024 * 1024;
  kernels::RabinParams rabin;
  kernels::LzssParams lzss;
  DedupCodec codec = DedupCodec::kLzss;

  DedupConfig() {
    // Defaults tuned for tractable functional runs: ~2-16 kB blocks and a
    // 256-byte LZSS window (the window is a knob; the paper's 4 kB window
    // only changes constants, not the shape — see DESIGN.md).
    rabin.window = 32;
    rabin.min_block = 1024;
    rabin.max_block = 65536;
    rabin.mask = 0xFFF;
    rabin.magic = 0x78;
    lzss.window_size = 256;
  }
};

/// Per-block bookkeeping inside a batch. `bytes` views the owning Batch's
/// pooled buffer (valid for the batch's lifetime; Batch moves keep it
/// valid because PooledBuffer moves are pointer-stable, and Batch copies
/// rebase it onto the copy's buffer).
struct BlockInfo {
  std::uint32_t start = 0;  ///< offset within the batch (from start_pos)
  std::uint32_t len = 0;
  std::span<const std::uint8_t> bytes{};  ///< view into Batch::data
  kernels::Sha1Digest digest{};
  bool duplicate = false;
  /// True when the persistent DupStore already knew this digest (from an
  /// earlier run or earlier in this one). Telemetry only — never consulted
  /// by the archive writer, so attaching a store cannot change the bytes.
  bool store_hit = false;
  /// kLzssHuffman mode: true when the entropy stage beat plain LZSS for
  /// this block (payload = u32 lzss_len | huffman(lzss)).
  bool entropy_coded = false;
  /// Global id: for unique blocks, the id this block defines; for
  /// duplicates, the id of the first occurrence.
  std::uint64_t global_id = 0;
  PooledBuffer compressed;  ///< unique blocks only (pooled slab)
};

/// One stream item: a fixed-size chunk of input plus its rabin block index
/// (Fig. 2) and per-stage results. Copyable (stream adapters copy items);
/// a copy deep-copies the pooled buffers and rebases the block spans.
struct Batch {
  std::uint64_t index = 0;
  PooledBuffer data;
  std::vector<std::uint32_t> start_pos;
  std::vector<BlockInfo> blocks;
  /// GPU path: FindMatch results for every batch position (Listing 3).
  std::vector<kernels::LzssMatch> matches;

  Batch() = default;
  Batch(Batch&&) noexcept = default;
  Batch& operator=(Batch&&) noexcept = default;

  Batch(const Batch& other)
      : index(other.index),
        data(other.data),
        start_pos(other.start_pos),
        blocks(other.blocks),
        matches(other.matches) {
    rebase_block_spans();
  }
  Batch& operator=(const Batch& other) {
    if (this != &other) {
      index = other.index;
      data = other.data;
      start_pos = other.start_pos;
      blocks = other.blocks;
      matches = other.matches;
      rebase_block_spans();
    }
    return *this;
  }

  /// Points every block's `bytes` span into this batch's own buffer.
  void rebase_block_spans() {
    for (BlockInfo& b : blocks) {
      b.bytes = std::span<const std::uint8_t>(data.data() + b.start, b.len);
    }
  }

  /// No bytes to process (the GPU stages pass such a batch through).
  [[nodiscard]] bool empty() const { return data.empty(); }

  /// Empties the batch but keeps every capacity (data slab, vectors) so a
  /// recycled batch is refilled without heap traffic. Block compressed
  /// slabs return to the BufferPool via ~BlockInfo.
  void reset() {
    index = 0;
    data.clear();
    start_pos.clear();
    blocks.clear();
    matches.clear();
  }
};

/// Thread-safe recycler of retired batches: the writer stage releases each
/// batch after appending it and the source re-acquires, so a steady-state
/// pipeline reuses slabs and vector capacities instead of allocating per
/// item.
class BatchPool {
 public:
  explicit BatchPool(std::size_t max_cached = 64) : max_cached_(max_cached) {}

  [[nodiscard]] Batch acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return Batch{};
    Batch b = std::move(free_.back());
    free_.pop_back();
    return b;
  }

  void release(Batch&& batch) {
    batch.reset();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < max_cached_) free_.push_back(std::move(batch));
  }

 private:
  std::mutex mu_;
  std::vector<Batch> free_;
  std::size_t max_cached_;
};

}  // namespace hs::dedup
