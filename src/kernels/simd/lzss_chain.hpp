// Hash-chain LZSS match finder (DESIGN.md §4j) — the LzssMode::kChain
// engine behind lzss_encode/find_matches_batch.
//
// The legacy matcher scans every window position per input byte:
// O(n·window) and, at 0.02 GB/s, ~50x slower than rabin/SHA-1 — the
// compress-stage imbalance the paper's dedup analysis calls out. The chain
// matcher is the classic LZ4/zlib structure instead:
//
//   * head[h]: the newest inserted position whose first 3 bytes hash to h,
//     packed with the generation tag that validates it (see below);
//   * prev[pos & (P-1)]: the previous position on pos's chain, P = a power
//     of two >= window_size. The slot for a position is only overwritten
//     P >= window inserts later — by then the old occupant has fallen out
//     of every window, so the chain walk (which stops at the first
//     candidate below the window/block bound) never reads a clobbered
//     link.
//
// find() walks a position's chain newest-first, keeps the longest match
// (ties keep the NEWER candidate — smaller offset — unlike legacy's
// oldest-first scan, which is why the modes golden separately), prunes
// with the classic would-extend byte test, extends with a scalar
// word-at-a-time compare (common_prefix), and gives up after
// params.chain_depth links or as soon as the best possible length is
// reached.
//
// Purity contract (what keeps every pipeline variant bit-identical in
// chain mode): the result of find(block_start, block_end, pos) depends
// only on the input bytes and on the set of inserted positions in
// [block_start, pos) — candidates below block_start terminate the walk
// without consuming depth budget, so it does not matter whether other
// blocks of the batch were inserted (inline per-block encode) or every
// batch position was (find_matches_batch / the simulated-GPU FindMatch).
//
// reset() is O(1): each head entry packs (generation << 32 | position)
// into one 64-bit word, so a bumped generation invalidates the whole
// table without touching its 64 KiB, and validity + the window bound
// check cost one load per probe. A warm thread_local matcher therefore
// re-anchors onto a new block for free (the steady-state zero-alloc gate
// counts on this). prev needs no tags: a link is only ever read through a
// head entry of the current generation, and every hop was written by a
// same-generation insert.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "kernels/lzss.hpp"

namespace hs::kernels::simd {

class LzssChainMatcher {
 public:
  /// Bytes hashed per chain entry. Positions closer than this to their
  /// block end are never inserted or queried (they encode as literals, or
  /// as sub-3-byte matches only legacy mode can find when min_match == 2).
  static constexpr std::uint32_t kHashBytes = 3;

  /// Re-anchors the matcher onto `input` (a whole batch; block bounds are
  /// per-call). Invalidates all previous insertions in O(1). Requires
  /// input.size() < 2^31.
  void reset(std::span<const std::uint8_t> input, const LzssParams& params);

  /// Longest match for `pos` among inserted positions in
  /// [max(block_start, pos - window), pos), newest first, bounded depth.
  /// length 0 means "emit a literal". Defined in the header so the encode
  /// walk and the batch form inline it — an out-of-line call per input
  /// position costs ~15% end to end.
  [[nodiscard]] LzssMatch find(std::size_t block_start, std::size_t block_end,
                               std::size_t pos) const {
    const std::size_t lookahead_limit =
        params_.max_match < block_end - pos ? params_.max_match
                                            : block_end - pos;
    if (lookahead_limit < params_.min_match) return LzssMatch{};
    if (pos + kHashBytes > block_end) return LzssMatch{};

    const std::size_t lo =
        pos - block_start > params_.window_size ? pos - params_.window_size
                                                : block_start;
    const std::uint64_t e = head_[hash3(pos)];
    // cmov shape: a stale-generation head becomes -1, below any lo, so
    // the walk entry check is a single signed compare.
    std::int64_t c = static_cast<std::int64_t>(static_cast<std::uint32_t>(e));
    c = (e >> 32) == generation_ ? c : std::int64_t{kNone};

    LzssMatch best;
    const std::uint8_t* base = base_;
    std::uint32_t depth = params_.chain_depth;
    // Every visited link was inserted this generation with a position
    // < pos (callers find before insert), so the walk is newest-first and
    // stops at the first candidate outside [lo, pos) — cross-block or
    // out-of-window entries never consume depth budget.
    while (c >= static_cast<std::int64_t>(lo)) {
      const std::size_t cand = static_cast<std::size_t>(c);
      // Source bytes must stay below pos, so the length is additionally
      // capped by the candidate's distance.
      const std::size_t limit =
          lookahead_limit < pos - cand ? lookahead_limit : pos - cand;
      // Would-extend prune: a candidate that beats `best` must match at
      // index best.length (at 0 this screens hash collisions). In bounds:
      // best.length < limit <= pos - cand and < block_end - pos.
      if (limit > best.length &&
          base[cand + best.length] == base[pos + best.length]) {
        // Inlined first-8-bytes compare (the common case at max_match 18);
        // common_prefix only extends the tail past 8. Loads are in bounds:
        // limit >= 8 implies pos + 8 <= block_end and cand + 8 <= pos.
        std::size_t len;
        if (limit >= 8) {
          std::uint64_t x, y;
          std::memcpy(&x, base + cand, 8);
          std::memcpy(&y, base + pos, 8);
          if (x != y) {
            len = static_cast<std::size_t>(std::countr_zero(x ^ y)) >> 3;
          } else {
            len = 8 + common_prefix(base + cand + 8, base + pos + 8,
                                    limit - 8);
          }
        } else {
          len = 0;
          while (len < limit && base[cand + len] == base[pos + len]) ++len;
        }
        if (len > best.length) {
          best.length = static_cast<std::uint16_t>(len);
          best.offset = static_cast<std::uint16_t>(pos - cand);
          if (len == lookahead_limit) break;  // cannot do better
        }
      }
      if (--depth == 0) break;
      c = static_cast<std::int64_t>(prev_[cand & prev_mask_]);
    }
    if (best.length < params_.min_match) return LzssMatch{};
    return best;
  }

  /// Registers `pos` as a future match source. `block_end` is the end of
  /// pos's block: positions whose 3 hash bytes would cross it are skipped
  /// (every caller must pass the same bound for the same pos — the purity
  /// contract).
  void insert(std::size_t pos, std::size_t block_end) {
    if (pos + kHashBytes > block_end) return;
    const std::uint32_t h = hash3(pos);
    const std::uint64_t e = head_[h];
    prev_[pos & prev_mask_] = (e >> 32) == generation_
                                  ? static_cast<std::int32_t>(e)
                                  : kNone;
    head_[h] = (static_cast<std::uint64_t>(generation_) << 32) |
               static_cast<std::uint32_t>(pos);
  }

  /// insert() for every position in [begin, end).
  void insert_range(std::size_t begin, std::size_t end,
                    std::size_t block_end) {
    for (std::size_t p = begin; p < end; ++p) insert(p, block_end);
  }

 private:
  static constexpr std::uint32_t kHashBits = 13;
  static constexpr std::int32_t kNone = -1;

  /// Common-prefix length of `a` and `b`, up to `limit` bytes; loads stay
  /// below a + limit and b + limit. find() calls it only for the tail past
  /// the first 8 bytes, at most 10 bytes at max_match 18 — too short for a
  /// vector step, so there is one scalar body for every dispatch level.
  static std::size_t common_prefix(const std::uint8_t* a,
                                   const std::uint8_t* b, std::size_t limit) {
    std::size_t len = 0;
    if constexpr (std::endian::native == std::endian::little) {
      while (len + 8 <= limit) {
        std::uint64_t x, y;
        std::memcpy(&x, a + len, 8);
        std::memcpy(&y, b + len, 8);
        if (x != y) {
          return len +
                 (static_cast<std::size_t>(std::countr_zero(x ^ y)) >> 3);
        }
        len += 8;
      }
    }
    while (len < limit && a[len] == b[len]) ++len;
    return len;
  }

  [[nodiscard]] std::uint32_t hash3(std::size_t pos) const {
    std::uint32_t v = static_cast<std::uint32_t>(base_[pos]) |
                      (static_cast<std::uint32_t>(base_[pos + 1]) << 8) |
                      (static_cast<std::uint32_t>(base_[pos + 2]) << 16);
    return (v * 0x9E3779B1u) >> (32 - kHashBits);
  }

  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
  LzssParams params_{};
  std::uint32_t prev_mask_ = 0;  ///< P - 1
  std::uint32_t generation_ = 0;
  std::vector<std::uint64_t> head_;  ///< (generation << 32) | position
  std::vector<std::int32_t> prev_;   ///< P entries
};

}  // namespace hs::kernels::simd
