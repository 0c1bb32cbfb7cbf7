#include "kernels/simd/rabin_lanes.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace hs::kernels::simd {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/// First set bit in [lo, limit), or kNpos.
std::size_t find_first_bit(const std::uint64_t* bits, std::size_t lo,
                           std::size_t limit) {
  std::size_t q = lo >> 6;
  const std::size_t qend = (limit + 63) >> 6;
  std::uint64_t w = bits[q] & (~0ull << (lo & 63));
  while (true) {
    if (w != 0) {
      const std::size_t i = (q << 6) + static_cast<std::size_t>(
                                           std::countr_zero(w));
      return i < limit ? i : kNpos;
    }
    if (++q >= qend) return kNpos;
    w = bits[q];
  }
}

/// Replays the scalar walk's boundary decisions over the match bitmap:
/// the first matching position at least min_block into the block cuts
/// (cut index must stay < n, like the scalar walk's `i < n` guard), else
/// a forced cut lands at max_block. This is exact because every decision
/// happens >= window bytes past the block start, where the scalar
/// fingerprint is position-independent (see rabin_lanes.hpp).
void reconcile(const std::uint64_t* bits, std::size_t n,
               const RabinParams& p, std::vector<std::uint32_t>& starts) {
  starts.clear();
  if (n == 0) return;
  starts.reserve(n / p.min_block + 1);
  starts.push_back(0);
  const std::size_t min_block = p.min_block;
  const std::size_t max_block = p.max_block;
  std::size_t b = 0;
  while (true) {
    std::size_t cut = 0;  // 0 == none; a real cut is never 0
    const std::size_t lo = b + min_block - 1;
    // Content cuts fire for block lengths [min_block, max_block-1]; the
    // forced cut takes precedence at exactly max_block.
    const std::size_t limit = std::min(b + max_block - 1, n - 1);
    if (lo < limit) {
      const std::size_t i = find_first_bit(bits, lo, limit);
      if (i != kNpos) cut = i + 1;
    }
    if (cut == 0 && b + max_block < n) cut = b + max_block;
    if (cut == 0) break;
    starts.push_back(static_cast<std::uint32_t>(cut));
    b = cut;
  }
}

}  // namespace

void rabin_match_bits_scalar(const Rabin& rabin,
                             std::span<const std::uint8_t> data,
                             std::uint64_t* bits) {
  const RabinParams& p = rabin.params();
  const std::size_t n = data.size();
  std::memset(bits, 0, ((n + 63) / 64) * sizeof(std::uint64_t));
  const std::uint32_t window = p.window;
  if (n < window) return;
  const std::uint64_t* push = rabin.push_table();
  const std::uint64_t* pop = rabin.pop_table();
  const std::uint64_t mask = p.mask;
  const std::uint64_t magic = p.magic;
  const std::uint8_t* d = data.data();
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fp = fp * Rabin::kMult + push[d[i]];
    if (i >= window) fp -= pop[d[i - window]];
    if (i >= window - 1 && (fp & mask) == magic) {
      bits[i >> 6] |= 1ull << (i & 63);
    }
  }
}

void rabin_boundaries_at(Level level, const Rabin& rabin,
                         std::span<const std::uint8_t> data,
                         std::vector<std::uint32_t>& starts,
                         RabinScratch* scratch) {
  if (level > best_supported()) level = best_supported();
  // Below ~two blocks the bitmap pass cannot win; the scalar walk is also
  // the kScalar and kSse42 body.
  if (level != Level::kAvx2 || data.size() < rabin.params().min_block * 2) {
    rabin.chunk_boundaries_into(data, starts);
    return;
  }
  RabinScratch local;
  RabinScratch& s = scratch != nullptr ? *scratch : local;
  s.bits.resize((data.size() + 63) / 64);
  rabin_match_bits_avx2(rabin, data, s.bits.data());
  reconcile(s.bits.data(), data.size(), rabin.params(), starts);
}

void rabin_boundaries(const Rabin& rabin, std::span<const std::uint8_t> data,
                      std::vector<std::uint32_t>& starts,
                      RabinScratch* scratch) {
  rabin_boundaries_at(active_level(), rabin, data, starts, scratch);
}

}  // namespace hs::kernels::simd
