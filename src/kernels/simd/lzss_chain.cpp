#include "kernels/simd/lzss_chain.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace hs::kernels::simd {

void LzssChainMatcher::reset(std::span<const std::uint8_t> input,
                             const LzssParams& params) {
  assert(params.valid());
  assert(input.size() <=
         static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  base_ = input.data();
  size_ = input.size();
  params_ = params;
  const std::uint32_t slots = std::bit_ceil(params.window_size);
  prev_mask_ = slots - 1;
  if (head_.empty()) head_.assign(std::size_t{1} << kHashBits, 0);
  if (prev_.size() < slots) prev_.assign(slots, kNone);
  if (++generation_ == 0) {
    // Tag wrap (once per 2^32 resets): stale tags could alias the new
    // generation, so clear for real this once.
    std::fill(head_.begin(), head_.end(), std::uint64_t{0});
    generation_ = 1;
  }
}

}  // namespace hs::kernels::simd
