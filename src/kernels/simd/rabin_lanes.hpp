// Multi-lane Rabin fingerprint scanner (DESIGN.md §4g).
//
// The scalar chunker is a loop-carried dependency chain: every fingerprint
// update waits on the previous multiply. But once a block is at least
// `window` bytes old (and min_block >= window is asserted by Rabin), the
// rolling fingerprint equals the pure hash of the trailing `window` bytes —
// position-independent and free of the boundary-reset history. So the scan
// splits into two phases:
//
//   1. Match bitmap (data-parallel): the buffer is cut into 4 stripes, one
//      per 64-bit AVX2 lane; each lane warms up on `window-1` bytes of left
//      context and then rolls independently, recording a bit wherever
//      (fp & mask) == magic. Lanes share no state, so the multiply latency
//      is hidden 4-ways.
//   2. Reconciliation (sequential, cheap): a walk over the bitmap replays
//      the boundary decisions — first set bit in [start+min_block-1,
//      start+max_block-1) cuts, else a forced cut at max_block — touching
//      one bit-scan per block instead of one multiply per byte.
//
// Because every decision the scalar walk takes happens where its
// fingerprint is position-independent, the reconciled cut list is
// bit-identical to Rabin::chunk_boundaries_into at every level (asserted
// by tests/simd_dispatch_test.cpp and the golden archive suite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/rabin.hpp"
#include "kernels/simd/dispatch.hpp"

namespace hs::kernels::simd {

/// Reusable scratch: the per-position match bitmap plus per-lane staging.
/// Warmed callers reallocate nothing.
struct RabinScratch {
  std::vector<std::uint64_t> bits;
};

/// Drop-in replacement for Rabin::chunk_boundaries_into, dispatched on
/// active_level(). Output (including the leading 0 and empty-input
/// behaviour) is bit-identical to the scalar walk.
void rabin_boundaries(const Rabin& rabin, std::span<const std::uint8_t> data,
                      std::vector<std::uint32_t>& starts,
                      RabinScratch* scratch = nullptr);

/// Explicit-level entry (tests / kernel bench); levels above the host's
/// support are clamped. kAvx2 runs the 4-lane bitmap body; kScalar and
/// kSse42 run the original rolling walk (SSE4.2 has no 64-bit lane
/// multiply).
void rabin_boundaries_at(Level level, const Rabin& rabin,
                         std::span<const std::uint8_t> data,
                         std::vector<std::uint32_t>& starts,
                         RabinScratch* scratch = nullptr);

// Phase 1 bodies: fill `bits` ((data.size()+63)/64 words, zeroed by the
// callee) with the per-position match bitmap. Exposed for the kernel
// bench; AVX2 falls back to scalar without x86 intrinsics.
void rabin_match_bits_scalar(const Rabin& rabin,
                             std::span<const std::uint8_t> data,
                             std::uint64_t* bits);
void rabin_match_bits_avx2(const Rabin& rabin,
                           std::span<const std::uint8_t> data,
                           std::uint64_t* bits);

}  // namespace hs::kernels::simd
