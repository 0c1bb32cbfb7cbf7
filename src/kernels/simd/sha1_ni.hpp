// Single-stream SHA-1 via the x86 SHA extensions (SHA-NI).
//
// The multi-buffer engine (sha1_mb.hpp) wins when there are many
// independent messages — the dedup hash farm. The container's *input
// digest* is the opposite shape: one message the size of the whole input,
// hashed once at writer.finish(). A single scalar stream runs near
// 0.17 GB/s and was a third of archive_sequential's end-to-end runtime
// (EXPERIMENTS.md); the SHA1RNDS4/SHA1NEXTE/SHA1MSG* instructions run the
// same serial chain an order of magnitude faster.
//
// SHA-NI is a CPUID feature orthogonal to the SSE4.2/AVX2 dispatch tiers
// (dispatch.hpp), so it gets its own availability probe rather than a new
// Level: every SHA-capable part also executes the SSE4.2 bodies, and the
// digest is bit-identical by construction (asserted against the scalar
// context in tests/simd_dispatch_test.cpp), so there is nothing for the
// level matrix to differentiate.
#pragma once

#include <span>

#include "kernels/sha1.hpp"

namespace hs::kernels::simd {

/// True when this file was built with the SHA extensions and CPUID reports
/// them on this host. Resolved once and cached. Always false off x86.
[[nodiscard]] bool sha1_ni_available();

/// One-shot digest computed with the SHA extensions; bit-identical to
/// Sha1::hash for every input. Falls back to the scalar context when
/// sha1_ni_available() is false, so it is always safe to call.
Sha1Digest sha1_hash_ni(std::span<const std::uint8_t> data);

/// Dispatch entry for one-shot single-stream hashing: SHA-NI when the host
/// has it AND the active SIMD level is not forced to scalar (HS_SIMD=scalar
/// must mean an all-scalar run for A/B measurements), else Sha1::hash.
Sha1Digest sha1_hash_fast(std::span<const std::uint8_t> data);

}  // namespace hs::kernels::simd
