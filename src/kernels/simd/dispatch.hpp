// Runtime SIMD dispatch for the data-parallel CPU kernels (DESIGN.md §4g).
//
// The dedup hot kernels ship per-level bodies: multi-buffer SHA-1 and the
// legacy LZSS longest-match search have a scalar, an SSE4.2 and an AVX2
// body; the rabin lane scanner has a scalar and an AVX2 body (kSse42 runs
// the scalar walk). The level is chosen ONCE at process startup from CPUID
// and cached; every kernel call then reads one relaxed atomic — no
// per-call feature tests.
//
// Override for testing and A/B runs: HS_SIMD=scalar|sse42|avx2 in the
// environment. A requested level the host cannot execute is clamped down
// to the best supported one (so HS_SIMD=avx2 on an SSE-only box runs the
// SSE4.2 bodies rather than faulting) — the differential tests that need
// exact-level coverage use supports()/GTEST_SKIP instead.
//
// Every level is bit-identical by construction: the dispatch equivalence
// suite (tests/simd_dispatch_test.cpp) asserts SHA-1 digests, rabin cut
// positions and LZSS encoded streams match the scalar bodies for all
// lengths 0..512 plus large buffers, and CI re-runs the dedup golden
// archives under each HS_SIMD level.
#pragma once

#include <string_view>

namespace hs::kernels::simd {

/// Instruction-set tiers the kernels are compiled for, in ascending order
/// (comparisons rely on the ordering).
enum class Level : int {
  kScalar = 0,
  kSse42 = 1,
  kAvx2 = 2,
};

/// True when this host can execute `level`'s bodies.
[[nodiscard]] bool supports(Level level);

/// Best level this host supports (ignores HS_SIMD).
[[nodiscard]] Level best_supported();

/// The level the dispatched kernels run at: min(best_supported, HS_SIMD
/// override if any). Resolved once on first call, then cached.
[[nodiscard]] Level active_level();

/// Test hook: forces the active level (clamped to best_supported). Passing
/// the current active level is a no-op; tests restore the previous value.
void set_active_level(Level level);

/// "scalar" / "sse42" / "avx2".
[[nodiscard]] std::string_view level_name(Level level);

/// Parses a level name; false on unknown names (value untouched).
bool parse_level(std::string_view name, Level& out);

}  // namespace hs::kernels::simd
