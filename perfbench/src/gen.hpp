// Seeded input synthesis, kept apart from set-up so its cost never lands in
// setup_s: the same seed gives byte-identical payloads and schedules, and
// another seed gives different ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "kernels/mandel.hpp"

namespace perfbench {

/// An independent stream seed derived from the run seed, a purpose tag and
/// an index, so each generator draws from its own sequence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                                        std::uint64_t index = 0);

/// A dedup payload of `bytes` mixing parsec-, source- and silesia-like
/// segments in fixed 40/30/30 proportions, so every payload carries the same
/// duplicate and compressibility mix and an op's cost has a single mode.
[[nodiscard]] std::vector<std::uint8_t> mixed_payload(std::uint64_t seed,
                                                      std::uint64_t index,
                                                      std::size_t bytes);

/// Seeded cyclic order over `n` >= 1 items: every cycle of n draws is a
/// fresh permutation, so any prefix uses each item equally often (within
/// one).
class CyclicOrder {
 public:
  CyclicOrder(std::uint64_t seed, std::uint32_t n);
  std::uint32_t next();

 private:
  hs::Xoshiro256 rng_;
  std::vector<std::uint32_t> perm_;
  std::size_t pos_;
};

/// Poisson arrivals at `rate_per_s`: `count` due times in nanoseconds from
/// the schedule start.
[[nodiscard]] std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                                          double rate_per_s,
                                                          std::size_t count);

/// Number of fixed Mandelbrot windows the frame workloads draw from.
inline constexpr std::uint32_t kMandelViews = 4;

/// Window `k` (< kMandelViews) of the set at the given size. The windows
/// are fixed and a seed only orders them, so every run renders the same mix.
[[nodiscard]] hs::kernels::MandelParams mandel_view(std::uint32_t k, int dim,
                                                    int niter);

}  // namespace perfbench
