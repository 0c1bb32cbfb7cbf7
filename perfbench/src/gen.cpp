#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "datagen/corpus.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index) {
  hs::Xoshiro256 rng(seed ^ (tag * 0x9E3779B97F4A7C15ull) ^
                     ((index + 1) * 0xD1B54A32D192ED03ull));
  return rng();
}

std::vector<std::uint8_t> mixed_payload(std::uint64_t seed,
                                        std::uint64_t index,
                                        std::size_t bytes) {
  struct Part {
    hs::datagen::CorpusKind kind;
    std::size_t per_mille;
  };
  static constexpr Part kMix[] = {
      {hs::datagen::CorpusKind::kParsecLike, 400},
      {hs::datagen::CorpusKind::kSourceLike, 300},
      {hs::datagen::CorpusKind::kSilesiaLike, 300},
  };
  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    hs::datagen::CorpusSpec spec;
    spec.kind = kMix[i].kind;
    spec.bytes = i + 1 == std::size(kMix) ? bytes - out.size()
                                          : bytes * kMix[i].per_mille / 1000;
    spec.seed = derive_seed(seed, index, i);
    const std::vector<std::uint8_t> part = hs::datagen::generate(spec);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

CyclicOrder::CyclicOrder(std::uint64_t seed, std::uint32_t n)
    : rng_(seed), perm_(n), pos_(n) {
  std::iota(perm_.begin(), perm_.end(), 0u);
}

std::uint32_t CyclicOrder::next() {
  if (pos_ == perm_.size()) {
    for (std::size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng_.bounded(i)]);
    }
    pos_ = 0;
  }
  return perm_[pos_++];
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::size_t count) {
  hs::Xoshiro256 rng(derive_seed(seed, 0xA77A1));
  std::vector<std::uint64_t> due;
  due.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate_per_s;
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return due;
}

hs::kernels::MandelParams mandel_view(std::uint32_t k, int dim, int niter) {
  static constexpr double kWindows[kMandelViews][3] = {
      {-2.125, -1.5, 3.0},
      {-2.0, -1.25, 2.5},
      {-1.5, -1.0, 2.0},
      {-2.25, -1.75, 3.5},
  };
  hs::kernels::MandelParams p;
  p.dim = dim;
  p.niter = niter;
  p.init_a = kWindows[k][0];
  p.init_b = kWindows[k][1];
  p.range = kWindows[k][2];
  return p;
}

}  // namespace perfbench
