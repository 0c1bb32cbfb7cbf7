#include "kernels/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/bytes.hpp"
#include "kernels/simd/lzss_chain.hpp"
#include "kernels/simd/lzss_match.hpp"

namespace hs::kernels {

std::string_view lzss_mode_name(LzssMode mode) {
  switch (mode) {
    case LzssMode::kLegacy: return "legacy";
    case LzssMode::kChain: return "chain";
  }
  return "?";
}

bool parse_lzss_mode(std::string_view name, LzssMode& out) {
  if (name == "legacy") {
    out = LzssMode::kLegacy;
    return true;
  }
  if (name == "chain") {
    out = LzssMode::kChain;
    return true;
  }
  return false;
}

namespace {

/// MSB-first bit writer over any push_back-able byte sink. Bits collect in
/// a 64-bit accumulator and flush a byte at a time; the worst case between
/// flushes is 7 carried bits + a 12-bit offset field, far below 64, so the
/// accumulator never overflows. The emitted stream is identical to writing
/// each bit individually.
template <typename Sink>
class BitWriter {
 public:
  explicit BitWriter(Sink& sink) : sink_(sink) {}

  void put_bit(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  void put_bits(std::uint32_t value, std::uint32_t count) {
    acc_ = (acc_ << count) | (value & ((1u << count) - 1u));
    filled_ += count;
    while (filled_ >= 8) {
      filled_ -= 8;
      sink_.push_back(static_cast<std::uint8_t>(acc_ >> filled_));
    }
  }

  void finish() {
    if (filled_ > 0) {
      sink_.push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
      filled_ = 0;
    }
  }

 private:
  Sink& sink_;
  std::uint64_t acc_ = 0;
  std::uint32_t filled_ = 0;
};

}  // namespace

LzssMatch lzss_longest_match(std::span<const std::uint8_t> input,
                             std::size_t block_start, std::size_t block_end,
                             std::size_t pos, const LzssParams& params) {
  // Dispatched on the process-wide SIMD level; every body returns the
  // identical (max length, oldest candidate) result, so all encoders —
  // CPU, batched FindMatch, simulated GPU kernels — stay bit-identical
  // regardless of level. The seed scalar body lives in
  // simd/lzss_match.cpp as lzss_longest_match_scalar.
  return simd::lzss_longest_match_at(simd::active_level(), input, block_start,
                                     block_end, pos, params);
}

namespace {

/// Shared encode walk; `next_match` yields the match for a position and
/// `out_bytes` is any push_back-able byte sink.
template <typename Sink, typename MatchFn>
void encode_walk(std::span<const std::uint8_t> input, std::size_t block_start,
                 std::size_t block_end, const LzssParams& params,
                 const MatchFn& next_match, Sink& out_bytes) {
  BitWriter<Sink> out(out_bytes);
  std::size_t pos = block_start;
  while (pos < block_end) {
    LzssMatch m = next_match(pos);
    if (m.length >= params.min_match) {
      out.put_bit(false);
      out.put_bits(static_cast<std::uint32_t>(m.offset - 1),
                   LzssParams::kOffsetBits);
      out.put_bits(static_cast<std::uint32_t>(m.length - params.min_match),
                   LzssParams::kLengthBits);
      pos += m.length;
    } else {
      out.put_bit(true);
      out.put_bits(input[pos], 8);
      ++pos;
    }
  }
  out.finish();
}

/// MSB-first bit writer over a raw pointer with pre-reserved worst-case
/// capacity: no per-byte capacity checks, bulk 4-byte big-endian flushes.
/// Emits exactly the bytes BitWriter would for the same put sequence (the
/// cross-variant bit-identity lzss_chain_test asserts).
class RawBitWriter {
 public:
  explicit RawBitWriter(std::uint8_t* dst) : dst_(dst) {}

  void put_bits(std::uint32_t value, std::uint32_t count) {
    acc_ = (acc_ << count) | (value & ((1u << count) - 1u));
    filled_ += count;
    if (filled_ >= 32) {
      filled_ -= 32;
      const std::uint32_t word =
          byteswap32(static_cast<std::uint32_t>(acc_ >> filled_));
      std::memcpy(dst_, &word, 4);
      dst_ += 4;
    }
  }

  std::uint8_t* finish() {
    while (filled_ >= 8) {
      filled_ -= 8;
      *dst_++ = static_cast<std::uint8_t>(acc_ >> filled_);
    }
    if (filled_ > 0) {
      *dst_++ = static_cast<std::uint8_t>(acc_ << (8 - filled_));
      filled_ = 0;
    }
    return dst_;
  }

 private:
  static std::uint32_t byteswap32(std::uint32_t v) {
    return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
           (v << 24);
  }

  std::uint8_t* dst_;
  std::uint64_t acc_ = 0;
  std::uint32_t filled_ = 0;
};

void append_bytes(std::vector<std::uint8_t>& sink, const std::uint8_t* p,
                  std::size_t n) {
  sink.insert(sink.end(), p, p + n);
}
void append_bytes(PooledBuffer& sink, const std::uint8_t* p, std::size_t n) {
  sink.append(p, n);
}

/// Chain-mode encode walk: find-then-insert through a matcher, inserting
/// every covered position so the chain state at any query matches the
/// batched FindMatch form exactly (see lzss_chain.hpp purity contract).
///
/// The emit is branchless: the match-or-literal decision selects a
/// (token, width, advance) triple by conditional move, so the walk's only
/// data-dependent branches are inside find() and the interior-insert loop
/// bound. Tokens land in a thread-local arena through RawBitWriter and
/// are appended to the sink in one shot — the walk itself does no
/// capacity checks and, warm, no allocation.
template <typename Sink>
void encode_chain_walk(simd::LzssChainMatcher& matcher,
                       std::span<const std::uint8_t> input,
                       std::size_t block_start, std::size_t block_end,
                       const LzssParams& params, Sink& out_bytes) {
  static thread_local std::vector<std::uint8_t> arena;
  const std::size_t n = block_end - block_start;
  // Worst case: every byte a literal (9 bits) plus padding slack.
  const std::size_t worst = n + n / 8 + 16;
  if (arena.size() < worst) arena.resize(worst);
  RawBitWriter out(arena.data());

  constexpr std::uint32_t kMatchBits =
      1 + LzssParams::kOffsetBits + LzssParams::kLengthBits;
  // Positions in [search_limit, block_end) cannot host a 3-byte hash, so
  // they are never searched or inserted — they emit as literals.
  const std::size_t search_limit =
      n >= simd::LzssChainMatcher::kHashBytes
          ? block_end - (simd::LzssChainMatcher::kHashBytes - 1)
          : block_start;
  std::size_t pos = block_start;
  while (pos < block_end) {
    LzssMatch m{};
    if (pos < search_limit) {
      m = matcher.find(block_start, block_end, pos);
      matcher.insert(pos, block_end);
    }
    const bool is_match = m.length >= params.min_match;
    const std::uint32_t token =
        is_match ? (static_cast<std::uint32_t>(m.offset - 1)
                    << LzssParams::kLengthBits) |
                       static_cast<std::uint32_t>(
                           (m.length - params.min_match) &
                           ((1u << LzssParams::kLengthBits) - 1u))
                 : 0x100u | input[pos];
    const std::uint32_t nbits = is_match ? kMatchBits : 9;
    const std::size_t advance = is_match ? m.length : 1;
    out.put_bits(token, nbits);
    const std::size_t insert_end = std::min(pos + advance, search_limit);
    for (std::size_t q = pos + 1; q < insert_end; ++q) {
      matcher.insert(q, block_end);
    }
    pos += advance;
  }
  append_bytes(out_bytes, arena.data(),
               static_cast<std::size_t>(out.finish() - arena.data()));
}

/// Per-thread chain matcher: reset() is O(1) (generation-tagged heads), so
/// re-anchoring per encoded block costs nothing, and a warm thread never
/// allocates — farm workers each warm their own copy on the first block.
simd::LzssChainMatcher& chain_matcher() {
  static thread_local simd::LzssChainMatcher matcher;
  return matcher;
}

template <typename Sink>
void encode_dispatch(std::span<const std::uint8_t> input,
                     std::size_t block_start, std::size_t block_end,
                     const LzssParams& params, Sink& out_bytes) {
  if (params.mode == LzssMode::kChain) {
    simd::LzssChainMatcher& matcher = chain_matcher();
    matcher.reset(input, params);
    encode_chain_walk(matcher, input, block_start, block_end, params,
                      out_bytes);
    return;
  }
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) {
                return lzss_longest_match(input, block_start, block_end, pos,
                                          params);
              },
              out_bytes);
}

}  // namespace

std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input,
                                      std::size_t block_start,
                                      std::size_t block_end,
                                      const LzssParams& params) {
  assert(params.valid());
  std::vector<std::uint8_t> out;
  encode_dispatch(input, block_start, block_end, params, out);
  return out;
}

void lzss_encode(std::span<const std::uint8_t> input, std::size_t block_start,
                 std::size_t block_end, const LzssParams& params,
                 PooledBuffer& out) {
  assert(params.valid());
  out.clear();
  encode_dispatch(input, block_start, block_end, params, out);
}

Result<std::vector<std::uint8_t>> lzss_decode(
    std::span<const std::uint8_t> compressed, std::size_t original_size,
    const LzssParams& params) {
  if (!params.valid()) return InvalidArgument("bad LZSS parameters");
  // Reserve no more than `compressed` can decode to: every item costs at
  // least 9 bits and yields at most max_match bytes. original_size is
  // untrusted container data.
  std::vector<std::uint8_t> out;
  out.reserve(std::min<std::size_t>(
      original_size, compressed.size() * 8 / 9 * params.max_match));
  BitReader in(compressed);
  while (out.size() < original_size) {
    std::uint32_t literal = 0;
    if (!in.bits(1, literal)) {
      return DataLoss("LZSS stream truncated before expected output size");
    }
    if (literal != 0) {
      std::uint32_t byte = 0;
      if (!in.bits(8, byte)) {
        return DataLoss("LZSS stream truncated inside a literal");
      }
      out.push_back(static_cast<std::uint8_t>(byte));
    } else {
      std::uint32_t offset_m1 = 0, len_m = 0;
      if (!in.bits(LzssParams::kOffsetBits, offset_m1) ||
          !in.bits(LzssParams::kLengthBits, len_m)) {
        return DataLoss("LZSS stream truncated inside a match");
      }
      std::size_t offset = offset_m1 + 1;
      std::size_t length = len_m + params.min_match;
      if (offset > out.size()) {
        return DataLoss("LZSS match reaches before the block start");
      }
      if (out.size() + length > original_size) {
        return DataLoss("LZSS match overruns the declared output size");
      }
      std::size_t src = out.size() - offset;
      for (std::size_t i = 0; i < length; ++i) {
        out.push_back(out[src + i]);
      }
    }
  }
  return out;
}

void find_matches_batch(std::span<const std::uint8_t> input,
                        std::span<const std::uint32_t> start_pos,
                        const LzssParams& params,
                        std::vector<LzssMatch>& out_matches) {
  assert(!start_pos.empty() && start_pos[0] == 0);
  out_matches.assign(input.size(), LzssMatch{});
  // For each position, locate its block (start_pos is sorted) exactly as
  // Listing 3 scans startPoss, then run the shared match body.
  if (params.mode == LzssMode::kChain) {
    // One matcher spans the whole batch: a query's chain walk stops at its
    // block start, so inserting every position (including other blocks')
    // yields the same per-position result as the inline per-block encoder
    // — the cross-variant bit-identity the tests assert.
    simd::LzssChainMatcher& matcher = chain_matcher();
    matcher.reset(input, params);
    std::size_t block_idx = 0;
    for (std::size_t pos = 0; pos < input.size(); ++pos) {
      while (block_idx + 1 < start_pos.size() &&
             pos >= start_pos[block_idx + 1]) {
        ++block_idx;
      }
      const std::size_t bstart = start_pos[block_idx];
      const std::size_t bend = block_idx + 1 < start_pos.size()
                                   ? start_pos[block_idx + 1]
                                   : input.size();
      out_matches[pos] = matcher.find(bstart, bend, pos);
      matcher.insert(pos, bend);
    }
    return;
  }
  std::size_t block_idx = 0;
  for (std::size_t pos = 0; pos < input.size(); ++pos) {
    while (block_idx + 1 < start_pos.size() &&
           pos >= start_pos[block_idx + 1]) {
      ++block_idx;
    }
    const std::size_t bstart = start_pos[block_idx];
    const std::size_t bend = block_idx + 1 < start_pos.size()
                                 ? start_pos[block_idx + 1]
                                 : input.size();
    out_matches[pos] = lzss_longest_match(input, bstart, bend, pos, params);
  }
}

std::vector<std::uint8_t> lzss_encode_from_matches(
    std::span<const std::uint8_t> input, std::size_t block_start,
    std::size_t block_end, std::span<const LzssMatch> matches,
    const LzssParams& params) {
  assert(matches.size() >= block_end);
  std::vector<std::uint8_t> out;
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) { return matches[pos]; }, out);
  return out;
}

void lzss_encode_from_matches(std::span<const std::uint8_t> input,
                              std::size_t block_start, std::size_t block_end,
                              std::span<const LzssMatch> matches,
                              const LzssParams& params, PooledBuffer& out) {
  assert(matches.size() >= block_end);
  out.clear();
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) { return matches[pos]; }, out);
}

}  // namespace hs::kernels
