#include "kernels/huffman.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <queue>

#include "common/bytes.hpp"

namespace hs::kernels {

namespace {

constexpr int kMaxLen = 15;
constexpr std::size_t kSymbols = 256;

/// MSB-first bit writer (local copy; the LZSS one is internal to lzss.cpp).
class BitWriter {
 public:
  void put_bits(std::uint32_t value, std::uint32_t count) {
    for (std::uint32_t i = count; i-- > 0;) {
      current_ = static_cast<std::uint8_t>((current_ << 1) |
                                           ((value >> i) & 1u));
      if (++filled_ == 8) {
        bytes_.push_back(current_);
        current_ = 0;
        filled_ = 0;
      }
    }
  }
  std::vector<std::uint8_t> finish() {
    if (filled_ > 0) {
      current_ = static_cast<std::uint8_t>(current_ << (8 - filled_));
      bytes_.push_back(current_);
    }
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  std::uint32_t filled_ = 0;
};

/// Canonical code assignment from lengths: shorter first, ties by symbol.
std::array<std::uint16_t, kSymbols> canonical_codes(
    std::span<const std::uint8_t> lengths) {
  std::array<std::uint16_t, kSymbols> codes{};
  std::array<std::uint16_t, kMaxLen + 1> count{};
  for (std::size_t s = 0; s < kSymbols; ++s) count[lengths[s]]++;
  count[0] = 0;
  std::array<std::uint16_t, kMaxLen + 2> next{};
  std::uint16_t code = 0;
  for (int len = 1; len <= kMaxLen; ++len) {
    code = static_cast<std::uint16_t>((code + count[len - 1]) << 1);
    next[len] = code;
  }
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (lengths[s] > 0) codes[s] = next[lengths[s]]++;
  }
  return codes;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  assert(freqs.size() == kSymbols);
  std::vector<std::uint8_t> lengths(kSymbols, 0);

  // Huffman tree over present symbols.
  struct Node {
    std::uint64_t freq;
    int left = -1, right = -1;
    int symbol = -1;
  };
  std::vector<Node> nodes;
  using QE = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<QE, std::vector<QE>, std::greater<>> heap;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (freqs[s] > 0) {
      nodes.push_back(Node{freqs[s], -1, -1, static_cast<int>(s)});
      heap.emplace(freqs[s], static_cast<int>(nodes.size() - 1));
    }
  }
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    auto [fa, a] = heap.top();
    heap.pop();
    auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
  }
  // Depth-first depths (iterative; tree can be 256 deep at most... actually
  // up to #symbols, fine for an explicit stack).
  std::vector<std::pair<int, int>> stack;  // (node, depth)
  stack.emplace_back(static_cast<int>(nodes.size() - 1), 0);
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(n)];
    if (node.symbol >= 0) {
      lengths[static_cast<std::size_t>(node.symbol)] =
          static_cast<std::uint8_t>(std::min(depth, kMaxLen));
      continue;
    }
    stack.emplace_back(node.left, depth + 1);
    stack.emplace_back(node.right, depth + 1);
  }

  // Length-limiting clamp may have broken the Kraft inequality; restore it
  // by lengthening the shortest over-privileged codes until
  // sum 2^(kMaxLen-len) <= 2^kMaxLen.
  auto kraft = [&lengths] {
    std::uint64_t k = 0;
    for (std::uint8_t len : lengths) {
      if (len > 0) k += 1ull << (kMaxLen - len);
    }
    return k;
  };
  while (kraft() > (1ull << kMaxLen)) {
    // Lengthen the longest code shorter than the cap (cheapest ratio loss).
    int best = -1;
    for (std::size_t s = 0; s < kSymbols; ++s) {
      if (lengths[s] > 0 && lengths[s] < kMaxLen &&
          (best < 0 ||
           lengths[s] > lengths[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(s);
      }
    }
    assert(best >= 0 && "cannot satisfy Kraft with 15-bit codes");
    lengths[static_cast<std::size_t>(best)]++;
  }
  return lengths;
}

std::vector<std::uint8_t> huffman_encode(
    std::span<const std::uint8_t> input) {
  std::vector<std::uint64_t> freqs(kSymbols, 0);
  for (std::uint8_t b : input) freqs[b]++;
  std::vector<std::uint8_t> lengths = huffman_code_lengths(freqs);
  auto codes = canonical_codes(lengths);

  // Header: 256 x 4-bit lengths.
  std::vector<std::uint8_t> out;
  out.reserve(kSymbols / 2 + input.size() / 2);
  for (std::size_t s = 0; s < kSymbols; s += 2) {
    out.push_back(static_cast<std::uint8_t>((lengths[s] << 4) |
                                            lengths[s + 1]));
  }
  BitWriter bits;
  for (std::uint8_t b : input) {
    bits.put_bits(codes[b], lengths[b]);
  }
  auto payload = bits.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<std::vector<std::uint8_t>> huffman_decode(
    std::span<const std::uint8_t> compressed, std::size_t original_size) {
  if (compressed.size() < kSymbols / 2) {
    return DataLoss("huffman stream shorter than its header");
  }
  std::array<std::uint8_t, kSymbols> lengths{};
  for (std::size_t s = 0; s < kSymbols; s += 2) {
    lengths[s] = compressed[s / 2] >> 4;
    lengths[s + 1] = compressed[s / 2] & 0x0F;
  }

  // Canonical decoding tables.
  std::array<std::uint16_t, kMaxLen + 1> count{};
  for (std::uint8_t len : lengths) count[len]++;
  count[0] = 0;
  // Validate Kraft (<= 1) so malformed tables cannot loop forever.
  std::uint64_t kraft = 0;
  for (std::uint8_t len : lengths) {
    if (len > 0) kraft += 1ull << (kMaxLen - len);
  }
  if (kraft > (1ull << kMaxLen)) {
    return DataLoss("huffman code-length table violates Kraft inequality");
  }
  std::array<std::uint16_t, kMaxLen + 1> first{};
  std::array<std::uint16_t, kMaxLen + 1> offset{};
  std::vector<std::uint8_t> symbols;
  symbols.reserve(kSymbols);
  {
    std::uint16_t code = 0;
    std::uint16_t index = 0;
    for (int len = 1; len <= kMaxLen; ++len) {
      code = static_cast<std::uint16_t>((code + count[len - 1]) << 1);
      first[len] = code;
      offset[len] = index;
      index = static_cast<std::uint16_t>(index + count[len]);
    }
    for (int len = 1; len <= kMaxLen; ++len) {
      for (std::size_t s = 0; s < kSymbols; ++s) {
        if (lengths[s] == len) symbols.push_back(static_cast<std::uint8_t>(s));
      }
    }
  }

  // Every symbol costs at least one bit, so reserve no more than the
  // stream can decode to; original_size is untrusted container data.
  std::vector<std::uint8_t> out;
  out.reserve(std::min<std::size_t>(original_size,
                                    (compressed.size() - kSymbols / 2) * 8));
  BitReader in(compressed.subspan(kSymbols / 2));
  while (out.size() < original_size) {
    std::uint16_t code = 0;
    int len = 0;
    std::uint8_t decoded = 0;
    bool found = false;
    while (len < kMaxLen) {
      std::uint32_t bit = 0;
      if (!in.bits(1, bit)) {
        return DataLoss("huffman stream truncated mid-code");
      }
      code = static_cast<std::uint16_t>((code << 1) | bit);
      ++len;
      std::uint16_t rel = static_cast<std::uint16_t>(code - first[len]);
      if (code >= first[len] && rel < count[len]) {
        decoded = symbols[static_cast<std::size_t>(offset[len] + rel)];
        found = true;
        break;
      }
    }
    if (!found) return DataLoss("invalid huffman code in stream");
    out.push_back(decoded);
  }
  return out;
}

}  // namespace hs::kernels
