// Little-endian byte codec of the binary formats: the dedup archive, the
// LZSS container and DupStore segments write their integers with put_u32 /
// put_u64 and read them back through one bounds-checked ByteReader. Each
// format's record layout and checks stay in its own module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hs {

/// Appends `v` little-endian to a push_back byte buffer. Not declared
/// inline: GCC then keeps these calls out of line in ArchiveWriter::append,
/// the dedup writer stage, where inlining them doubles its code.
template <typename Buffer>
void put_u32(Buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
template <typename Buffer>
void put_u64(Buffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Overwrites the 8 bytes at `at` with `v`, little-endian: the header
/// counts a writer learns only at finish().
inline void patch_u64(std::span<std::uint8_t> out, std::size_t at,
                      std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Reads little-endian integers and byte runs off a span. A read that
/// would pass the end returns false and consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v) { return le(v); }
  bool u32(std::uint32_t& v) { return le(v); }
  bool u64(std::uint64_t& v) { return le(v); }
  bool bytes(std::size_t n, std::span<const std::uint8_t>& out) {
    if (n > remaining()) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename Int>
  bool le(Int& v) {
    if (sizeof(Int) > remaining()) return false;
    v = 0;
    for (std::size_t i = 0; i < sizeof(Int); ++i) {
      v = static_cast<Int>(v | static_cast<Int>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(Int);
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace hs
