#include "common/format.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace hs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  if (c >= 'A' && c <= 'F') return 10 + (c - 'A');
  return -1;
}

}  // namespace

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Result<std::basic_string<std::uint8_t>> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgument("hex string has odd length");
  }
  std::basic_string<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "kB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1000.0 && unit < 4) {
    v /= 1000.0;
    ++unit;
  }
  if (unit == 0) {
    return std::to_string(bytes) + " B";
  }
  return format_fixed(v, 2) + " " + kUnits[unit];
}

Result<std::uint64_t> parse_bytes(std::string_view text) {
  // split numeric prefix
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    ++i;
  }
  if (i == 0) return InvalidArgument("no numeric prefix in byte size");
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + i, value);
  if (ec != std::errc() || ptr != text.data() + i) {
    return InvalidArgument("bad numeric prefix in byte size");
  }
  // trim whitespace then read unit
  std::string_view unit = text.substr(i);
  while (!unit.empty() && unit.front() == ' ') unit.remove_prefix(1);
  std::string u;
  for (char c : unit) u.push_back(static_cast<char>(std::tolower(c)));

  double mult = 1.0;
  if (u.empty() || u == "b") {
    mult = 1.0;
  } else if (u == "kb" || u == "k") {
    mult = 1e3;
  } else if (u == "mb" || u == "m") {
    mult = 1e6;
  } else if (u == "gb" || u == "g") {
    mult = 1e9;
  } else if (u == "tb" || u == "t") {
    mult = 1e12;
  } else if (u == "kib") {
    mult = 1024.0;
  } else if (u == "mib") {
    mult = 1024.0 * 1024.0;
  } else if (u == "gib") {
    mult = 1024.0 * 1024.0 * 1024.0;
  } else {
    return InvalidArgument("unknown byte-size unit: " + u);
  }
  double total = value * mult;
  if (total < 0 || total > 9.2e18) return OutOfRange("byte size overflows");
  return static_cast<std::uint64_t>(total);
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string format_seconds(double seconds) {
  if (!(seconds == seconds)) return "nan";
  double abs = std::fabs(seconds);
  if (abs >= 1.0) return format_fixed(seconds, 2) + "s";
  if (abs >= 1e-3) return format_fixed(seconds * 1e3, 2) + "ms";
  if (abs >= 1e-6) return format_fixed(seconds * 1e6, 2) + "us";
  return format_fixed(seconds * 1e9, 1) + "ns";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Status write_file(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Internal("cannot open " + path);
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return Internal("short write to " + path);
  return OkStatus();
}

}  // namespace hs
