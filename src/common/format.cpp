#include "common/format.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace hs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  if (c >= 'A' && c <= 'F') return 10 + (c - 'A');
  return -1;
}

/// Moves the finite decimal that starts `text` (std::from_chars' grammar)
/// into `out` and drops it from `text`; false when there is none.
bool take_decimal(std::string_view& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || !std::isfinite(out)) return false;
  text.remove_prefix(static_cast<std::size_t>(ptr - text.data()));
  return true;
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

std::vector<std::string_view> split_ws(std::string_view text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> out;
  std::size_t i = text.find_first_not_of(kSpace);
  while (i != std::string_view::npos) {
    const std::size_t end = std::min(text.find_first_of(kSpace, i), text.size());
    out.push_back(text.substr(i, end - i));
    i = text.find_first_not_of(kSpace, end);
  }
  return out;
}

template <typename Int>
Result<Int> parse_int(std::string_view text) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    return OutOfRange("integer out of range: '" + std::string(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return InvalidArgument("not an integer: '" + std::string(text) + "'");
  }
  return v;
}

template Result<int> parse_int<int>(std::string_view);
template Result<std::int64_t> parse_int<std::int64_t>(std::string_view);
template Result<std::uint64_t> parse_int<std::uint64_t>(std::string_view);

Result<double> parse_double(std::string_view text) {
  std::string_view rest = text;
  double v = 0;
  if (!take_decimal(rest, v) || !rest.empty()) {
    return InvalidArgument("not a number: '" + std::string(text) + "'");
  }
  return v;
}

Result<double> parse_byte_quantity(std::string_view text) {
  static constexpr std::pair<std::string_view, double> kUnits[] = {
      {"", 1.0},   {"b", 1.0},   {"k", 1e3},      {"kb", 1e3},
      {"m", 1e6},  {"mb", 1e6},  {"g", 1e9},      {"gb", 1e9},
      {"t", 1e12}, {"tb", 1e12}, {"kib", 1024.0}, {"mib", 1024.0 * 1024.0},
      {"gib", 1024.0 * 1024.0 * 1024.0}};
  std::string_view unit = text;
  double value = 0;
  if (!take_decimal(unit, value)) {
    return InvalidArgument("no numeric prefix in byte size");
  }
  while (!unit.empty() && unit.front() == ' ') unit.remove_prefix(1);
  const auto same = [](char a, char lower) {
    return std::tolower(static_cast<unsigned char>(a)) == lower;
  };
  for (const auto& [name, mult] : kUnits) {
    if (std::equal(unit.begin(), unit.end(), name.begin(), name.end(), same)) {
      return value * mult;
    }
  }
  return InvalidArgument("unknown byte-size unit: " + std::string(unit));
}

Result<std::uint64_t> parse_bytes(std::string_view text) {
  HS_ASSIGN_OR_RETURN(const double total, parse_byte_quantity(text));
  if (total < 0 || total > 9.2e18) return OutOfRange("byte size out of range");
  return static_cast<std::uint64_t>(total);
}

Result<double> parse_seconds(std::string_view text) {
  std::string_view unit = text;
  double value = 0;
  if (!take_decimal(unit, value)) {
    return InvalidArgument("no numeric prefix in duration");
  }
  if (unit.empty() || unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  if (unit == "ns") return value * 1e-9;
  return InvalidArgument("unknown duration unit: " + std::string(unit));
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
