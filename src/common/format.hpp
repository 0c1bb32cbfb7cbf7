// String formatting helpers: hex digests, byte-size units, fixed-point
// numbers, JSON string escapes, and the checked whole-file write. Shared by
// reporters, the dedup container, the trace and metrics exporters, and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace hs {

/// Lower-case hex encoding of a byte span ("a1b2...").
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Parses lower/upper-case hex into bytes. Fails on odd length or non-hex.
Result<std::basic_string<std::uint8_t>> from_hex(std::string_view hex);

/// "1.50 GB", "202.13 MB", "512 B" — decimal units as the paper uses them
/// (185MB, 816MB, 202.13MB).
std::string format_bytes(std::uint64_t bytes);

/// Parses "185MB", "1.5 GiB", "4096", "12kb". Decimal (kB/MB/GB) and binary
/// (KiB/MiB/GiB) suffixes; bare numbers are bytes.
Result<std::uint64_t> parse_bytes(std::string_view text);

/// Fixed-point decimal with `digits` fractional digits, no locale.
std::string format_fixed(double value, int digits);

/// "12.3s", "450ms", "9.1us" — duration pretty-printer for reports
/// (input is seconds).
std::string format_seconds(double seconds);

/// `s` escaped for the inside of a JSON string literal (quote, backslash
/// and control characters).
std::string json_escape(std::string_view s);

/// Writes `data` to `path`, replacing it. INTERNAL when the file cannot be
/// opened, or the write or the close fails.
Status write_file(const std::string& path, std::string_view data);

}  // namespace hs
