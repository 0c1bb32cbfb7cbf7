// String formatting helpers: hex digests, byte-size units, fixed-point
// numbers, JSON string escapes, and the checked whole-file write. Shared by
// reporters, the dedup container, the trace and metrics exporters, and tests.
// Also the one strict reader of numbers in outside text (flags, topology and
// fault specs, wire lines): each parse takes the whole token and fails rather
// than narrow or skip trailing characters; range checks beyond the type stay
// with the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hs {

/// Lower-case hex encoding of a byte span ("a1b2...").
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Parses lower/upper-case hex into bytes. Fails on odd length or non-hex.
Result<std::basic_string<std::uint8_t>> from_hex(std::string_view hex);

/// "1.50 GB", "202.13 MB", "512 B" — decimal units as the paper uses them
/// (185MB, 816MB, 202.13MB).
std::string format_bytes(std::uint64_t bytes);

/// Splits `text` at runs of whitespace; no empty tokens.
std::vector<std::string_view> split_ws(std::string_view text);

/// Base-10 integer: an optional '-' (signed types only) and digits, the
/// whole token. A value outside `Int` is an error, never narrowed.
/// Instantiated for int, std::int64_t and std::uint64_t.
template <typename Int>
Result<Int> parse_int(std::string_view text);

/// Finite decimal, the whole token: "12", "-0.5", "1e9".
Result<double> parse_double(std::string_view text);

/// The byte-size grammar of flags and specs: a parse_double number,
/// optional spaces, then an optional case-insensitive unit: B, k/kB, M/MB,
/// G/GB, T/TB (decimal) or KiB/MiB/GiB (binary). "185MB", "1.5 GiB",
/// "12.5GB", "1e9". The value keeps its fraction and sign.
Result<double> parse_byte_quantity(std::string_view text);

/// parse_byte_quantity in whole bytes (the fraction dropped). OUT_OF_RANGE
/// below 0 or above 9.2e18.
Result<std::uint64_t> parse_bytes(std::string_view text);

/// Duration in seconds: a parse_double number, then an optional unit s,
/// ms, us or ns ("5us", "1ms", "0.25").
Result<double> parse_seconds(std::string_view text);

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
