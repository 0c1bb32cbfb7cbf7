#include "common/cli.hpp"

#include "common/format.hpp"

namespace hs {

Result<CliArgs> CliArgs::Parse(int argc, const char* const* argv) {
  CliArgs out;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 2 || arg.substr(0, 2) != "--") {
      out.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      // bare "--": everything after is positional
      for (int j = i + 1; j < argc; ++j) out.positional_.emplace_back(argv[j]);
      break;
    }
    auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      std::string_view name = body.substr(0, eq);
      if (name.empty()) return InvalidArgument("malformed flag: " + std::string(arg));
      out.flags_[std::string(name)] = std::string(body.substr(eq + 1));
      continue;
    }
    // "--no-foo" form for booleans
    if (body.substr(0, 3) == "no-") {
      out.flags_[std::string(body.substr(3))] = "false";
      continue;
    }
    // "--name value" if the next token is not a flag, else boolean true
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      out.flags_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      out.flags_[std::string(body)] = "true";
    }
  }
  return out;
}

bool CliArgs::has(std::string_view name) const {
  return flags_.find(name) != flags_.end();
}

std::string CliArgs::get_string(std::string_view name,
                                std::string fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(std::string_view name,
                              std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_int<std::int64_t>(it->second).value_or(fallback);
}

double CliArgs::get_double(std::string_view name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_double(it->second).value_or(fallback);
}

bool CliArgs::get_bool(std::string_view name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return fallback;
}

std::uint64_t CliArgs::get_bytes(std::string_view name,
                                 std::uint64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_bytes(it->second).value_or(fallback);
}

Result<std::int64_t> CliArgs::get_int_in_range(std::string_view name,
                                               std::int64_t fallback,
                                               std::int64_t min,
                                               std::int64_t max) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  auto parsed = parse_int<std::int64_t>(it->second);
  if (!parsed.ok()) {
    return InvalidArgument("--" + std::string(name) + "=" + it->second +
                           ": not an integer");
  }
  const std::int64_t v = parsed.value();
  if (v < min || v > max) {
    std::string msg = "--" + std::string(name) + "=" + it->second +
                      ": must be >= " + std::to_string(min);
    if (max != std::numeric_limits<std::int64_t>::max()) {
      msg += " and <= " + std::to_string(max);
    }
    return InvalidArgument(std::move(msg));
  }
  return v;
}

Result<std::uint64_t> CliArgs::get_bytes_in_range(std::string_view name,
                                                  std::uint64_t fallback,
                                                  std::uint64_t min,
                                                  std::uint64_t max) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  auto parsed = parse_bytes(it->second);
  if (!parsed.ok()) {
    return InvalidArgument("--" + std::string(name) + "=" + it->second + ": " +
                           parsed.status().message());
  }
  const std::uint64_t v = parsed.value();
  if (v < min || v > max) {
    std::string msg = "--" + std::string(name) + "=" + it->second +
                      ": must be >= " + std::to_string(min) + " bytes";
    if (max != std::numeric_limits<std::uint64_t>::max()) {
      msg += " and <= " + std::to_string(max) + " bytes";
    }
    return InvalidArgument(std::move(msg));
  }
  return v;
}

}  // namespace hs
