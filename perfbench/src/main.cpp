// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 runs the workload with telemetry off and prints its end-to-end
// metrics. --trace 1 prints the per-layer metrics instead: the workload's
// own traced window and ledger, plus a small fixed-size probe of every
// other workload's modules, so every traced run prints every per-layer
// metric. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; diagnostics go to stderr.
// perfbench/run.py builds this binary from the checkout and runs it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Workload {
  std::string_view name;
  void (*e2e)(const Options&, Outcome&);
  void (*layers)(const Options&, bool home, Outcome&);
};

constexpr Workload kWorkloads[] = {
    {"dedup_stream", dedup_stream_e2e, dedup_stream_layers},
    {"mandel_gpu", mandel_gpu_e2e, mandel_gpu_layers},
    {"serve_mixed", serve_mixed_e2e, serve_mixed_layers},
    {"model_replay", model_replay_e2e, model_replay_layers},
};

/// Parses `--key value` / `--key=value` pairs; nullopt on anything else.
std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view key = argv[i];
    if (!key.starts_with("--")) return std::nullopt;
    key.remove_prefix(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string_view::npos) {
      value = std::string(key.substr(eq + 1));
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    char* end = nullptr;
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "scratch") {
      opt.scratch = value;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return std::nullopt;
      opt.trace = value == "1";
    } else if (key == "seed") {
      if (value.empty() || value[0] == '-') return std::nullopt;
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' ||
          !(opt.seconds > 0 && opt.seconds <= 120)) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  if (opt.workload.empty()) return std::nullopt;
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  // Keep freed heap memory mapped. By default glibc hands large freed
  // blocks back to the kernel and faults them in again on the next op; on a
  // shared virtual machine the cost of those faults drifts by tens of
  // percent over minutes, which swamped every other change in a run. The
  // allocations themselves stay visible as alloc.heap_per_op.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Workload* home = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == opt->workload) home = &w;
  }
  if (home == nullptr) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (dedup_stream | "
                 "mandel_gpu | serve_mixed | model_replay)\n",
                 opt->workload.c_str());
    return 2;
  }
  Outcome out;
  if (!opt->trace) {
    home->e2e(*opt, out);
  } else {
    home->layers(*opt, true, out);
    for (const Workload& w : kWorkloads) {
      if (&w != home) w.layers(*opt, false, out);
    }
  }
  for (const std::string& why : out.errors()) {
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", why.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", out.json().c_str());
  return 0;
}
