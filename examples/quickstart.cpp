// Quickstart: a minimal stream-processing pipeline with the SPar-style API.
//
// Mirrors the paper's Listing 1 structure on a toy workload: a source
// produces sentences, a replicated stage computes an expensive digest per
// sentence, and the collecting stage aggregates — with stream order
// preserved, exactly like [[spar::ToStream]] / [[spar::Stage]] /
// [[spar::Replicate]].
//
//   ./quickstart [--items=N] [--workers=N]
#include <cstdio>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "kernels/sha1.hpp"
#include "spar/spar.hpp"

namespace {

struct Sentence {
  int id = 0;
  std::string text;
};

struct Digested {
  int id = 0;
  std::string hex;
};

}  // namespace

int main(int argc, const char** argv) {
  auto args = hs::CliArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  const int items = static_cast<int>(args.value().get_int("items", 1000));
  const int workers = static_cast<int>(args.value().get_int("workers", 4));

  hs::spar::ToStream region("quickstart");

  // [[spar::ToStream]]: the stream-management loop.
  region.source<Sentence>([i = 0, items]() mutable -> std::optional<Sentence> {
    if (i >= items) return std::nullopt;
    Sentence s;
    s.id = i++;
    s.text = "stream item number " + std::to_string(s.id) +
             " flowing through the pipeline";
    return s;
  });

  // [[spar::Stage, spar::Replicate(workers)]]: stateless, replicated.
  region.stage<Sentence, Digested>(
      hs::spar::Replicate(workers), [](Sentence s) {
        auto digest = hs::kernels::Sha1::hash(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(s.text.data()),
            s.text.size()));
        return Digested{s.id, hs::kernels::digest_hex(digest)};
      });

  // Final [[spar::Stage]]: collect in order.
  int received = 0;
  bool in_order = true;
  std::string last_hex;
  region.last_stage<Digested>([&](Digested d) {
    in_order = in_order && d.id == received;
    ++received;
    last_hex = d.hex;
  });

  std::printf("pipeline: %s (%d threads)\n",
              region.graph_description().c_str(), region.thread_count());
  hs::Status status = region.run();
  if (!status.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("processed %d/%d items, order preserved: %s\n", received,
              items, in_order ? "yes" : "NO");
  std::printf("last digest: %s\n", last_hex.c_str());
  return received == items && in_order ? 0 : 1;
}
