// Fig. 5 reproduction: "Dedup results" — throughput (MB/s) of every
// parallel version on three datasets.
//
// Datasets are the synthetic stand-ins of DESIGN.md §2 (the paper used
// PARSEC's 185 MB native input, an 816 MB Linux source tree, and the
// 202 MB Silesia corpus; generation is deterministic and the size is
// scaled by --input-size, default 16 MB, so the whole figure regenerates in
// about a minute — pass --input-size=185MB etc. for full-size runs).
//
// Rows per dataset: SPar CPU-only; CUDA/OpenCL single-threaded and
// SPar+CUDA / SPar+OpenCL — each without the batch optimization
// ("per-block kernels", the paper's very poor first attempt), with it, and
// with 2x memory spaces; plus SPar+GPU on 2 GPUs.
//
// Flags: --input-size=BYTES | --dataset=parsec|source|silesia (default:
//        all) | --replicas=N (19) | --batch-size=BYTES (1MiB) | --csv
//        --sched=static|adaptive (default static). static reproduces the
//        figure bit-for-bit; adaptive appends SPar+GPU rows where batches
//        go to the globally least-loaded device instead of the replica's
//        round-robin binding (DESIGN.md §4h). The fault/telemetry demos
//        also switch the functional archiver to tracker-driven dispatch.
//        --json=PATH (also write every row — dataset, label, modeled time,
//        throughput, kernel launches — as machine-readable JSON, e.g.
//        BENCH_fig5.json, so the perf trajectory is tracked across PRs)
//        --faults=SPEC (run the functional SPar+CUDA archiver under an
//        injected fault plan — spec grammar in gpusim/fault_plan.hpp, e.g.
//        "alloc.p=0.2,lost.nth=40" — and verify the archive still extracts
//        to the bit-exact input)
//        --store=DIR (persistent DupStore demo: archive with a store
//        attached to DIR, spill, then "restart" — a fresh store replays the
//        segments — and archive again with the SPar CPU pipeline recording
//        concurrently; asserts the archive is byte-identical across the
//        restart and every spilled digest comes back as a store hit)
//        --trace=FILE --metrics=FILE (run the functional SPar+CUDA archiver
//        with runtime telemetry on and export a Chrome trace — per-stage +
//        H2D/kernel/D2H spans, viewable in ui.perfetto.dev — and/or a
//        metrics dump: .json gets JSON, anything else Prometheus text)
//        --functional (also run the *functional* sequential and SPar-CPU
//        archivers on each dataset and report measured wall time — unlike
//        the modeled rows above, these numbers are this host's. Implied by
//        any of: --workers-hash=N / --workers-compress=N (farm sizes,
//        default 4), --pin (pin runtime threads round-robin to cores).
//        The SIMD dispatch level follows HS_SIMD.)
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "kernels/lzss.hpp"
#include "kernels/simd/dispatch.hpp"

#include "bench_common.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/modeled.hpp"
#include "dedup/pipelines.hpp"
#include "gpusim/fault_plan.hpp"
#include "sched/sched.hpp"

namespace hs {
namespace {

using dedup::Fig5Backend;
using dedup::Fig5Config;
using dedup::Fig5Result;

/// --faults demo: the real (functional) SPar+CUDA archiver under an
/// injected fault plan must still produce an archive whose extraction is
/// bit-exact against the input. Returns 0 on success.
int run_fault_demo(const std::string& spec, dedup::DedupConfig config,
                   sched::SchedMode mode) {
  auto plan = gpusim::FaultPlan::Parse(spec);
  if (!plan.ok()) {
    std::cerr << "[bench] bad --faults spec: " << plan.status().ToString()
              << "\n";
    return 1;
  }
  // The functional archiver computes SHA1/LZSS for real; keep it modest.
  datagen::CorpusSpec corpus;
  corpus.kind = datagen::CorpusKind::kParsecLike;
  corpus.bytes = 2 * 1000 * 1000;
  const std::vector<std::uint8_t> input = datagen::generate(corpus);
  config.batch_size = std::min<std::uint32_t>(config.batch_size, 256 * 1024);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < machine->device_count(); ++d) {
    machine->device(d).set_fault_plan(plan.value());
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  sched::DeviceLoadTracker tracker(machine->device_count());
  const bool adaptive = mode == sched::SchedMode::kAdaptive;
  flow::FailureReport failures;
  auto archive = dedup::archive_spar_cuda(input, config, 4, *machine, &stats,
                                          {}, adaptive ? &tracker : nullptr,
                                          &failures);
  cudax::unbind_machine();

  std::cout << "\n--faults=" << spec << " ("
            << format_bytes(corpus.bytes)
            << " parsec-like input, functional SPar+CUDA archiver, sched="
            << sched::to_string(mode) << ")\n";
  for (int d = 0; d < machine->device_count(); ++d) {
    std::cout << "  device " << d << ": "
              << machine->device(d).fault_telemetry().ToString() << "\n";
  }
  std::cout << "  recovery: " << stats.ToString() << "\n";
  if (adaptive) {
    std::cout << "  scheduler: picks=" << tracker.picks()
              << " steals=" << tracker.steals() << "\n";
  }
  if (!archive.ok()) {
    std::cerr << "[bench] faulty archive run failed: "
              << archive.status().ToString() << "\n";
    return 1;
  }
  auto clean = dedup::archive_sequential(input, config);
  if (!clean.ok() || archive.value() != clean.value()) {
    std::cerr << "[bench] FAULT DEMO MISMATCH: archive differs from "
                 "fault-free run\n";
    return 1;
  }
  auto roundtrip = dedup::extract(archive.value());
  if (!roundtrip.ok() || roundtrip.value() != input) {
    std::cerr << "[bench] FAULT DEMO MISMATCH: archive does not extract to "
                 "the input\n";
    return 1;
  }
  if (!failures.ok()) {
    // The retry ladder is supposed to absorb every injected fault; a stage
    // failure on record means something went unrecovered.
    std::cerr << "[bench] unrecovered stage failures: " << failures.ToString()
              << "\n";
    return 1;
  }
  std::cout << "  archive bit-exact and extracts to the input: OK\n";
  return 0;
}

/// --trace/--metrics demo: the real (functional) SPar+CUDA archiver with
/// the process-wide telemetry singletons capturing, exported to the
/// requested files. Returns 0 on success.
int run_telemetry_demo(const benchtool::TelemetryOutputs& outs,
                       dedup::DedupConfig config, sched::SchedMode mode) {
  datagen::CorpusSpec corpus;
  corpus.kind = datagen::CorpusKind::kParsecLike;
  corpus.bytes = 2 * 1000 * 1000;
  const std::vector<std::uint8_t> input = datagen::generate(corpus);
  config.batch_size = std::min<std::uint32_t>(config.batch_size, 256 * 1024);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  benchtool::begin_telemetry_capture(outs);
  sched::DeviceLoadTracker tracker(machine->device_count());
  if (mode == sched::SchedMode::kAdaptive) {
    // Export the scheduler's decisions alongside the pipeline's metrics.
    tracker.bind_metrics(&telemetry::Registry::Default(), "sched");
  }
  auto archive = dedup::archive_spar_cuda(
      input, config, 4, *machine, nullptr, {},
      mode == sched::SchedMode::kAdaptive ? &tracker : nullptr);
  int rc = benchtool::end_telemetry_capture(outs);
  cudax::unbind_machine();
  if (!archive.ok()) {
    std::cerr << "[bench] telemetry demo run failed: "
              << archive.status().ToString() << "\n";
    return 1;
  }
  return rc;
}

/// --store=DIR demo: the persistent DupStore across a simulated restart.
/// Run 1 archives with a store attached to DIR and spills its segments;
/// run 2 opens a *fresh* store on the same directory (replaying the
/// segments, as a restarted archiver would) and archives again. The
/// archive bytes must be identical across the restart — the store is
/// cross-run telemetry/content state, never archive state — and every
/// digest the first run inserted must come back as a store hit. Returns 0
/// on success.
int run_store_demo(const std::string& dir, dedup::DedupConfig config) {
  datagen::CorpusSpec corpus;
  corpus.kind = datagen::CorpusKind::kParsecLike;
  corpus.bytes = 2 * 1000 * 1000;
  const std::vector<std::uint8_t> input = datagen::generate(corpus);
  config.batch_size = std::min<std::uint32_t>(config.batch_size, 256 * 1024);

  dedup::DupStore first;
  if (Status s = first.open(dir); !s.ok()) {
    std::cerr << "[bench] --store open failed: " << s.ToString() << "\n";
    return 1;
  }
  auto run1 = dedup::archive_sequential(input, config, &first);
  if (!run1.ok()) {
    std::cerr << "[bench] --store run 1 failed: " << run1.status().ToString()
              << "\n";
    return 1;
  }
  if (Status s = first.spill(); !s.ok()) {
    std::cerr << "[bench] --store spill failed: " << s.ToString() << "\n";
    return 1;
  }
  const dedup::DupStore::Stats before = first.stats();

  // "Restart": a brand-new store recovers the spilled segments from disk.
  dedup::DupStore second;
  if (Status s = second.open(dir); !s.ok()) {
    std::cerr << "[bench] --store reopen failed: " << s.ToString() << "\n";
    return 1;
  }
  const dedup::DupStore::Stats recovered = second.stats();
  // The SPar CPU archiver exercises the concurrent record() path against
  // the recovered state; its archive must match run 1 bit for bit.
  dedup::SparCpuOptions opts;
  opts.workers_hash = 4;
  opts.workers_compress = 4;
  opts.store = &second;
  auto run2 = dedup::archive_spar_cpu(input, config, opts);
  if (!run2.ok()) {
    std::cerr << "[bench] --store run 2 failed: " << run2.status().ToString()
              << "\n";
    return 1;
  }
  const dedup::DupStore::Stats after = second.stats();

  std::cout << "\n--store=" << dir << " (" << format_bytes(corpus.bytes)
            << " parsec-like input, sequential then restart + SPar CPU)\n"
            << "  run 1: entries=" << before.entries
            << " spills=" << before.spills << " misses=" << before.store_misses
            << "\n  restart: segments_loaded=" << recovered.segments_loaded
            << " entries_recovered=" << recovered.entries_recovered
            << "\n  run 2: hits=" << after.store_hits
            << " misses=" << after.store_misses << "\n";

  if (run1.value() != run2.value()) {
    std::cerr << "[bench] STORE DEMO MISMATCH: archive differs across the "
                 "restart\n";
    return 1;
  }
  if (recovered.entries_recovered != before.entries) {
    std::cerr << "[bench] STORE DEMO MISMATCH: recovered "
              << recovered.entries_recovered << " entries, expected "
              << before.entries << "\n";
    return 1;
  }
  if (after.store_misses != 0) {
    // Every digest of the identical input was spilled by run 1, so a fresh
    // store that replayed the segments must answer hit for all of them.
    std::cerr << "[bench] STORE DEMO MISMATCH: " << after.store_misses
              << " store misses after recovery (expected 0)\n";
    return 1;
  }
  std::cout << "  archive identical across restart, all digests recovered: "
               "OK\n";
  return 0;
}

/// --functional rows: the real archivers, measured wall time on this host
/// (the modeled table above stays byte-identical whether or not these
/// run). Sequential is the reference; the SPar-CPU variant runs with the
/// requested farm sizes / pinning / hash ordering. Returns 0 on success.
int run_functional(const std::vector<datagen::CorpusKind>& kinds,
                   std::uint64_t input_size, dedup::DedupConfig config,
                   const CliArgs& args) {
  auto workers_hash_or = args.get_positive_int("workers-hash", 4);
  auto workers_compress_or = args.get_positive_int("workers-compress", 4);
  auto reps_or = args.get_positive_int("functional-reps", 3);
  for (const Status& s : {workers_hash_or.status(),
                          workers_compress_or.status(), reps_or.status()}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  dedup::SparCpuOptions opts;
  opts.workers_hash = static_cast<int>(workers_hash_or.value());
  opts.workers_compress = static_cast<int>(workers_compress_or.value());
  opts.pin = args.get_bool("pin", false);
  const int reps = static_cast<int>(reps_or.value());

  std::string spar_label = "SPar CPU (functional, hash x" +
                           std::to_string(opts.workers_hash) + ", lzss x" +
                           std::to_string(opts.workers_compress) + ")";
  if (opts.pin) spar_label += " pinned";

  Table table("Functional archivers — measured wall time (best of " +
              std::to_string(reps) + ", simd=" +
              std::string(kernels::simd::level_name(
                  kernels::simd::active_level())) +
              ")");
  table.set_header({"dataset", "version", "time", "throughput"});

  for (datagen::CorpusKind kind : kinds) {
    datagen::CorpusSpec spec;
    spec.kind = kind;
    spec.bytes = input_size;
    const std::vector<std::uint8_t> input = datagen::generate(spec);
    const std::string dataset(datagen::corpus_name(kind));

    const auto measure = [&](auto&& archiver)
        -> Result<std::pair<double, std::vector<std::uint8_t>>> {
      double best = 1e300;
      std::vector<std::uint8_t> archive;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        auto out = archiver();
        const auto t1 = std::chrono::steady_clock::now();
        HS_RETURN_IF_ERROR(out.status());
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
        if (r == 0) archive = std::move(out).value();
      }
      return std::make_pair(best, std::move(archive));
    };
    const auto add = [&](const std::string& label, double seconds) {
      table.add_row({dataset, label, format_seconds(seconds),
                     format_fixed(input_size / 1e6 / seconds, 1) + " MB/s"});
    };

    auto seq = measure(
        [&] { return dedup::archive_sequential(input, config); });
    if (!seq.ok()) {
      std::cerr << "[bench] functional sequential failed: "
                << seq.status().ToString() << "\n";
      return 1;
    }
    add("sequential (functional)", seq.value().first);

    auto spar = measure(
        [&] { return dedup::archive_spar_cpu(input, config, opts); });
    if (!spar.ok()) {
      std::cerr << "[bench] functional SPar CPU failed: "
                << spar.status().ToString() << "\n";
      return 1;
    }
    add(spar_label, spar.value().first);

    if (spar.value().second != seq.value().second) {
      std::cerr << "[bench] FUNCTIONAL MISMATCH: SPar CPU archive differs "
                   "from the sequential reference ("
                << dataset << ")\n";
      return 1;
    }
  }
  std::cout << "\n";
  table.render(std::cout);
  std::cout << "functional archives verified (byte-identical to the "
               "sequential reference).\n";
  return 0;
}

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << args_or.status().ToString() << "\n";
    return 1;
  }
  const CliArgs& args = args_or.value();
  const std::uint64_t input_size =
      args.get_bytes("input-size", 16 * 1000 * 1000);

  std::vector<datagen::CorpusKind> kinds;
  if (args.has("dataset")) {
    auto kind = datagen::parse_corpus_kind(args.get_string("dataset", ""));
    if (!kind.ok()) {
      std::cerr << kind.status().ToString() << "\n";
      return 1;
    }
    kinds.push_back(kind.value());
  } else {
    kinds = {datagen::CorpusKind::kParsecLike,
             datagen::CorpusKind::kSourceLike,
             datagen::CorpusKind::kSilesiaLike};
  }

  auto replicas_or = args.get_positive_int("replicas", 19);
  // Default batch size 256 KiB instead of the paper's 1 MB so the default
  // 16 MB inputs still produce enough batches (64) to feed 19 replicas —
  // the paper's 185-816 MB inputs had 185+ one-MB batches. Full-size runs:
  // --input-size=185MB --batch-size=1MiB.
  auto batch_size_or = args.get_positive_bytes("batch-size", 256 * 1024);
  auto devices_or = args.get_positive_int("devices", 2);
  auto sched_or = sched::parse_sched_mode(args.get_string("sched", "static"));
  for (const Status& s : {replicas_or.status(), batch_size_or.status(),
                          devices_or.status(), sched_or.status()}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  const sched::SchedMode sched_mode = sched_or.value();

  Fig5Config cfg;
  cfg.replicas = static_cast<int>(replicas_or.value());
  cfg.dedup.batch_size = static_cast<std::uint32_t>(batch_size_or.value());
  cfg.dedup.rabin.mask = 0x7FF;  // ~2 kB blocks

  // Match-finder selection. Legacy is the default here: the figure rows
  // are modeled against the paper's brute-force FindMatch cost model, and
  // the functional cross-checks pin the legacy goldens. --lzss=chain runs
  // the shipped hash-chain matcher instead (functional rows only get
  // faster; archives re-golden).
  const std::string lzss_name = args.get_string("lzss", "legacy");
  kernels::LzssMode lzss_mode;
  if (!kernels::parse_lzss_mode(lzss_name, lzss_mode)) {
    std::cerr << "unknown --lzss='" << lzss_name
              << "' (expected legacy|chain)\n";
    return 1;
  }
  cfg.dedup.lzss.mode = lzss_mode;
  if (lzss_mode == kernels::LzssMode::kChain) {
    cfg.dedup.lzss.window_size = 4096;  // tuned chain config
    cfg.dedup.lzss.chain_depth = 2;
  }

  bool csv = args.get_bool("csv", false);
  const std::string json_path = args.get_string("json", "");
  struct JsonRow {
    std::string dataset;
    std::string label;
    double modeled_seconds;
    double throughput_mb_s;
    std::uint64_t kernel_launches;
  };
  std::vector<JsonRow> json_rows;

  for (datagen::CorpusKind kind : kinds) {
    datagen::CorpusSpec spec;
    spec.kind = kind;
    spec.bytes = input_size;
    std::fprintf(stderr, "[bench] generating %s corpus (%s)...\n",
                 std::string(datagen::corpus_name(kind)).c_str(),
                 format_bytes(input_size).c_str());
    auto input = datagen::generate(spec);
    auto profile = datagen::profile(input);
    std::fprintf(stderr,
                 "[bench] duplicates=%.0f%% lzss-ratio=%.2f; tracing...\n",
                 profile.duplicate_block_fraction * 100, profile.lzss_ratio);
    dedup::DedupTrace trace = dedup::build_trace(input, cfg.dedup);
    const bool variable = args.get_bool("variable-batches", false);
    dedup::DedupTrace var_trace;
    if (variable) {
      var_trace = dedup::build_trace(input, cfg.dedup, true);
    }

    Table table("Fig. 5 — Dedup throughput, " +
                std::string(datagen::corpus_name(kind)) + " (" +
                format_bytes(input_size) + ", " +
                format_fixed(profile.duplicate_block_fraction * 100, 0) +
                "% duplicate blocks)");
    table.set_header({"version", "modeled time", "throughput", "kernels"});

    auto add = [&](const Fig5Config& c, Fig5Backend backend) {
      Fig5Result r = run_fig5(trace, c, backend);
      table.add_row({r.label, format_seconds(r.modeled_seconds),
                     format_fixed(r.throughput_mb_s, 1) + " MB/s",
                     r.kernel_launches ? std::to_string(r.kernel_launches)
                                       : "-"});
      json_rows.push_back({std::string(datagen::corpus_name(kind)), r.label,
                           r.modeled_seconds, r.throughput_mb_s,
                           r.kernel_launches});
    };

    add(cfg, Fig5Backend::kSequential);
    add(cfg, Fig5Backend::kSparCpu);
    table.add_separator();
    // The pre-optimization versions: one FindMatch kernel per block.
    {
      Fig5Config c = cfg;
      c.batched_kernel = false;
      add(c, Fig5Backend::kCudaSingle);
      add(c, Fig5Backend::kOclSingle);
      add(c, Fig5Backend::kSparCuda);
      add(c, Fig5Backend::kSparOcl);
    }
    table.add_separator();
    // Batch-optimized, 1x memory space.
    add(cfg, Fig5Backend::kCudaSingle);
    add(cfg, Fig5Backend::kOclSingle);
    add(cfg, Fig5Backend::kSparCuda);
    add(cfg, Fig5Backend::kSparOcl);
    table.add_separator();
    // Batch-optimized, 2x memory spaces.
    {
      Fig5Config c = cfg;
      c.mem_spaces = 2;
      add(c, Fig5Backend::kCudaSingle);
      add(c, Fig5Backend::kOclSingle);
      add(c, Fig5Backend::kSparCuda);
      add(c, Fig5Backend::kSparOcl);
    }
    if (variable) {
      table.add_separator();
      // DESIGN.md §4.3 ablation: PARSEC's original variable-size batches
      // (content-defined boundaries) instead of the fixed-size refactor.
      Fig5Result r = run_fig5(var_trace, cfg, Fig5Backend::kSparCuda);
      table.add_row({r.label + " variable-batches",
                     format_seconds(r.modeled_seconds),
                     format_fixed(r.throughput_mb_s, 1) + " MB/s",
                     std::to_string(r.kernel_launches)});
      json_rows.push_back({std::string(datagen::corpus_name(kind)),
                           r.label + " variable-batches", r.modeled_seconds,
                           r.throughput_mb_s, r.kernel_launches});
    }
    table.add_separator();
    // Multi-GPU (combined versions only, as in the paper).
    {
      Fig5Config c = cfg;
      c.devices = static_cast<int>(devices_or.value());
      add(c, Fig5Backend::kSparCuda);
      add(c, Fig5Backend::kSparOcl);
    }
    if (sched_mode == sched::SchedMode::kAdaptive) {
      table.add_separator();
      // Adaptive dispatch: batches go to the memory space whose device
      // frees up earliest instead of the replica's round-robin binding.
      // Single- and multi-GPU, so the single-GPU rows isolate the cost of
      // dynamic selection and the multi-GPU rows its benefit.
      {
        Fig5Config c = cfg;
        c.sched = sched::SchedMode::kAdaptive;
        add(c, Fig5Backend::kSparCuda);
        add(c, Fig5Backend::kSparOcl);
        c.devices = static_cast<int>(devices_or.value());
        add(c, Fig5Backend::kSparCuda);
        add(c, Fig5Backend::kSparOcl);
      }
    }

    if (csv) {
      table.render_csv(std::cout);
    } else {
      table.render(std::cout);
      std::cout << "\n";
    }
  }
  if (!csv) {
    std::cout << "paper findings reproduced: the batch optimization "
                 "dominates; SPar+CUDA is best overall; 2x memory spaces "
                 "help OpenCL but not CUDA (realloc'd buffers cannot be "
                 "page-locked).\n";
  }
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"fig5_dedup_throughput\",\n";
    json << "  \"input_bytes\": " << input_size << ",\n";
    json << "  \"replicas\": " << cfg.replicas << ",\n";
    json << "  \"batch_size\": " << cfg.dedup.batch_size << ",\n";
    json << "  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& r = json_rows[i];
      json << "    {\"dataset\": \"" << r.dataset << "\", \"label\": \""
           << r.label << "\", \"modeled_seconds\": " << r.modeled_seconds
           << ", \"throughput_mb_s\": " << r.throughput_mb_s
           << ", \"kernel_launches\": " << r.kernel_launches << "}"
           << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (Status s = write_file(json_path, json.str()); !s.ok()) {
      std::cerr << "[bench] " << s.ToString() << "\n";
      return 1;
    }
    std::fprintf(stderr, "[bench] json written to %s\n", json_path.c_str());
  }
  const bool functional =
      args.get_bool("functional", false) || args.has("workers-hash") ||
      args.has("workers-compress") || args.has("pin");
  if (functional) {
    if (int rc = run_functional(kinds, input_size, cfg.dedup, args); rc != 0) {
      return rc;
    }
  }
  if (const std::string dir = args.get_string("store", ""); !dir.empty()) {
    if (int rc = run_store_demo(dir, cfg.dedup); rc != 0) {
      return rc;
    }
  }
  if (const std::string spec = args.get_string("faults", ""); !spec.empty()) {
    if (int rc = run_fault_demo(spec, cfg.dedup, sched_mode); rc != 0) {
      return rc;
    }
  }
  if (const auto outs = benchtool::telemetry_outputs(args); outs.active()) {
    if (int rc = run_telemetry_demo(outs, cfg.dedup, sched_mode); rc != 0) {
      return rc;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
