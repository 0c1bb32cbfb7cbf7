// Host-side performance model: a calibrated profile of the paper's testbed
// (Intel i9-7900X, 10C/20T @3.3 GHz + 2x Titan XP) and helpers for charging
// CPU stage costs onto the shared discrete-event timeline.
//
// Rationale (DESIGN.md §2): this machine has one physical core, so the
// figures cannot be reproduced by wall clock; instead every figure bench
// executes the *real algorithm structure* (the same loops, batches, stream
// round-robins, and synchronization points as the real implementations)
// while charging calibrated durations onto modeled host workers and the
// simulated devices. Speedups and crossovers then emerge from the schedule,
// not from assumptions.
//
// Calibration constants are tuned so the paper-scale Mandelbrot workload
// (dim=2000, niter=200000) lands near the paper's headline numbers
// (sequential ~400 s; 20-thread CPU ~17x; batched CUDA ~45x; see
// EXPERIMENTS.md for measured-vs-paper on every row).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "des/timeline.hpp"
#include "gpusim/device.hpp"

namespace hs::perfmodel {

/// Calibrated per-operation costs of the paper's host CPU.
struct HostProfile {
  int hw_threads = 20;  ///< i9-7900X: 10 cores / 20 threads

  // --- Mandelbrot ---
  /// Seconds per inner-loop iteration of one CPU hardware thread.
  double seconds_per_mandel_iter = 3.0e-9;
  /// Per-line display/collect cost (ShowLine): base + per pixel.
  double show_line_base = 1.0e-6;
  double show_line_per_pixel = 1.0e-9;

  // --- stream runtime overheads, per item per hop ---
  double flow_item_overhead = 1.2e-6;   ///< FastFlow-equivalent queues
  double spar_item_overhead = 1.3e-6;   ///< SPar: flow + annotation glue
  double taskx_item_overhead = 2.0e-6;  ///< TBB-equivalent token scheduling
  /// Cost of one GPU API enqueue (launch/copy call) on the host thread.
  double gpu_enqueue_overhead = 4.0e-6;

  // --- Dedup stage costs ---
  double seconds_per_rabin_byte = 1.1e-9;
  double seconds_per_sha1_round = 1.5e-7;     ///< per 64-byte block round
  double seconds_per_dupcheck = 3.0e-7;       ///< hash-table probe per block
  double seconds_per_lzss_unit = 1.4e-9;      ///< per match-cost unit (CPU)
  double seconds_per_output_byte = 0.35e-9;   ///< reorder+write stage
  double seconds_per_encode_byte = 2.0e-9;    ///< CPU walk over matches

  /// The paper's testbed profile (defaults above).
  static HostProfile I9_7900X() { return HostProfile{}; }
};

/// A modeled host worker thread: a serial engine on the machine's timeline
/// whose tasks chain after one another, with explicit extra dependencies
/// for synchronization points (stream syncs, event waits).
class ModeledHost {
 public:
  ModeledHost(gpusim::Machine* machine, std::string name)
      : machine_(machine),
        engine_(machine->add_host_engine(std::move(name))) {}

  /// Charges `seconds` of work after this worker's previous task and all
  /// of `deps`. Returns the new task (also remembered as the chain tail).
  des::TaskId work(double seconds, std::span<const des::TaskId> deps = {});

  /// Charges work after the previous task and one extra dependency (pass
  /// an invalid id for none).
  des::TaskId work_after(double seconds, des::TaskId dep);

  /// Blocks (virtually) until `dep` completes: zero-cost wait that moves
  /// this worker's chain tail to max(tail, dep).
  des::TaskId wait(des::TaskId dep) { return work_after(0.0, dep); }

  [[nodiscard]] des::TaskId tail() const { return tail_; }
  [[nodiscard]] des::EngineId engine() const { return engine_; }
  [[nodiscard]] double finish_time() const { return tail_.finish; }

 private:
  gpusim::Machine* machine_;
  des::EngineId engine_;
  des::TaskId tail_{};
};

/// Bridges a modeled-host task into a device stream: ops enqueued on
/// `stream` after this call cannot start before `host_task` finishes
/// (a kernel cannot run before the host thread has issued it).
inline void stream_wait_host(gpusim::Device& device, gpusim::StreamId stream,
                             des::TaskId host_task) {
  if (host_task.valid()) {
    (void)device.wait_event(stream, gpusim::OpHandle{host_task});
  }
}

}  // namespace hs::perfmodel
