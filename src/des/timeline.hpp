// Discrete-event timeline used to compute *modeled* execution times.
//
// The GPU simulator (src/gpusim) and the host-side performance model
// (src/perfmodel) both map work onto serial Engines (an SM cluster, a PCIe
// copy engine, a host hardware thread). Submitting a task of a given
// duration with dependencies yields its start/finish times under FIFO
// engine scheduling:
//
//   start  = max(engine_free_time, max(finish(dep) for dep in deps))
//   finish = start + duration
//
// There is no global event queue: because each engine is serial-FIFO and
// durations are known at submission, completion times are computable
// greedily in submission order, and a task's times are final the moment
// submit() returns them. Dependencies therefore reference already-submitted
// tasks by construction: a handle exists only because submit() returned it.
// This matches how CUDA streams and OpenCL in-order command queues
// serialize work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hs::des {

/// Virtual time in seconds.
using Time = double;

/// A submitted task: the handle is the task's own record, its start and
/// finish. The default value is "no task": not valid(), and it finishes at
/// 0, the time every reader reports for no task, so a dependency on it
/// delays nothing.
struct TaskId {
  Time start = -1;
  Time finish = 0;
  [[nodiscard]] bool valid() const { return start >= 0; }
  friend bool operator==(TaskId a, TaskId b) = default;
};

/// Handle to a serial engine registered on a Timeline.
struct EngineId {
  std::uint32_t index = 0;
  friend bool operator==(EngineId a, EngineId b) { return a.index == b.index; }
};

/// Aggregate statistics for one engine.
struct EngineStats {
  std::string name;
  Time busy = 0;          ///< sum of task durations executed on this engine
  Time free_at = 0;       ///< time the engine becomes idle
  std::uint64_t tasks = 0;
};

/// One recorded task, for trace export (kept only while recording is
/// enabled; see set_recording).
struct TraceEvent {
  std::string label;
  std::uint32_t engine = 0;
  Time start = 0;
  Time finish = 0;
};

/// The timeline: the registry of engines and their state. It keeps no
/// per-task log; a trace only while recording.
class Timeline {
 public:
  /// Registers a serial FIFO engine (e.g. "gpu0.compute").
  EngineId add_engine(std::string name);

  /// Submits a task of `duration` (>= 0) after every task in `deps`
  /// (invalid ids delay nothing). `label` names it in the trace when
  /// recording is enabled.
  TaskId submit(EngineId engine, Time duration,
                std::span<const TaskId> deps = {},
                std::string_view label = {});

  /// The latest-finishing of `deps` (no task when none is valid): waiting
  /// for all of them is waiting for it. Submits nothing; this is
  /// event / clWaitForEvents semantics.
  static TaskId join(std::span<const TaskId> deps);

  /// Enables per-task trace recording (off by default: figure benches
  /// submit millions of tasks; tracing is a debugging/visualization aid).
  void set_recording(bool enabled) { recording_ = enabled; }
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<TraceEvent>& trace_events() const {
    return trace_;
  }

  /// Finish time of the latest-finishing task submitted so far (the
  /// makespan of the modeled schedule).
  [[nodiscard]] Time makespan() const { return makespan_; }

  [[nodiscard]] std::size_t engine_count() const { return engines_.size(); }
  [[nodiscard]] const EngineStats& engine_stats(EngineId id) const;

 private:
  std::vector<EngineStats> engines_;
  bool recording_ = false;
  std::vector<TraceEvent> trace_;
  Time makespan_ = 0;
};

}  // namespace hs::des
