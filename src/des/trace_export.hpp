// Chrome-trace (chrome://tracing / Perfetto) export: the one writer of the
// trace schema that modeled (des) and measured (telemetry::SpanRecorder)
// timelines share, so the two load side by side. The schema is a
// thread_name metadata event per track, then one complete ("X") event per
// task or span, each written as
//
//   {"ph":"X","pid":1,"tid":N,"name":"...","ts":...,"dur":...}
//
// with ts and dur in microseconds printed in fixed point to the nanosecond.
// Load the produced JSON in https://ui.perfetto.dev to inspect how a
// modeled schedule (e.g. one Fig. 1 variant) overlaps copies, kernels, and
// host work.
#pragma once

#include <span>
#include <string>

#include "common/status.hpp"
#include "des/timeline.hpp"

namespace hs::des {

/// Serializes `events` as Chrome trace-event JSON: `tracks[i]` names track
/// i, and each event's `engine` is its track. Unlabeled events are named
/// "task". FAILED_PRECONDITION when `events` is empty (nothing recorded).
Result<std::string> chrome_trace_json(std::span<const std::string> tracks,
                                      std::span<const TraceEvent> events);

/// A recorded timeline's trace, one track per engine. Requires
/// set_recording(true) before the tasks of interest were submitted.
Result<std::string> chrome_trace_json(const Timeline& timeline);

/// Writes chrome_trace_json(timeline) to `path`.
Status write_chrome_trace(const Timeline& timeline, const std::string& path);

}  // namespace hs::des
