#include "des/trace_export.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/format.hpp"

namespace hs::des {

Result<std::string> chrome_trace_json(std::span<const std::string> tracks,
                                      std::span<const TraceEvent> events) {
  if (events.empty()) {
    return FailedPrecondition(
        "nothing recorded: call set_recording(true) before the run");
  }
  std::string out = "{\"traceEvents\":[\n";
  const char* sep = "";
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out += std::exchange(sep, ",\n");
    out += R"({"ph":"M","pid":1,"tid":)" + std::to_string(t) +
           R"(,"name":"thread_name","args":{"name":")" +
           json_escape(tracks[t]) + "\"}}";
  }
  char times[96];
  for (const TraceEvent& ev : events) {
    out += std::exchange(sep, ",\n");
    std::string_view name = ev.label;
    if (name.empty()) name = "task";
    out += R"({"ph":"X","pid":1,"tid":)" + std::to_string(ev.engine) +
           R"(,"name":")" + json_escape(name);
    // Fixed-point microseconds with 3 decimals: nanosecond resolution at
    // any trace length (a default ostream keeps 6 significant digits).
    std::snprintf(times, sizeof times, R"(","ts":%.3f,"dur":%.3f})",
                  ev.start * 1e6, (ev.finish - ev.start) * 1e6);
    out += times;
  }
  out += "\n]}\n";
  return out;
}

Result<std::string> chrome_trace_json(const Timeline& timeline) {
  std::vector<std::string> tracks;
  tracks.reserve(timeline.engine_count());
  for (std::uint32_t e = 0; e < timeline.engine_count(); ++e) {
    tracks.push_back(timeline.engine_stats(EngineId{e}).name);
  }
  return chrome_trace_json(tracks, timeline.trace_events());
}

Status write_chrome_trace(const Timeline& timeline, const std::string& path) {
  HS_ASSIGN_OR_RETURN(const std::string json, chrome_trace_json(timeline));
  return write_file(path, json);
}

}  // namespace hs::des
