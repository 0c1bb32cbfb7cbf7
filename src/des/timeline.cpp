#include "des/timeline.hpp"

#include <algorithm>
#include <cassert>

namespace hs::des {

EngineId Timeline::add_engine(std::string name) {
  EngineId id{static_cast<std::uint32_t>(engines_.size())};
  engines_.push_back(EngineStats{std::move(name), 0, 0, 0});
  return id;
}

TaskId Timeline::submit(EngineId engine, Time duration,
                        std::span<const TaskId> deps,
                        std::string_view label) {
  assert(engine.index < engines_.size());
  assert(duration >= 0 && "negative task duration");
  EngineStats& e = engines_[engine.index];
  Time start = e.free_at;
  for (TaskId dep : deps) start = std::max(start, dep.finish);
  Time finish = start + duration;
  e.free_at = finish;
  e.busy += duration;
  e.tasks += 1;
  makespan_ = std::max(makespan_, finish);
  if (recording_) {
    trace_.push_back(TraceEvent{std::string(label), engine.index, start,
                                finish});
  }
  return TaskId{start, finish};
}

TaskId Timeline::join(std::span<const TaskId> deps) {
  TaskId latest{};
  for (TaskId dep : deps) {
    if (dep.valid() && (!latest.valid() || dep.finish > latest.finish)) {
      latest = dep;
    }
  }
  return latest;
}

const EngineStats& Timeline::engine_stats(EngineId id) const {
  assert(id.index < engines_.size());
  return engines_[id.index];
}

}  // namespace hs::des
