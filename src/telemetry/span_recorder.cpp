#include "telemetry/span_recorder.hpp"

#include <algorithm>

#include "common/format.hpp"
#include "des/trace_export.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::telemetry {

namespace {

// Per-thread cache of (recorder uid -> ring). A thread typically talks to
// one recorder, so the linear scan is one compare. Keyed by uid, not
// recorder address: addresses get reused, uids never do.
struct TlsRings {
  std::vector<std::pair<std::uint64_t, void*>> map;
};

TlsRings& tls_rings() {
  thread_local TlsRings rings;
  return rings;
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t ring_capacity)
    : uid_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(Clock::now()) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder& SpanRecorder::Default() {
  static SpanRecorder* instance = new SpanRecorder;  // leaked
  return *instance;
}

SpanRecorder::Ring* SpanRecorder::ring_for_this_thread() {
  TlsRings& tls = tls_rings();
  for (auto& [uid, ring] : tls.map) {
    if (uid == uid_) return static_cast<Ring*>(ring);
  }
  std::unique_ptr<Ring> ring = std::make_unique<Ring>(ring_capacity_);
  Ring* raw = ring.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->tid = static_cast<std::uint32_t>(rings_.size());
    rings_.push_back(std::move(ring));
    if (thread_names_.size() <= raw->tid) {
      thread_names_.resize(raw->tid + 1);
    }
  }
  tls.map.emplace_back(uid_, raw);
  return raw;
}

const char* SpanRecorder::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& s : interned_) {
    if (s == name) return s.c_str();
  }
  interned_.emplace_back(name);
  return interned_.back().c_str();
}

void SpanRecorder::set_thread_name(std::string_view name) {
  Ring* ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[ring->tid] = std::string(name);
}

void SpanRecorder::record(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  if (!recording()) return;
  Ring* ring = ring_for_this_thread();
  std::uint64_t n = ring->count.load(std::memory_order_relaxed);
  ring->slots[n % ring->slots.size()] = Span{name, start_ns, end_ns};
  ring->count.store(n + 1, std::memory_order_release);
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    std::uint64_t n = ring->count.load(std::memory_order_acquire);
    if (n > ring->slots.size()) dropped += n - ring->slots.size();
  }
  return dropped;
}

std::uint64_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += std::min<std::uint64_t>(
        ring->count.load(std::memory_order_acquire), ring->slots.size());
  }
  return total;
}

Result<std::string> SpanRecorder::chrome_trace_json() const {
  std::vector<std::string> tracks;
  std::vector<des::TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const std::string& name = thread_names_[ring->tid];
      tracks.push_back(name.empty() ? "t" + std::to_string(ring->tid) : name);
    }
    for (const auto& ring : rings_) {
      std::uint64_t n = ring->count.load(std::memory_order_acquire);
      std::uint64_t kept = std::min<std::uint64_t>(n, ring->slots.size());
      // Oldest surviving span first; ring indices wrap modulo capacity.
      for (std::uint64_t i = n - kept; i < n; ++i) {
        const Span& sp = ring->slots[i % ring->slots.size()];
        events.push_back(des::TraceEvent{
            sp.name != nullptr ? sp.name : "span", ring->tid,
            static_cast<double>(sp.start_ns) / 1e9,
            static_cast<double>(sp.end_ns) / 1e9});
      }
    }
  }
  return des::chrome_trace_json(tracks, events);
}

Status SpanRecorder::write_chrome_trace(const std::string& path) const {
  HS_ASSIGN_OR_RETURN(const std::string json, chrome_trace_json());
  return write_file(path, json);
}

void SpanRecorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->count.store(0, std::memory_order_relaxed);
  }
  for (auto& name : thread_names_) name.clear();
  epoch_ = Clock::now();
}

SpanRecorder* tracer() {
  if (!enabled()) return nullptr;
  SpanRecorder& rec = SpanRecorder::Default();
  return rec.recording() ? &rec : nullptr;
}

}  // namespace hs::telemetry
