#include "flow/pipeline.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <variant>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/backoff.hpp"
#include "flow/spsc_queue.hpp"
#include "telemetry/queue_sampler.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::flow {

std::string FailureReport::ToString() const {
  std::string out;
  for (const StageFailure& f : failures) {
    if (!out.empty()) out += "; ";
    out += f.stage + ": " + f.status.ToString();
  }
  return out;
}

namespace {

/// Internal transport: items plus control markers.
enum class EnvKind : std::uint8_t {
  kItem,
  kHole,  ///< ordered-farm worker consumed an input without output
  kEos,
};

struct Envelope {
  EnvKind kind = EnvKind::kEos;
  std::uint64_t seq = 0;
  Item item;
};

/// Best-effort affinity: pins `thread` to `cpu`. Returns true only when the
/// kernel accepted the mask; platforms without pthread affinity always
/// return false, leaving the thread free-running.
bool pin_thread_to_cpu(std::thread& thread, int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)thread;
  (void)cpu;
  return false;
#endif
}

/// Shared run state: abort flag, per-stage failures, and a progress counter
/// the watchdog monitors (bumped on every queue transfer and completed svc).
struct RunState {
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> progress{0};
  std::mutex mu;
  std::vector<StageFailure> failures;

  void fail(std::string stage, Status s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back(StageFailure{std::move(stage), std::move(s)});
    }
    abort.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool aborted() const {
    return abort.load(std::memory_order_acquire);
  }
  void tick() { progress.fetch_add(1, std::memory_order_relaxed); }
};

/// An SPSC queue with blocking push/pop honoring the wait mode and abort.
/// In kBlocking mode, waiters park on a condition variable and the
/// counterpart side notifies after every operation (a bounded wait guards
/// against the classic lost-wakeup race without a lock on the fast path).
class Channel {
 public:
  Channel(std::size_t capacity, WaitMode mode, RunState* state,
          telemetry::Counter* full_counter)
      : queue_(capacity),
        mode_(mode),
        state_(state),
        full_counter_(full_counter) {}

  /// Blocks until pushed; returns false only when the run aborted.
  bool push(Envelope&& env) {
    Backoff backoff;
    bool counted_full = false;
    while (!queue_.try_push(std::move(env))) {
      if (!counted_full) {
        // One tick per push that found the queue full, not per retry
        // iteration — a spinning producer would otherwise dominate the
        // counter with meaningless retry counts.
        counted_full = true;
        if (full_counter_ != nullptr) full_counter_->add(1);
      }
      if (state_->aborted()) return false;
      wait(cv_not_full_, backoff);
    }
    ++pushed_;
    state_->tick();
    if (mode_ == WaitMode::kBlocking) cv_not_empty_.notify_one();
    return true;
  }

  /// Producer only: envelopes pushed that the consumer has not finished
  /// handling — queued, popped into its burst, or in its svc(). The
  /// least-loaded router balances on this, not on depth(): a worker that
  /// drained its queue into a burst, or is still serving its last item,
  /// is busy though its queue is empty.
  [[nodiscard]] std::uint64_t pending() const {
    return pushed_ - handled_.load(std::memory_order_acquire);
  }

  /// Consumer only: one popped envelope is fully handled.
  void mark_handled() {
    handled_.store(handled_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }

  /// Instantaneous depth/capacity for the telemetry queue sampler.
  [[nodiscard]] std::size_t depth() const { return queue_.size_approx(); }
  [[nodiscard]] std::size_t queue_capacity() const {
    return queue_.capacity();
  }

  /// Blocks until popped; returns false only when the run aborted *and*
  /// the queue is empty (drain-before-abort keeps teardown deterministic
  /// for upstream EOS envelopes already queued).
  bool pop(Envelope& out) {
    Backoff backoff;
    while (!queue_.try_pop(out)) {
      if (state_->aborted()) return false;
      wait(cv_not_empty_, backoff);
    }
    state_->tick();
    if (mode_ == WaitMode::kBlocking) cv_not_full_.notify_one();
    return true;
  }

  bool try_pop(Envelope& out) {
    bool ok = queue_.try_pop(out);
    if (ok) {
      state_->tick();
      if (mode_ == WaitMode::kBlocking) cv_not_full_.notify_one();
    }
    return ok;
  }

  /// Blocks until at least one envelope arrives, then drains up to `max`
  /// under a single acquire/release round-trip (FastFlow-style burst
  /// transfer). Returns 0 only when the run aborted with the queue empty.
  std::size_t pop_burst(Envelope* out, std::size_t max) {
    Backoff backoff;
    std::size_t n;
    while ((n = queue_.try_pop_n(out, max)) == 0) {
      if (state_->aborted()) return 0;
      wait(cv_not_empty_, backoff);
    }
    state_->tick();
    if (mode_ == WaitMode::kBlocking) cv_not_full_.notify_one();
    return n;
  }

 private:
  /// One wait step: park on `cv` (kBlocking) or back off (kBackoff).
  void wait(std::condition_variable& cv, Backoff& backoff) {
    if (mode_ == WaitMode::kBlocking) {
      std::unique_lock<std::mutex> lock(cv_mu_);
      cv.wait_for(lock, std::chrono::milliseconds(1));
      return;
    }
    backoff.pause();
  }

  SpscQueue<Envelope> queue_;
  std::uint64_t pushed_ = 0;  // producer-owned
  WaitMode mode_;
  RunState* state_;
  telemetry::Counter* full_counter_;
  std::mutex cv_mu_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  // Consumer-written, on a line of its own so the producer's fields stay
  // put in its cache.
  alignas(64) std::atomic<std::uint64_t> handled_{0};
};

using Clock = std::chrono::steady_clock;

/// Base of all runtime threads.
class Unit {
 public:
  Unit(std::string name, RunState* state)
      : name_(std::move(name)), state_(state) {}
  virtual ~Unit() = default;

  /// Point this unit at telemetry sinks (called once at graph build, before
  /// the thread launches). `span_name` must be interned/static.
  void attach_telemetry(telemetry::Histogram* svc_hist,
                        telemetry::Counter* items,
                        telemetry::SpanRecorder* spans,
                        const char* span_name) {
    svc_hist_ = svc_hist;
    items_counter_ = items;
    spans_ = spans;
    span_name_ = span_name;
  }

  void operator()() {
    if (spans_ != nullptr) spans_->set_thread_name(name_);
    try {
      run();
    } catch (const std::exception& e) {
      state_->fail(name_, Internal(name_ + ": " + e.what()));
      propagate_eos_on_abort();
    } catch (...) {
      state_->fail(name_, Internal(name_ + ": unknown exception"));
      propagate_eos_on_abort();
    }
    done_.store(true, std::memory_order_release);
  }

  virtual void run() = 0;
  /// Best effort: after a failure, push EOS downstream so peers unwind.
  virtual void propagate_eos_on_abort() {}

  [[nodiscard]] const std::string& name() const { return name_; }
  /// True once the unit's thread function returned (the thread is joinable
  /// without blocking).
  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  /// True while user code (svc) is on this unit's stack — the watchdog's
  /// culprit heuristic.
  [[nodiscard]] bool in_user_code() const {
    return in_svc_.load(std::memory_order_acquire);
  }

 protected:
  /// Runs one svc call with the in-user-code flag raised and a progress
  /// tick on completion (so a pipeline whose queues are idle but whose
  /// stages still finish work is not flagged as stalled). When telemetry is
  /// attached the call is timed once and the two clock reads feed both the
  /// service-time histogram and the span.
  template <typename F>
  SvcResult guarded_svc(F&& f) {
    in_svc_.store(true, std::memory_order_release);
    SvcResult r;
    if (svc_hist_ != nullptr || spans_ != nullptr) {
      const auto t0 = Clock::now();
      r = f();
      const auto t1 = Clock::now();
      if (svc_hist_ != nullptr) {
        svc_hist_->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      if (spans_ != nullptr) {
        spans_->record(span_name_, spans_->to_ns(t0), spans_->to_ns(t1));
      }
    } else {
      r = f();
    }
    in_svc_.store(false, std::memory_order_release);
    state_->tick();
    return r;
  }

  /// Bumps the per-stage item counter.
  void count_item() {
    if (items_counter_ != nullptr) items_counter_->add(1);
  }

  std::string name_;
  RunState* state_;
  telemetry::Histogram* svc_hist_ = nullptr;
  telemetry::Counter* items_counter_ = nullptr;
  telemetry::SpanRecorder* spans_ = nullptr;
  const char* span_name_ = "";
  std::atomic<bool> done_{false};
  std::atomic<bool> in_svc_{false};
};

/// Routes items from a node to one or more downstream channels, stamping
/// sequence numbers. Implements the Node's emit() port.
class Router final : public OutPort {
 public:
  Router(std::vector<Channel*> outs, SchedPolicy policy,
         const FarmController* controller = nullptr)
      : outs_(std::move(outs)), policy_(policy), controller_(controller) {}

  /// Downstream channels currently eligible for items. With an attached
  /// FarmController only the first `active` workers are fed; EOS broadcast
  /// still reaches every channel so parked replicas terminate.
  [[nodiscard]] std::size_t active_outs() const {
    if (controller_ == nullptr) return outs_.size();
    const int a = controller_->active();
    if (a < 1) return 1;
    return std::min(outs_.size(), static_cast<std::size_t>(a));
  }

  /// Routes an item envelope with an explicit sequence number.
  bool route(Envelope&& env) {
    if (outs_.empty()) return true;  // sink: outputs are dropped
    const std::size_t n = active_outs();
    if (n == 1) return outs_[0]->push(std::move(env));
    if (policy_ == SchedPolicy::kLeastLoaded) {
      // Route to the worker with the fewest unfinished items (ties to the
      // lowest index): a worker sitting on a backlog is never fed while a
      // less loaded sibling exists, so one slow worker cannot capture the
      // stream at the emitter, and an idle worker wins over a busy one.
      std::size_t best = 0;
      std::uint64_t best_load = outs_[0]->pending();
      for (std::size_t i = 1; i < n && best_load != 0; ++i) {
        const std::uint64_t load = outs_[i]->pending();
        if (load < best_load) {
          best = i;
          best_load = load;
        }
      }
      return outs_[best]->push(std::move(env));
    }
    std::size_t i = next_ % n;
    ++next_;
    return outs_[i]->push(std::move(env));
  }

  /// OutPort: emit() from inside svc. Stamps the router's current sequence.
  bool send(Item item) override {
    Envelope env;
    env.kind = EnvKind::kItem;
    env.seq = seq_++;
    env.item = std::move(item);
    return route(std::move(env));
  }

  bool broadcast_eos() {
    bool ok = true;
    for (Channel* c : outs_) {
      Envelope env;
      env.kind = EnvKind::kEos;
      ok = c->push(std::move(env)) && ok;
    }
    return ok;
  }

  [[nodiscard]] std::uint64_t next_seq() const { return seq_; }
  std::uint64_t take_seq() { return seq_++; }
  void set_seq(std::uint64_t s) { seq_ = s; }

 private:
  std::vector<Channel*> outs_;
  SchedPolicy policy_;
  const FarmController* controller_;
  std::size_t next_ = 0;
  std::uint64_t seq_ = 0;
};

/// First pipeline stage: repeatedly calls svc(empty) until Eos.
class SourceUnit final : public Unit {
 public:
  SourceUnit(std::string name, RunState* state, Node* node, Router router)
      : Unit(std::move(name), state),
        node_(node),
        router_(std::move(router)) {}

  void run() override {
    NodeAccess::bind(*node_, &router_, /*emit_allowed=*/true);
    node_->on_init(0);
    while (!state_->aborted()) {
      SvcResult r = guarded_svc([&] { return node_->svc(Item{}); });
      if (r.kind == SvcResult::Kind::kEos) break;
      if (r.kind == SvcResult::Kind::kItem) {
        count_item();
        Envelope env;
        env.kind = EnvKind::kItem;
        env.seq = router_.take_seq();
        env.item = std::move(r.item);
        if (!router_.route(std::move(env))) break;
      }
    }
    node_->on_end();
    router_.broadcast_eos();
    NodeAccess::unbind(*node_);
  }

  void propagate_eos_on_abort() override { router_.broadcast_eos(); }

 private:
  Node* node_;
  Router router_;
};

/// Middle/sink stage (also farm workers): one input channel, svc per item.
class StageUnit final : public Unit {
 public:
  StageUnit(std::string name, RunState* state, Node* node, Channel* in,
            Router router, bool propagate_seq, int replica_id,
            bool is_sink = false)
      : Unit(std::move(name), state),
        node_(node),
        in_(in),
        router_(std::move(router)),
        propagate_seq_(propagate_seq),
        replica_id_(replica_id),
        is_sink_(is_sink) {}

  /// Counter for deadline-expired items this stage skipped (may be null).
  void set_deadline_counter(telemetry::Counter* counter) {
    deadline_counter_ = counter;
  }

  void run() override {
    NodeAccess::bind(*node_, &router_, /*emit_allowed=*/!propagate_seq_);
    node_->on_init(replica_id_);
    // Burst transfer: drain up to kBurst envelopes per queue round-trip.
    // EOS is always the producer's final envelope on this SPSC channel, so
    // nothing can follow it inside a burst; items buffered when svc returns
    // EOS are destroyed exactly as they would be if left unconsumed in the
    // queue.
    constexpr std::size_t kBurst = 8;
    Envelope burst[kBurst];
    bool running = true;
    std::size_t n;
    while (running && (n = in_->pop_burst(burst, kBurst)) > 0) {
      for (std::size_t i = 0; i < n && running; ++i) {
        // Envelope i-1 is done: it leaves its producer's pending() count.
        if (i > 0) in_->mark_handled();
        Envelope& env = burst[i];
        if (env.kind == EnvKind::kEos) {
          running = false;
          break;
        }
        if (env.kind == EnvKind::kHole) continue;  // holes die at collectors
        count_item();
        std::uint64_t seq = env.seq;
        // Deadline budget: an expired item is not serviced by a non-sink
        // stage — it is forwarded unchanged (sequence preserved) so the
        // sink can complete its ticket as a miss, and counted once, by the
        // first stage that saw the deadline pass. Items without a deadline
        // (deadline_ns == 0, every pre-serve caller) cost one branch.
        if (env.item.deadline_ns() != 0 && !is_sink_) {
          if (!env.item.deadline_expired() &&
              deadline_clock_now() > env.item.deadline_ns()) {
            env.item.mark_deadline_expired();
            if (deadline_counter_ != nullptr) deadline_counter_->add(1);
          }
          if (env.item.deadline_expired()) {
            Envelope fwd;
            fwd.kind = EnvKind::kItem;
            fwd.seq = propagate_seq_ ? seq : router_.take_seq();
            fwd.item = std::move(env.item);
            if (!router_.route(std::move(fwd))) running = false;
            continue;
          }
        }
        SvcResult r =
            guarded_svc([&] { return node_->svc(std::move(env.item)); });
        if (r.kind == SvcResult::Kind::kEos) {
          running = false;
          break;
        }
        Envelope out;
        out.seq = propagate_seq_ ? seq : router_.take_seq();
        if (r.kind == SvcResult::Kind::kItem) {
          out.kind = EnvKind::kItem;
          out.item = std::move(r.item);
          if (!router_.route(std::move(out))) running = false;
        } else if (propagate_seq_) {
          // Ordered farm: the collector must learn this sequence was
          // dropped.
          out.kind = EnvKind::kHole;
          if (!router_.route(std::move(out))) running = false;
        }
      }
      in_->mark_handled();  // the burst's last envelope
    }
    node_->on_end();
    router_.broadcast_eos();
    NodeAccess::unbind(*node_);
  }

  void propagate_eos_on_abort() override { router_.broadcast_eos(); }

 private:
  Node* node_;
  Channel* in_;
  Router router_;
  bool propagate_seq_;
  int replica_id_;
  bool is_sink_;
  telemetry::Counter* deadline_counter_ = nullptr;
};

/// Farm front-end: stamps sequence numbers and schedules items to workers.
class EmitterUnit final : public Unit {
 public:
  EmitterUnit(std::string name, RunState* state, Channel* in, Router router)
      : Unit(std::move(name), state),
        in_(in),
        router_(std::move(router)) {}

  void run() override {
    constexpr std::size_t kBurst = 8;
    Envelope burst[kBurst];
    bool running = true;
    std::size_t n;
    while (running && (n = in_->pop_burst(burst, kBurst)) > 0) {
      for (std::size_t i = 0; i < n && running; ++i) {
        Envelope& env = burst[i];
        if (env.kind == EnvKind::kEos) {
          running = false;
          break;
        }
        env.seq = router_.take_seq();  // restamp in arrival order
        if (!router_.route(std::move(env))) running = false;
      }
    }
    router_.broadcast_eos();
  }

  void propagate_eos_on_abort() override { router_.broadcast_eos(); }

 private:
  Channel* in_;
  Router router_;
};

/// Farm back-end: merges worker outputs, optionally restoring order.
class CollectorUnit final : public Unit {
 public:
  CollectorUnit(std::string name, RunState* state,
                std::vector<Channel*> ins, Router router, bool ordered)
      : Unit(std::move(name), state),
        ins_(std::move(ins)),
        router_(std::move(router)),
        ordered_(ordered) {}

  void run() override {
    std::size_t eos_seen = 0;
    std::size_t cursor = 0;
    Backoff backoff;
    while (eos_seen < ins_.size()) {
      Envelope env;
      bool got = false;
      for (std::size_t probe = 0; probe < ins_.size(); ++probe) {
        std::size_t i = (cursor + probe) % ins_.size();
        if (ins_[i]->try_pop(env)) {
          cursor = i + 1;
          got = true;
          break;
        }
      }
      if (!got) {
        // Drained every input: on abort the missing EOS sentinels will
        // never arrive (a worker may have died before broadcasting), so
        // stop merging instead of spinning forever.
        if (state_->aborted()) break;
        backoff.pause();
        continue;
      }
      backoff.reset();
      if (env.kind == EnvKind::kEos) {
        ++eos_seen;
        continue;
      }
      if (ordered_) {
        if (!deliver_ordered(std::move(env))) return;
      } else if (env.kind == EnvKind::kItem) {
        if (!forward(std::move(env.item))) return;
      }
    }
    if (ordered_) flush_pending();
    router_.broadcast_eos();
  }

  void propagate_eos_on_abort() override { router_.broadcast_eos(); }

 private:
  bool forward(Item item) {
    Envelope out;
    out.kind = EnvKind::kItem;
    out.seq = router_.take_seq();
    out.item = std::move(item);
    return router_.route(std::move(out));
  }

  bool deliver_ordered(Envelope&& env) {
    pending_.emplace(env.seq, std::move(env));
    while (!pending_.empty() && pending_.begin()->first == next_expected_) {
      Envelope e = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_expected_;
      if (e.kind == EnvKind::kItem && !forward(std::move(e.item))) return false;
    }
    return true;
  }

  void flush_pending() {
    // After all workers EOS'd every remaining envelope is contiguous only
    // if no sequence was lost; forward what is left in order regardless —
    // the alternative (dropping) would silently lose data on abort.
    for (auto& [seq, e] : pending_) {
      if (e.kind == EnvKind::kItem) {
        if (!forward(std::move(e.item))) return;
      }
    }
    pending_.clear();
  }

  std::vector<Channel*> ins_;
  Router router_;
  bool ordered_;
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Envelope> pending_;
};

/// Graph description element.
struct PlainStage {
  std::unique_ptr<Node> node;
  std::string name;
};
struct FarmStage {
  std::function<std::unique_ptr<Node>()> factory;
  FarmOptions options;
  std::string name;
};
using StageDesc = std::variant<PlainStage, FarmStage>;

/// Everything a runtime thread touches. Shared (via shared_ptr) between the
/// Pipeline and the threads themselves so that a thread detached by the
/// watchdog can keep running against valid nodes/channels/state even after
/// run_and_wait() returned and the Pipeline was destroyed.
struct RunCore {
  PipelineOptions options;
  std::vector<std::unique_ptr<Node>> nodes;  // every node the units reference
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::string> channel_labels;
  std::vector<std::unique_ptr<Unit>> units;
  RunState state;

  // Telemetry sinks resolved at run start (null when not instrumented).
  telemetry::StreamInstrumentation instr;
  telemetry::Counter* queue_full_counter = nullptr;
  telemetry::Counter* watchdog_counter = nullptr;
  telemetry::Counter* deadline_counter = nullptr;
  std::vector<std::uint64_t> sampler_ids;

  // Completion signalling for run_and_wait's supervision loop.
  std::mutex comp_mu;
  std::condition_variable comp_cv;
  std::size_t done_count = 0;

  Channel* new_channel(std::string label) {
    channels.push_back(std::make_unique<Channel>(
        options.queue_capacity, options.wait_mode, &state,
        queue_full_counter));
    channel_labels.push_back(std::move(label));
    return channels.back().get();
  }

  /// Register every channel with the sampler as "<prefix>.<label>"; the
  /// depth lambdas reference channels this core owns, so they stay valid
  /// until unregister_queues() (called before run_and_wait returns).
  void register_queues() {
    if (instr.sampler == nullptr) return;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      sampler_ids.push_back(instr.sampler->add_queue(
          instr.prefix + "." + channel_labels[i],
          [ch = channels[i].get()] { return ch->depth(); },
          channels[i]->queue_capacity()));
    }
  }

  void unregister_queues() {
    if (instr.sampler == nullptr) return;
    for (std::uint64_t id : sampler_ids) instr.sampler->remove_queue(id);
    sampler_ids.clear();
  }

  void signal_done() {
    {
      std::lock_guard<std::mutex> lock(comp_mu);
      ++done_count;
    }
    comp_cv.notify_all();
  }
};

}  // namespace

struct Pipeline::Impl {
  PipelineOptions options;
  std::vector<StageDesc> stages;
  std::shared_ptr<RunCore> core;
  // Threads still running when run_and_wait() returned after a watchdog
  // abort, paired with their units. The destructor reaps them.
  std::vector<std::pair<std::thread, Unit*>> stragglers;
  FailureReport failure_report;
  // Resolved at run start so the destructor's reaper can count detaches
  // without consulting the (possibly global) telemetry gate again.
  telemetry::Counter* straggler_counter = nullptr;
  bool ran = false;
};

Pipeline::Pipeline(PipelineOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

Pipeline::~Pipeline() {
  Impl& im = *impl_;
  if (im.stragglers.empty()) return;
  // Bounded reaper for threads that were still wedged when the watchdog
  // aborted the run. Node callables routinely capture references to the
  // caller's stack (declared before the Pipeline, so still alive here);
  // giving the stragglers one more grace period to observe the abort and
  // unwind lets the common slow-but-finite case finish safely joined.
  // Only a thread that is *still* wedged after the grace period is
  // detached — its shared_ptr<RunCore> keeps the runtime's own state
  // alive, but any caller state its node references must outlive the
  // process (see PipelineOptions::stall_timeout_seconds).
  const auto grace = std::chrono::duration<double>(
      std::max(im.options.stall_timeout_seconds, 1.0));
  std::shared_ptr<RunCore> core = im.core;
  {
    std::unique_lock<std::mutex> lock(core->comp_mu);
    core->comp_cv.wait_for(lock, grace, [&] {
      return core->done_count >= core->units.size();
    });
  }
  for (auto& [thread, unit] : im.stragglers) {
    if (unit->done()) {
      thread.join();
    } else {
      if (im.straggler_counter != nullptr) im.straggler_counter->add(1);
      thread.detach();  // kept safe by the thread's shared_ptr<RunCore>
    }
  }
}

void Pipeline::add_stage(std::unique_ptr<Node> node, std::string name) {
  assert(node && "null stage");
  impl_->stages.push_back(PlainStage{std::move(node), std::move(name)});
}

void Pipeline::add_farm(std::function<std::unique_ptr<Node>()> worker_factory,
                        FarmOptions options, std::string name) {
  assert(worker_factory && "null worker factory");
  assert(options.replicas >= 1);
  if (options.controller != nullptr) options.controller->bind(options.replicas);
  impl_->stages.push_back(
      FarmStage{std::move(worker_factory), options, std::move(name)});
}

int Pipeline::thread_count() const {
  int n = 0;
  for (const StageDesc& s : impl_->stages) {
    if (std::holds_alternative<PlainStage>(s)) {
      n += 1;
    } else {
      n += std::get<FarmStage>(s).options.replicas + 2;  // emitter+collector
    }
  }
  return n;
}

Status Pipeline::run_and_wait() {
  Impl& im = *impl_;
  if (im.ran) return FailedPrecondition("pipeline already ran");
  im.ran = true;

  if (im.stages.size() < 2) {
    return InvalidArgument("pipeline needs at least a source and a sink");
  }
  if (!std::holds_alternative<PlainStage>(im.stages.front())) {
    return InvalidArgument("first stage must be a plain source, not a farm");
  }
  if (!std::holds_alternative<PlainStage>(im.stages.back())) {
    return InvalidArgument("last stage must be a plain sink, not a farm");
  }

  im.core = std::make_shared<RunCore>();
  std::shared_ptr<RunCore> core = im.core;
  core->options = im.options;

  // Telemetry: an explicitly supplied bundle wins; otherwise fall back to
  // the process singletons iff telemetry::set_enabled(true) is in effect.
  core->instr = im.options.telemetry.active()
                    ? im.options.telemetry
                    : telemetry::default_instrumentation();
  if (core->instr.active() && core->instr.prefix.empty()) {
    core->instr.prefix = "flow";
  }
  if (core->instr.registry != nullptr) {
    core->queue_full_counter =
        core->instr.registry->counter(core->instr.prefix + ".queue_full");
    core->watchdog_counter = core->instr.registry->counter(
        core->instr.prefix + ".watchdog_aborts");
    core->deadline_counter = core->instr.registry->counter(
        core->instr.prefix + ".deadline_drops");
    im.straggler_counter = core->instr.registry->counter(
        core->instr.prefix + ".stragglers_detached");
  }
  auto attach_telemetry = [&core](Unit* u, const std::string& unit_name) {
    if (!core->instr.active()) return;
    telemetry::Histogram* hist = nullptr;
    telemetry::Counter* items = nullptr;
    if (core->instr.registry != nullptr) {
      hist = core->instr.registry->histogram(core->instr.prefix + "." +
                                             unit_name + ".svc_ns");
      items = core->instr.registry->counter(core->instr.prefix + "." +
                                            unit_name + ".items");
    }
    telemetry::SpanRecorder* spans = core->instr.spans;
    const char* span_name =
        spans != nullptr ? spans->intern(unit_name) : "";
    u->attach_telemetry(hist, items, spans, span_name);
  };

  // Wire stages back to front so each stage knows its downstream channel(s).
  // `entry` = the channel feeding the already-built downstream subgraph.
  Channel* entry = nullptr;
  std::vector<std::unique_ptr<Unit>>& units = core->units;

  for (std::size_t idx = im.stages.size(); idx-- > 0;) {
    StageDesc& desc = im.stages[idx];
    const bool is_source = idx == 0;
    std::vector<Channel*> outs;
    if (entry != nullptr) outs.push_back(entry);

    if (auto* plain = std::get_if<PlainStage>(&desc)) {
      Node* node = plain->node.get();
      core->nodes.push_back(std::move(plain->node));
      Router router(outs, SchedPolicy::kRoundRobin);
      if (is_source) {
        units.push_back(std::make_unique<SourceUnit>(
            plain->name, &core->state, node, std::move(router)));
        entry = nullptr;
      } else {
        Channel* in = core->new_channel(plain->name + ".in");
        auto stage_unit = std::make_unique<StageUnit>(
            plain->name, &core->state, node, in, std::move(router),
            /*propagate_seq=*/false, /*replica_id=*/0,
            /*is_sink=*/idx == im.stages.size() - 1);
        stage_unit->set_deadline_counter(core->deadline_counter);
        units.push_back(std::move(stage_unit));
        entry = in;
      }
      attach_telemetry(units.back().get(), plain->name);
      continue;
    }

    auto& farm = std::get<FarmStage>(desc);
    // collector: worker channels -> entry
    std::vector<Channel*> worker_outs;
    worker_outs.reserve(static_cast<std::size_t>(farm.options.replicas));
    for (int w = 0; w < farm.options.replicas; ++w) {
      worker_outs.push_back(
          core->new_channel(farm.name + ".w" + std::to_string(w) + ".out"));
    }
    units.push_back(std::make_unique<CollectorUnit>(
        farm.name + ".collector", &core->state, worker_outs,
        Router(outs, SchedPolicy::kRoundRobin), farm.options.ordered));

    // workers: per-worker in channel -> per-worker out channel
    std::vector<Channel*> worker_ins;
    worker_ins.reserve(static_cast<std::size_t>(farm.options.replicas));
    for (int w = 0; w < farm.options.replicas; ++w) {
      const std::string worker_name = farm.name + ".w" + std::to_string(w);
      Channel* win = core->new_channel(worker_name + ".in");
      worker_ins.push_back(win);
      auto node = farm.factory();
      assert(node && "worker factory returned null");
      auto worker_unit = std::make_unique<StageUnit>(
          worker_name, &core->state, node.get(), win,
          Router({worker_outs[static_cast<std::size_t>(w)]},
                 SchedPolicy::kRoundRobin),
          /*propagate_seq=*/farm.options.ordered, /*replica_id=*/w);
      worker_unit->set_deadline_counter(core->deadline_counter);
      units.push_back(std::move(worker_unit));
      core->nodes.push_back(std::move(node));
      attach_telemetry(units.back().get(), worker_name);
    }

    // emitter: in channel -> worker channels (the controller, if any, bounds
    // how many of them receive items — see FarmController).
    Channel* farm_in = core->new_channel(farm.name + ".in");
    units.push_back(std::make_unique<EmitterUnit>(
        farm.name + ".emitter", &core->state, farm_in,
        Router(worker_ins, farm.options.policy, farm.options.controller)));
    entry = farm_in;
  }

  // Channels are all built: expose their depths to the sampler for the
  // duration of the run.
  core->register_queues();

  // Launch all units. Threads capture the shared core so a detached stuck
  // thread can never outlive the state it references.
  std::vector<std::thread> threads;
  threads.reserve(units.size());
  const int ncores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (auto& unit : units) {
    Unit* u = unit.get();
    threads.emplace_back([core, u] {
      (*u)();
      core->signal_done();
    });
    if (im.options.pin) {
      const int cpu = static_cast<int>(threads.size() - 1) % ncores;
      const int pinned = pin_thread_to_cpu(threads.back(), cpu) ? cpu : -1;
      if (core->instr.registry != nullptr) {
        core->instr.registry
            ->gauge(core->instr.prefix + "." + u->name() + ".pinned_cpu")
            ->set(static_cast<double>(pinned));
      }
    }
  }

  // Supervision loop: wait for completion, running the stall watchdog when
  // enabled. "Progress" is queue traffic + completed svc calls; if it stays
  // flat past the timeout while threads are still live, abort with the
  // stuck stage named, give the healthy units one more timeout period to
  // unwind, then hand whatever is left to the destructor's bounded reaper.
  const bool watchdog = im.options.stall_timeout_seconds > 0.0;
  const auto timeout =
      std::chrono::duration<double>(im.options.stall_timeout_seconds);
  bool watchdog_fired = false;
  {
    std::unique_lock<std::mutex> lock(core->comp_mu);
    std::uint64_t last_progress =
        core->state.progress.load(std::memory_order_relaxed);
    auto last_change = Clock::now();
    auto fired_at = last_change;
    while (core->done_count < units.size()) {
      core->comp_cv.wait_for(lock, std::chrono::milliseconds(20));
      if (core->done_count >= units.size()) break;
      if (!watchdog) continue;
      const auto now = Clock::now();
      const std::uint64_t p =
          core->state.progress.load(std::memory_order_relaxed);
      if (p != last_progress) {
        last_progress = p;
        last_change = now;
        continue;
      }
      if (!watchdog_fired) {
        if (now - last_change >= timeout) {
          watchdog_fired = true;
          fired_at = now;
          // Culprit: a live unit currently inside user code; otherwise the
          // first unit that has not finished.
          std::string stuck;
          for (const auto& unit : units) {
            if (!unit->done() && unit->in_user_code()) {
              stuck = unit->name();
              break;
            }
          }
          if (stuck.empty()) {
            for (const auto& unit : units) {
              if (!unit->done()) {
                stuck = unit->name();
                break;
              }
            }
          }
          if (core->watchdog_counter != nullptr) {
            core->watchdog_counter->add(1);
          }
          core->state.fail(
              stuck, Aborted("stage '" + stuck + "' stalled for " +
                             std::to_string(im.options.stall_timeout_seconds) +
                             "s (watchdog abort)"));
        }
      } else if (now - fired_at >= timeout) {
        break;  // grace period over; detach the stragglers
      }
    }
  }

  // Stop sampling this run's queues before handing control back (straggler
  // threads keep the channels themselves alive through the shared core).
  core->unregister_queues();

  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (units[i]->done()) {
      threads[i].join();
    } else {
      // Do not detach while the caller may still unwind state the node
      // callables reference: hand the thread to the destructor's bounded
      // reaper, which runs before caller state declared ahead of the
      // Pipeline is destroyed.
      im.stragglers.emplace_back(std::move(threads[i]), units[i].get());
    }
  }

  std::lock_guard<std::mutex> lock(core->state.mu);
  im.failure_report.failures = core->state.failures;
  return im.failure_report.first();
}

const FailureReport& Pipeline::failure_report() const {
  return impl_->failure_report;
}

}  // namespace hs::flow
