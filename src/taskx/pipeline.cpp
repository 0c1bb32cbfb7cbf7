#include "taskx/pipeline.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <mutex>
#include <optional>
#include <vector>

#include "taskx/pool.hpp"
#include "telemetry/span_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::taskx {

namespace {

/// One in-flight stream element.
struct Token {
  std::uint64_t seq = 0;
  Item payload;
  std::size_t next_filter = 0;
  bool dropped = false;
};

}  // namespace

struct Pipeline::Impl {
  struct Filter {
    FilterMode mode;
    std::function<Item(Item)> fn;
    std::string name;

    // Telemetry sinks, resolved once by run() (null = not instrumented).
    telemetry::Histogram* hist = nullptr;
    telemetry::Counter* items = nullptr;
    telemetry::SpanRecorder* spans = nullptr;
    const char* span_name = "";

    // Serial-gate state (unused for kParallel). Parked tokens live in a
    // fixed ring of max_live_tokens slots (sized once by run()), so a park
    // never heap-allocates. kSerialInOrder indexes by seq % cap — live
    // seqs at a gate with counter v all fall in [v, v + cap - 1] (a token
    // only gets a fresh seq after the gate has processed its old one), so
    // the mapping is collision-free. kSerialOutOfOrder uses head/count.
    std::mutex mu;
    bool busy = false;
    std::uint64_t next_seq = 0;               // kSerialInOrder
    std::vector<std::optional<Token>> parked; // ring of max_live_tokens
    std::size_t head = 0;                     // kSerialOutOfOrder
    std::size_t count = 0;                    // kSerialOutOfOrder
  };

  std::function<std::optional<Item>()> source;
  std::vector<std::unique_ptr<Filter>> filters;
  bool ran = false;
  std::size_t token_cap = 0;  // max_live_tokens, fixed by run()

  // --- run state ---
  ThreadPool* pool = nullptr;
  std::mutex source_mu;
  bool source_done = false;
  std::uint64_t next_token_seq = 0;
  std::size_t live_tokens = 0;  // guarded by source_mu
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status first_error;
  std::atomic<std::uint64_t> processed{0};

  void fail(Status s) {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) first_error = std::move(s);
    }
    failed.store(true, std::memory_order_release);
  }

  Item apply(Filter& f, Item in) {
    try {
      if (f.hist != nullptr || f.spans != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        Item out = f.fn(std::move(in));
        const auto t1 = std::chrono::steady_clock::now();
        if (f.hist != nullptr) {
          f.hist->record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        }
        if (f.spans != nullptr) {
          f.spans->record(f.span_name, f.spans->to_ns(t0), f.spans->to_ns(t1));
        }
        if (f.items != nullptr) f.items->add(1);
        return out;
      }
      if (f.items != nullptr) f.items->add(1);
      return f.fn(std::move(in));
    } catch (const std::exception& e) {
      fail(Internal(f.name + ": " + e.what()));
    } catch (...) {
      fail(Internal(f.name + ": unknown exception"));
    }
    return Item{};
  }

  /// Pulls the next source item; updates token bookkeeping. Returns false
  /// when the stream is exhausted (the caller's token retires).
  bool refill(Token& tok) {
    bool last_token = false;
    {
      std::lock_guard<std::mutex> lock(source_mu);
      if (!source_done && !failed.load(std::memory_order_acquire)) {
        std::optional<Item> next;
        try {
          next = source();
        } catch (const std::exception& e) {
          fail(Internal(std::string("source: ") + e.what()));
          next = std::nullopt;
        }
        if (next.has_value()) {
          tok.seq = next_token_seq++;
          tok.payload = std::move(*next);
          tok.next_filter = 0;
          tok.dropped = false;
          return true;
        }
        source_done = true;
      }
      // Token retires.
      last_token = --live_tokens == 0;
    }
    // Publish completion only after source_mu is released: run() returns as
    // soon as it observes done, and the caller may destroy this Impl — the
    // mutex must not still be mid-unlock on this thread when that happens.
    if (last_token) done.store(true, std::memory_order_release);
    return false;
  }

  /// Runs a serial filter whose gate the caller has acquired, releases the
  /// gate (waking the next parked token), then returns so the caller can
  /// continue the token past this filter.
  void run_serial_acquired(std::size_t fi, Token& tok) {
    Filter& f = *filters[fi];
    if (!tok.dropped && !failed.load(std::memory_order_acquire)) {
      tok.payload = apply(f, std::move(tok.payload));
      if (!tok.payload.has_value()) tok.dropped = true;
    }
    // Release: wake the next eligible parked token, transferring the gate.
    std::optional<Token> resume;
    {
      std::lock_guard<std::mutex> lock(f.mu);
      f.busy = false;
      if (f.mode == FilterMode::kSerialInOrder) {
        ++f.next_seq;
        auto& slot = f.parked[f.next_seq % token_cap];
        if (slot.has_value()) {
          assert(slot->seq == f.next_seq);
          resume = std::move(*slot);
          slot.reset();
          f.busy = true;
        }
      } else {
        if (f.count > 0) {
          auto& slot = f.parked[f.head];
          resume = std::move(*slot);
          slot.reset();
          f.head = (f.head + 1) % token_cap;
          --f.count;
          f.busy = true;
        }
      }
    }
    if (resume.has_value()) {
      pool->submit([this, fi, t = std::move(*resume)]() mutable {
        run_serial_acquired(fi, t);
        ++t.next_filter;
        advance(std::move(t));
      });
    }
  }

  /// Drives a token through the remaining filters; parks at busy serial
  /// gates; recycles through the source after the last filter.
  void advance(Token tok) {
    for (;;) {
      if (tok.next_filter >= filters.size()) {
        if (!tok.dropped) processed.fetch_add(1, std::memory_order_relaxed);
        tok.payload.reset();
        if (!refill(tok)) return;
        continue;
      }
      Filter& f = *filters[tok.next_filter];
      if (f.mode == FilterMode::kParallel) {
        if (!tok.dropped && !failed.load(std::memory_order_acquire)) {
          tok.payload = apply(f, std::move(tok.payload));
          if (!tok.payload.has_value()) tok.dropped = true;
        }
        ++tok.next_filter;
        continue;
      }
      // Serial gate: enter or park.
      {
        std::lock_guard<std::mutex> lock(f.mu);
        bool my_turn = f.mode == FilterMode::kSerialOutOfOrder ||
                       tok.seq == f.next_seq;
        if (f.busy || !my_turn) {
          if (f.mode == FilterMode::kSerialInOrder) {
            f.parked[tok.seq % token_cap] = std::move(tok);
          } else {
            f.parked[(f.head + f.count) % token_cap] = std::move(tok);
            ++f.count;
          }
          return;  // resumed later by the releasing thread
        }
        f.busy = true;
      }
      run_serial_acquired(tok.next_filter, tok);
      ++tok.next_filter;
    }
  }
};

Pipeline::Pipeline(std::function<std::optional<Item>()> source)
    : impl_(std::make_unique<Impl>()) {
  assert(source && "null source");
  impl_->source = std::move(source);
}

Pipeline::~Pipeline() = default;

void Pipeline::add_filter(FilterMode mode, std::function<Item(Item)> fn,
                          std::string name) {
  assert(fn && "null filter");
  auto f = std::make_unique<Impl::Filter>();
  f->mode = mode;
  f->fn = std::move(fn);
  f->name = std::move(name);
  impl_->filters.push_back(std::move(f));
}

Status Pipeline::run(ThreadPool& pool, std::size_t max_live_tokens) {
  Impl& im = *impl_;
  if (im.ran) return FailedPrecondition("pipeline already ran");
  im.ran = true;
  if (max_live_tokens == 0) {
    return InvalidArgument("max_live_tokens must be >= 1");
  }
  if (im.filters.empty()) {
    return InvalidArgument("pipeline needs at least one filter");
  }
  im.pool = &pool;
  im.token_cap = max_live_tokens;
  const telemetry::StreamInstrumentation instr =
      telemetry::default_instrumentation("taskx");
  for (auto& f : im.filters) {
    if (f->mode != FilterMode::kParallel) {
      f->parked.resize(max_live_tokens);  // at most cap-1 parked at once
    }
    if (instr.registry != nullptr) {
      f->hist = instr.registry->histogram(instr.prefix + "." + f->name +
                                          ".svc_ns");
      f->items =
          instr.registry->counter(instr.prefix + "." + f->name + ".items");
    }
    if (instr.spans != nullptr) {
      f->spans = instr.spans;
      f->span_name = instr.spans->intern(instr.prefix + "." + f->name);
    }
  }

  // Seed up to max_live_tokens tokens from the source.
  std::vector<Token> seeds;
  {
    std::lock_guard<std::mutex> lock(im.source_mu);
    for (std::size_t i = 0; i < max_live_tokens; ++i) {
      std::optional<Item> next;
      try {
        next = im.source();
      } catch (const std::exception& e) {
        im.fail(Internal(std::string("source: ") + e.what()));
        next = std::nullopt;
      }
      if (!next.has_value()) {
        im.source_done = true;
        break;
      }
      Token tok;
      tok.seq = im.next_token_seq++;
      tok.payload = std::move(*next);
      seeds.push_back(std::move(tok));
    }
    im.live_tokens = seeds.size();
    if (seeds.empty()) im.done.store(true, std::memory_order_release);
  }
  for (Token& tok : seeds) {
    pool.submit([&im, t = std::move(tok)]() mutable { im.advance(std::move(t)); });
  }

  pool.help_while([&im] { return im.done.load(std::memory_order_acquire); });

  std::lock_guard<std::mutex> lock(im.err_mu);
  return im.first_error;
}

std::uint64_t Pipeline::items_processed() const {
  return impl_->processed.load(std::memory_order_relaxed);
}

}  // namespace hs::taskx
