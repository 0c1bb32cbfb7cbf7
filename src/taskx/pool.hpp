// Task pool with per-worker deques and work stealing — the TBB-equivalent
// scheduling substrate (paper §III-B: "tasks... equipped with a work
// stealing scheduler").
//
// Each worker owns a deque: it pushes/pops its own tail (LIFO, cache-warm)
// and steals from other workers' heads (FIFO, oldest first), the classic
// work-stealing discipline. Deques are mutex-protected (contention is rare:
// an owner operation and a steal only collide when the deque is nearly
// empty); a shared condition variable parks idle workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/unique_function.hpp"

namespace hs::taskx {

/// A unit of work. Move-only so tasks can own stream items.
using Task = hs::UniqueFunction<void()>;

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware_concurrency).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains all remaining tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. If called from a worker thread of this pool, the task
  /// goes to that worker's own deque (LIFO locality); otherwise it is
  /// round-robined to a worker's deque.
  void submit(Task task);

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Index of the calling worker within this pool, or -1 when called from
  /// a non-worker thread.
  [[nodiscard]] int current_worker_index() const;

  /// Runs queued tasks on the calling thread until `done` returns true.
  /// Used by blocking waits (pipeline run) so the waiting
  /// thread lends itself to the pool instead of idling — this also makes
  /// single-thread pools deadlock-free.
  void help_while(const std::function<bool()>& done);

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };

  bool try_pop_own(std::size_t idx, Task& out);
  bool try_steal(std::size_t thief, Task& out);
  bool try_acquire_any(std::size_t preferred, Task& out);
  void worker_main(std::size_t idx);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  std::atomic<std::size_t> next_submit_{0};
};

}  // namespace hs::taskx
