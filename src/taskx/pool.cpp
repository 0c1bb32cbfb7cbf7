#include "taskx/pool.hpp"

#include <atomic>
#include <cassert>

#include "common/backoff.hpp"

namespace hs::taskx {

namespace {
// Which pool/worker the current thread belongs to (for submit locality).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 2;
  }
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::current_worker_index() const {
  return tls_pool == this ? tls_worker_index : -1;
}

void ThreadPool::submit(Task task) {
  assert(task && "null task");
  int self = current_worker_index();
  std::size_t idx =
      self >= 0 ? static_cast<std::size_t>(self)
                : next_submit_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[idx]->mu);
    queues_[idx]->deque.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop_own(std::size_t idx, Task& out) {
  Worker& w = *queues_[idx];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.deque.empty()) return false;
  out = std::move(w.deque.back());  // own tail: LIFO
  w.deque.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, Task& out) {
  for (std::size_t off = 1; off < queues_.size(); ++off) {
    std::size_t victim = (thief + off) % queues_.size();
    Worker& w = *queues_[victim];
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.deque.empty()) continue;
    out = std::move(w.deque.front());  // victim head: FIFO
    w.deque.pop_front();
    return true;
  }
  return false;
}

bool ThreadPool::try_acquire_any(std::size_t preferred, Task& out) {
  return try_pop_own(preferred, out) || try_steal(preferred, out);
}

void ThreadPool::worker_main(std::size_t idx) {
  tls_pool = this;
  tls_worker_index = static_cast<int>(idx);
  for (;;) {
    Task task;
    if (try_acquire_any(idx, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) break;
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
    if (stop_) {
      // Drain what remains so no submitted task is lost on shutdown.
      lock.unlock();
      while (try_acquire_any(idx, task)) task();
      break;
    }
  }
  tls_pool = nullptr;
  tls_worker_index = -1;
}

void ThreadPool::help_while(const std::function<bool()>& done) {
  std::size_t preferred = 0;
  int self = current_worker_index();
  if (self >= 0) preferred = static_cast<std::size_t>(self);
  Backoff backoff;
  while (!done()) {
    Task task;
    if (try_acquire_any(preferred, task)) {
      task();
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace hs::taskx
