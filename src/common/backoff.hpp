// Spin-then-yield backoff for the two waits that poll several queues and
// so cannot park on one: the flow farm collector's merge over its workers'
// channels, and taskx::ThreadPool::help_while over the pool's task queues.
#pragma once

#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hs {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // best-effort on non-x86
  std::this_thread::yield();
#endif
}

/// Escalating backoff: pause spins, then yields, then short sleeps. Reset
/// whenever progress is made. Keeps latency low under load while avoiding
/// burning a core when a stream stalls (important on oversubscribed hosts).
class Backoff {
 public:
  void pause() {
    if (count_ < kRelaxLimit) {
      cpu_relax();
    } else if (count_ < kYieldLimit) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++count_;
  }

  void reset() { count_ = 0; }

  [[nodiscard]] bool sleeping() const { return count_ >= kYieldLimit; }

 private:
  static constexpr int kRelaxLimit = 64;
  static constexpr int kYieldLimit = 256;
  int count_ = 0;
};

}  // namespace hs
