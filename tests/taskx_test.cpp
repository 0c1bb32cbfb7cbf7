// Tests for the taskx scheduler: thread pool, work stealing, and the token
// pipeline's filter-mode semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "taskx/pipeline.hpp"
#include "taskx/pool.hpp"

namespace hs::taskx {
namespace {

// ---- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.help_while([&count] { return count.load() == 1000; });
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsPending) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { ++count; });
    }
  }  // dtor must run the remaining tasks
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  std::atomic<int> count{0};
  ThreadPool pool(3);
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      for (int j = 0; j < 10; ++j) {
        pool.submit([&count] { ++count; });
      }
    });
  }
  pool.help_while([&count] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, CurrentWorkerIndexVisibleInsideTasks) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<int> indices;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      int idx = pool.current_worker_index();
      {
        std::lock_guard<std::mutex> lock(mu);
        indices.insert(idx);
      }
      ++done;
    });
  }
  pool.help_while([&done] { return done.load() == 100; });
  EXPECT_EQ(pool.current_worker_index(), -1);  // main thread
  for (int idx : indices) {
    EXPECT_GE(idx, -1);
    EXPECT_LT(idx, 3);
  }
}

TEST(ThreadPoolTest, SizeDefaultsNonZero) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// ---- Pipeline -------------------------------------------------------------------

std::function<std::optional<Item>()> int_source(int n) {
  return [i = 0, n]() mutable -> std::optional<Item> {
    if (i >= n) return std::nullopt;
    return Item::of<int>(i++);
  };
}

TEST(TaskxPipelineTest, SerialInOrderPreservesOrder) {
  ThreadPool pool(4);
  Pipeline p(int_source(3000));
  p.add_filter(FilterMode::kParallel, [](Item in) {
    int v = in.take<int>();
    volatile int spin = (v % 5) * 40;  // jitter so tokens race
    while (spin > 0) { spin = spin - 1; }
    return Item::of<int>(v);
  });
  std::vector<int> got;
  p.add_filter(FilterMode::kSerialInOrder, [&](Item in) {
    got.push_back(in.as<int>());
    return in;
  });
  ASSERT_TRUE(p.run(pool, 8).ok());
  ASSERT_EQ(got.size(), 3000u);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(p.items_processed(), 3000u);
}

TEST(TaskxPipelineTest, SerialOutOfOrderIsExclusiveButUnordered) {
  ThreadPool pool(4);
  Pipeline p(int_source(2000));
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::multiset<int> got;
  p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
  p.add_filter(FilterMode::kSerialOutOfOrder, [&](Item in) {
    if (inside.fetch_add(1) != 0) overlapped = true;
    got.insert(in.as<int>());
    inside.fetch_sub(1);
    return in;
  });
  ASSERT_TRUE(p.run(pool, 16).ok());
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(got.size(), 2000u);
}

TEST(TaskxPipelineTest, ParallelFilterRunsConcurrently) {
  // With enough tokens and workers, the parallel filter should be observed
  // running on more than one thread at once at least occasionally.
  ThreadPool pool(4);
  Pipeline p(int_source(2000));
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  p.add_filter(FilterMode::kParallel, [&](Item in) {
    int now = inside.fetch_add(1) + 1;
    int prev = max_inside.load();
    while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {}
    volatile int spin = 200;
    while (spin > 0) { spin = spin - 1; }
    inside.fetch_sub(1);
    return in;
  });
  p.add_filter(FilterMode::kSerialInOrder, [](Item in) { return in; });
  ASSERT_TRUE(p.run(pool, 16).ok());
  // On a single-core host this can legitimately stay at 1, so only assert
  // the invariant that it never exceeded the token cap.
  EXPECT_LE(max_inside.load(), 16);
}

TEST(TaskxPipelineTest, TokenCapBoundsInFlightItems) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  Pipeline p([i = 0, &in_flight, &max_in_flight]() mutable
                 -> std::optional<Item> {
    if (i >= 500) return std::nullopt;
    int now = in_flight.fetch_add(1) + 1;
    int prev = max_in_flight.load();
    while (now > prev && !max_in_flight.compare_exchange_weak(prev, now)) {}
    return Item::of<int>(i++);
  });
  p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
  p.add_filter(FilterMode::kSerialInOrder, [&](Item in) {
    in_flight.fetch_sub(1);
    return in;
  });
  ASSERT_TRUE(p.run(pool, 4).ok());
  EXPECT_LE(max_in_flight.load(), 4);
  EXPECT_EQ(p.items_processed(), 500u);
}

TEST(TaskxPipelineTest, DroppedItemsDoNotStallOrdering) {
  ThreadPool pool(4);
  Pipeline p(int_source(1000));
  p.add_filter(FilterMode::kParallel, [](Item in) {
    if (in.as<int>() % 3 == 0) return Item{};  // drop
    return in;
  });
  std::vector<int> got;
  p.add_filter(FilterMode::kSerialInOrder, [&](Item in) {
    got.push_back(in.as<int>());
    return in;
  });
  ASSERT_TRUE(p.run(pool, 8).ok());
  std::vector<int> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(p.items_processed(), expected.size());
}

TEST(TaskxPipelineTest, EmptySourceCompletes) {
  ThreadPool pool(2);
  Pipeline p(int_source(0));
  p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
  ASSERT_TRUE(p.run(pool, 4).ok());
  EXPECT_EQ(p.items_processed(), 0u);
}

TEST(TaskxPipelineTest, ValidationErrors) {
  ThreadPool pool(2);
  {
    Pipeline p(int_source(1));
    EXPECT_EQ(p.run(pool, 4).code(), ErrorCode::kInvalidArgument);  // no filters
  }
  {
    Pipeline p(int_source(1));
    p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
    EXPECT_EQ(p.run(pool, 0).code(), ErrorCode::kInvalidArgument);  // 0 tokens
  }
  {
    Pipeline p(int_source(10));
    p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
    ASSERT_TRUE(p.run(pool, 2).ok());
    EXPECT_EQ(p.run(pool, 2).code(), ErrorCode::kFailedPrecondition);
  }
}

TEST(TaskxPipelineTest, FilterExceptionSurfacesAsError) {
  ThreadPool pool(4);
  Pipeline p(int_source(5000));
  p.add_filter(FilterMode::kParallel, [](Item in) -> Item {
    if (in.as<int>() == 777) throw std::runtime_error("filter exploded");
    return in;
  });
  p.add_filter(FilterMode::kSerialInOrder, [](Item in) { return in; });
  Status s = p.run(pool, 8);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("filter exploded"), std::string::npos);
}

TEST(TaskxPipelineTest, SourceExceptionSurfacesAsError) {
  ThreadPool pool(2);
  Pipeline p([i = 0]() mutable -> std::optional<Item> {
    if (i++ == 5) throw std::runtime_error("source exploded");
    return Item::of<int>(i);
  });
  p.add_filter(FilterMode::kParallel, [](Item in) { return in; });
  Status s = p.run(pool, 2);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("source exploded"), std::string::npos);
}

TEST(TaskxPipelineTest, SingleTokenDegeneratesToSequential) {
  ThreadPool pool(4);
  Pipeline p(int_source(200));
  std::vector<int> got;
  p.add_filter(FilterMode::kParallel, [](Item in) {
    return Item::of<int>(in.as<int>() * 2);
  });
  p.add_filter(FilterMode::kSerialInOrder, [&](Item in) {
    got.push_back(in.as<int>());
    return in;
  });
  ASSERT_TRUE(p.run(pool, 1).ok());
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 2 * i);
}

// Parameterized sweep over token counts: the paper tuned this knob (38 vs
// 50 tokens); correctness must hold for any setting.
class TokenSweep : public ::testing::TestWithParam<int> {};

TEST_P(TokenSweep, InOrderCorrectForAnyTokenCount) {
  ThreadPool pool(4);
  Pipeline p(int_source(1500));
  p.add_filter(FilterMode::kParallel, [](Item in) {
    return Item::of<long>(static_cast<long>(in.take<int>()) + 1);
  });
  std::vector<long> got;
  p.add_filter(FilterMode::kSerialInOrder, [&](Item in) {
    got.push_back(in.as<long>());
    return in;
  });
  ASSERT_TRUE(p.run(pool, static_cast<std::size_t>(GetParam())).ok());
  ASSERT_EQ(got.size(), 1500u);
  for (long i = 0; i < 1500; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TokenSweep,
                         ::testing::Values(1, 2, 3, 8, 38, 50, 128));

}  // namespace
}  // namespace hs::taskx
