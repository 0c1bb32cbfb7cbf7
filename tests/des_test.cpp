// Unit tests for the discrete-event timeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/alloc_hook.hpp"
#include "des/timeline.hpp"
#include "des/trace_export.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HS_TEST_SANITIZED 1
#endif
#endif
#ifndef HS_TEST_SANITIZED
#define HS_TEST_SANITIZED 0
#endif

namespace hs::des {
namespace {

TEST(TimelineTest, SerialEngineRunsFifo) {
  Timeline tl;
  EngineId e = tl.add_engine("e");
  TaskId a = tl.submit(e, 2.0);
  TaskId b = tl.submit(e, 3.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.finish, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);
  EXPECT_DOUBLE_EQ(b.finish, 5.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 5.0);
}

TEST(TimelineTest, IndependentEnginesOverlap) {
  Timeline tl;
  EngineId e1 = tl.add_engine("e1");
  EngineId e2 = tl.add_engine("e2");
  tl.submit(e1, 5.0);
  TaskId b = tl.submit(e2, 3.0);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 5.0);
}

TEST(TimelineTest, DependencyDelaysStart) {
  Timeline tl;
  EngineId e1 = tl.add_engine("e1");
  EngineId e2 = tl.add_engine("e2");
  TaskId a = tl.submit(e1, 4.0);
  TaskId deps[] = {a};
  TaskId b = tl.submit(e2, 1.0, deps);
  EXPECT_DOUBLE_EQ(b.start, 4.0);
  EXPECT_DOUBLE_EQ(b.finish, 5.0);
}

TEST(TimelineTest, StartIsMaxOfEngineAndDeps) {
  Timeline tl;
  EngineId e1 = tl.add_engine("e1");
  EngineId e2 = tl.add_engine("e2");
  TaskId dep = tl.submit(e1, 2.0);      // finishes at 2
  tl.submit(e2, 10.0);                  // e2 busy until 10
  TaskId deps[] = {dep};
  TaskId b = tl.submit(e2, 1.0, deps);  // engine limited, not dep limited
  EXPECT_DOUBLE_EQ(b.start, 10.0);
}

TEST(TimelineTest, SubmitAfterInvalidDepIsNoDep) {
  Timeline tl;
  EngineId e = tl.add_engine("e");
  TaskId none[] = {TaskId{}};
  TaskId t = tl.submit(e, 1.0, none);
  EXPECT_FALSE(none[0].valid());
  EXPECT_TRUE(t.valid());
  EXPECT_DOUBLE_EQ(t.start, 0.0);
}

TEST(TimelineTest, SubmitAfterChains) {
  Timeline tl;
  EngineId e1 = tl.add_engine("e1");
  EngineId e2 = tl.add_engine("e2");
  TaskId a = tl.submit(e1, 1.0);
  TaskId b = tl.submit(e2, 1.0, {&a, 1});
  TaskId c = tl.submit(e1, 1.0, {&b, 1});
  EXPECT_DOUBLE_EQ(c.finish, 3.0);
}

TEST(TimelineTest, JoinWaitsForAllAndIsFree) {
  Timeline tl;
  EngineId e1 = tl.add_engine("e1");
  EngineId e2 = tl.add_engine("e2");
  TaskId a = tl.submit(e1, 2.0);
  TaskId b = tl.submit(e2, 7.0);
  TaskId deps[] = {a, b};
  TaskId j = tl.join(deps);
  EXPECT_DOUBLE_EQ(j.finish, 7.0);
  // Unrelated join later should not be serialized behind the first one.
  TaskId deps2[] = {a};
  TaskId j2 = tl.join(deps2);
  EXPECT_DOUBLE_EQ(j2.finish, 2.0);
  // A join submits nothing: with no task to wait for it is no task.
  TaskId none[] = {TaskId{}, TaskId{}};
  EXPECT_FALSE(tl.join(none).valid());
  EXPECT_FALSE(tl.join({}).valid());
  EXPECT_EQ(tl.engine_stats(e1).tasks + tl.engine_stats(e2).tasks, 2u);
  EXPECT_EQ(tl.engine_count(), 2u);  // no join engine
}

TEST(TimelineTest, ZeroDurationTasksAllowed) {
  Timeline tl;
  EngineId e = tl.add_engine("e");
  TaskId t = tl.submit(e, 0.0);
  EXPECT_DOUBLE_EQ(t.finish, t.start);
}

TEST(TimelineTest, EngineStatsAccumulate) {
  Timeline tl;
  EngineId e = tl.add_engine("compute");
  tl.submit(e, 1.0);
  tl.submit(e, 2.5);
  const EngineStats& s = tl.engine_stats(e);
  EXPECT_EQ(s.name, "compute");
  EXPECT_DOUBLE_EQ(s.busy, 3.5);
  EXPECT_EQ(s.tasks, 2u);
}

TEST(TimelineTest, PipelinedCopyComputeOverlapShape) {
  // The core mechanism behind the paper's "2x memory spaces": with two
  // buffers, copy(i+1) overlaps compute(i). Model 4 batches, copy=1s,
  // compute=1s: serial would be 8s, overlapped is 5s.
  Timeline tl;
  EngineId copy = tl.add_engine("h2d");
  EngineId compute = tl.add_engine("compute");
  TaskId prev_compute{};
  for (int i = 0; i < 4; ++i) {
    TaskId c = tl.submit(copy, 1.0);  // next copy can start immediately
    TaskId deps[] = {c, prev_compute};
    std::size_t ndeps = prev_compute.valid() ? 2u : 1u;
    prev_compute = tl.submit(compute, 1.0,
                             std::span<const TaskId>(deps, ndeps));
  }
  EXPECT_DOUBLE_EQ(tl.makespan(), 5.0);
}

TEST(TimelineTest, ManyTasksStressAndMonotonicity) {
  Timeline tl;
  EngineId e1 = tl.add_engine("a");
  EngineId e2 = tl.add_engine("b");
  TaskId prev{};
  double last_finish = 0;
  for (int i = 0; i < 10000; ++i) {
    EngineId e = (i % 2) ? e1 : e2;
    prev = tl.submit(e, 0.001, {&prev, 1});
    EXPECT_GE(prev.finish, last_finish);
    last_finish = prev.finish;
  }
  EXPECT_NEAR(tl.makespan(), 10.0, 1e-6);
}

TEST(TimelineTest, SubmitAndJoinDoNotAllocatePerTask) {
  if (HS_TEST_SANITIZED) {
    GTEST_SKIP() << "allocator interposed by sanitizer";
  }
  Timeline tl;
  EngineId e1 = tl.add_engine("a");
  EngineId e2 = tl.add_engine("b");
  TaskId prev{};
  const std::uint64_t before = heap_alloc_count();
  for (int i = 0; i < 100000; ++i) {
    TaskId t = tl.submit((i % 2) ? e1 : e2, 0.001, {&prev, 1});
    TaskId both[] = {prev, t};
    prev = Timeline::join(both);
  }
  EXPECT_EQ(heap_alloc_count() - before, 0u)
      << "the timeline must keep no per-task state while not recording";
  EXPECT_NEAR(tl.makespan(), 100.0, 1e-6);
}

TEST(TraceExportTest, RequiresRecording) {
  Timeline tl;
  tl.add_engine("e");
  tl.submit(tl.add_engine("f"), 1.0);
  EXPECT_EQ(chrome_trace_json(tl).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(TraceExportTest, EmitsEngineTracksAndEvents) {
  Timeline tl;
  tl.set_recording(true);
  EngineId a = tl.add_engine("gpu0.compute");
  EngineId b = tl.add_engine("gpu0.h2d");
  TaskId copy = tl.submit(b, 0.5, {}, "h2d");
  TaskId deps[] = {copy};
  tl.submit(a, 1.0, deps, "kernel \"x\"");  // quote needs escaping
  auto json = chrome_trace_json(tl);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const std::string& j = json.value();
  EXPECT_NE(j.find("\"gpu0.compute\""), std::string::npos);
  EXPECT_NE(j.find("\"gpu0.h2d\""), std::string::npos);
  EXPECT_NE(j.find("kernel \\\"x\\\""), std::string::npos);  // escaped
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  // kernel starts when the copy ends: ts = 500000 us.
  EXPECT_NE(j.find("\"ts\":500000"), std::string::npos);
}

TEST(TraceExportTest, WritesFile) {
  Timeline tl;
  tl.set_recording(true);
  tl.submit(tl.add_engine("e"), 0.25, {}, "t");
  std::string path = ::testing::TempDir() + "/hs_trace.json";
  ASSERT_TRUE(write_chrome_trace(tl, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  ASSERT_GT(std::fread(buf, 1, 15, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).substr(0, 2), "{\"");
  std::remove(path.c_str());
}

TEST(TraceExportTest, TimestampsKeepNanosecondResolution) {
  // A default ostream keeps 6 significant digits: this start would export
  // as 1.23457e+07 us, a 10 us resolution coarser than the span itself.
  Timeline tl;
  tl.set_recording(true);
  EngineId e = tl.add_engine("e");
  tl.submit(e, 12.3456789);
  tl.submit(e, 2.5e-6, {}, "late");  // starts at 12.3456789 s
  auto json = chrome_trace_json(tl);
  ASSERT_TRUE(json.ok());
  const std::string& j = json.value();
  const std::string key = "\"name\":\"late\",\"ts\":";
  const std::size_t at = j.find(key);
  ASSERT_NE(at, std::string::npos) << j;
  const std::string want = "12345678.900,\"dur\":2.500}";
  EXPECT_EQ(j.substr(at + key.size(), want.size()), want);
  const double ts_us = std::strtod(j.c_str() + at + key.size(), nullptr);
  EXPECT_NEAR(ts_us * 1e3, 12.3456789e9, 1.0);  // within 1 ns
  EXPECT_EQ(j.find("e+"), std::string::npos);   // no exponent form
  EXPECT_EQ(j.find("e-"), std::string::npos);
}

TEST(TraceExportTest, UnlabeledTasksGetDefaultName) {
  Timeline tl;
  tl.set_recording(true);
  tl.submit(tl.add_engine("e"), 1.0);
  auto json = chrome_trace_json(tl);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().find("\"task\""), std::string::npos);
}

}  // namespace
}  // namespace hs::des
