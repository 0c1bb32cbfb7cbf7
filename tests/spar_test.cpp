// Tests for the SPar-equivalent DSL: well-formed regions run on the flow
// runtime; malformed regions produce SPar-compiler-style diagnostics;
// lowering produces the expected FastFlow-equivalent structure.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "spar/spar.hpp"

namespace hs::spar {
namespace {

TEST(SparTest, ListingOneShapeRuns) {
  // The Mandelbrot Listing 1 shape: source loop -> replicated compute
  // stage -> collecting stage.
  ToStream region("mandel");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 500 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage<int, int>(Replicate(4), [](int line) { return line * 10; });
  std::vector<int> shown;
  region.last_stage<int>([&](int line) { shown.push_back(line); });

  ASSERT_TRUE(region.run().ok());
  ASSERT_EQ(shown.size(), 500u);
  // ordered=true by default (-spar_ordered): results arrive in order.
  for (int i = 0; i < 500; ++i) EXPECT_EQ(shown[static_cast<std::size_t>(i)], i * 10);
}

TEST(SparTest, MultiStagePipeline) {
  ToStream region("multi");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 300 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage<int, double>(Replicate(3), [](int v) { return v * 0.5; });
  region.stage<double, double>([](double v) { return v + 1.0; });  // serial
  double sum = 0;
  region.last_stage<double>([&](double v) { sum += v; });
  ASSERT_TRUE(region.run().ok());
  EXPECT_DOUBLE_EQ(sum, 299.0 * 300 / 2 * 0.5 + 300.0);
}

TEST(SparTest, GraphDescriptionShowsLowering) {
  ToStream region("g");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.stage<int, int>(Replicate(8), [](int v) { return v; });
  region.stage<int, int>([](int v) { return v; });
  region.last_stage<int>([](int) {});
  EXPECT_EQ(region.graph_description(),
            "pipeline(source, farm(stage x 8), stage, sink)");
  // source + sink + (8 workers + emitter + collector) + serial stage
  EXPECT_EQ(region.thread_count(), 13);
}

TEST(SparTest, StageOptionsForceFarmLowersSingleReplicaToFarm) {
  ToStream region("ff");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  StageOptions opts;
  opts.force_farm = true;
  region.stage<int, int>(Replicate(1), opts, [](int v) { return v; });
  region.last_stage<int>([](int) {});
  EXPECT_EQ(region.graph_description(),
            "pipeline(source, farm(stage x 1), sink)");
  // source + sink + (1 worker + emitter + collector)
  EXPECT_EQ(region.thread_count(), 5);
}

TEST(SparTest, StageNodesFactoryForStatefulWorkers) {
  // Per-replica state: each worker counts its own items (the pattern used
  // for per-worker GPU streams in the combined versions).
  class Counter final : public flow::Node {
   public:
    explicit Counter(std::atomic<int>* total) : total_(total) {}
    flow::SvcResult svc(flow::Item in) override {
      ++mine_;
      return flow::SvcResult::Out(std::move(in));
    }
    void on_end() override { *total_ += mine_; }
   private:
    std::atomic<int>* total_;
    int mine_ = 0;
  };
  std::atomic<int> total{0};
  ToStream region("stateful");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 200 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage_nodes(Replicate(4),
                     [&] { return std::make_unique<Counter>(&total); });
  int sunk = 0;
  region.last_stage<int>([&](int) { ++sunk; });
  ASSERT_TRUE(region.run().ok());
  EXPECT_EQ(total.load(), 200);
  EXPECT_EQ(sunk, 200);
}

TEST(SparTest, AnnotationStyleInputOutputTags) {
  // The Listing 1 look: explicit Input/Output attributes on each stage.
  ToStream region("annotated");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 100 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage(Input<int>{}, Output<double>{}, Replicate(3),
               [](int v) { return v * 1.5; });
  region.stage(Input<double>{}, Output<double>{},
               [](double v) { return v + 1.0; });
  double sum = 0;
  region.last_stage(Input<double>{}, [&](double v) { sum += v; });
  ASSERT_TRUE(region.run().ok());
  EXPECT_DOUBLE_EQ(sum, 99.0 * 100 / 2 * 1.5 + 100.0);
}

// ---- diagnostics ---------------------------------------------------------------

TEST(SparTest, FailureReportEmptyOnCleanRunRecordedOnStageThrow) {
  ToStream clean("clean");
  clean.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 10 ? std::optional<int>(i++) : std::nullopt;
  });
  clean.stage<int, int>(Replicate(2), [](int v) { return v; });
  clean.last_stage<int>([](int) {});
  ASSERT_TRUE(clean.run().ok());
  EXPECT_TRUE(clean.failure_report().ok());
  EXPECT_TRUE(clean.failure_report().failures.empty());

  ToStream faulty("faulty");
  faulty.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 100 ? std::optional<int>(i++) : std::nullopt;
  });
  faulty.stage<int, int>(Replicate(2), [](int v) -> int {
    if (v == 7) throw std::runtime_error("unrecovered");
    return v;
  });
  faulty.last_stage<int>([](int) {});
  Status s = faulty.run();
  ASSERT_FALSE(s.ok());
  const flow::FailureReport& report = faulty.failure_report();
  ASSERT_FALSE(report.ok());
  // run() returns exactly the first recorded failure, and the report names
  // the lowered stage ("faulty.stage0").
  EXPECT_EQ(s.message(), report.first().message());
  EXPECT_NE(report.ToString().find("faulty.stage0"), std::string::npos);
}

TEST(SparDiagnosticsTest, MissingSource) {
  ToStream region("bad");
  region.stage<int, int>([](int v) { return v; });
  region.last_stage<int>([](int) {});
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no stream source"), std::string::npos);
}

TEST(SparDiagnosticsTest, MissingStages) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("at least one 'Stage'"), std::string::npos);
}

TEST(SparDiagnosticsTest, MissingCollectingStage) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.stage<int, int>([](int v) { return v; });
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no final collecting 'Stage'"),
            std::string::npos);
}

TEST(SparDiagnosticsTest, DuplicateSource) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.stage<int, int>([](int v) { return v; });
  region.last_stage<int>([](int) {});
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("more than one stream source"),
            std::string::npos);
}

TEST(SparDiagnosticsTest, StageAfterFinalStage) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.last_stage<int>([](int) {});
  region.stage<int, int>([](int v) { return v; });
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("after the final"), std::string::npos);
}

TEST(SparDiagnosticsTest, NonPositiveReplicate) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  region.stage<int, int>(Replicate(0), [](int v) { return v; });
  region.last_stage<int>([](int) {});
  Status s = region.check();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Replicate"), std::string::npos);
}

TEST(SparDiagnosticsTest, RunRejectsMalformedRegion) {
  ToStream region("bad");
  region.source<int>([]() -> std::optional<int> { return std::nullopt; });
  EXPECT_FALSE(region.run().ok());
}

TEST(SparDiagnosticsTest, SecondRunRejected) {
  ToStream region("twice");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 5 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage<int, int>([](int v) { return v; });
  region.last_stage<int>([](int) {});
  ASSERT_TRUE(region.run().ok());
  EXPECT_EQ(region.run().code(), ErrorCode::kFailedPrecondition);
}

// Replicate sweep: ordered output for all worker counts.
class ReplicateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReplicateSweep, OrderedOutput) {
  ToStream region("sweep");
  region.source<int>([i = 0]() mutable -> std::optional<int> {
    return i < 800 ? std::optional<int>(i++) : std::nullopt;
  });
  region.stage<int, int>(Replicate(GetParam()), [](int v) { return v + 7; });
  std::vector<int> got;
  region.last_stage<int>([&](int v) { got.push_back(v); });
  ASSERT_TRUE(region.run().ok());
  ASSERT_EQ(got.size(), 800u);
  for (int i = 0; i < 800; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 7);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplicateSweep,
                         ::testing::Values(1, 2, 5, 10, 19));

}  // namespace
}  // namespace hs::spar
