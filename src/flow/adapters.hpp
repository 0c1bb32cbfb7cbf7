// Typed lambda adapters over the untyped Node interface, so applications
// can express pipelines without writing Node subclasses:
//
//   pipe.add_stage(flow::make_source<int>([n = 0]() mutable
//       { return n < 100 ? std::optional<int>(n++) : std::nullopt; }));
//   pipe.add_farm(flow::stage_factory<int, double>(
//       [](int x) { return x * 0.5; }), /*replicas=*/4);
//   pipe.add_stage(flow::make_sink<double>([&](double v) { sum += v; }));
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "flow/node.hpp"

namespace hs::flow {

/// Source from a generator: nullopt ends the stream.
template <typename T, typename Fn>
class LambdaSource final : public Node {
 public:
  explicit LambdaSource(Fn fn) : fn_(std::move(fn)) {}

  SvcResult svc(Item) override {
    std::optional<T> next = fn_();
    if (!next.has_value()) return SvcResult::Eos();
    return SvcResult::Out(Item::of<T>(std::move(*next)));
  }

 private:
  Fn fn_;
};

template <typename T, typename Fn>
std::unique_ptr<Node> make_source(Fn fn) {
  return std::make_unique<LambdaSource<T, Fn>>(std::move(fn));
}

/// Transform stage In -> Out.
template <typename In, typename Out, typename Fn>
class LambdaStage final : public Node {
 public:
  explicit LambdaStage(Fn fn) : fn_(std::move(fn)) {}

  SvcResult svc(Item in) override {
    return SvcResult::Out(Item::of<Out>(fn_(in.take<In>())));
  }

 private:
  Fn fn_;
};

template <typename In, typename Out, typename Fn>
std::unique_ptr<Node> make_stage(Fn fn) {
  return std::make_unique<LambdaStage<In, Out, Fn>>(std::move(fn));
}

/// Filtering transform: nullopt drops the item (a farm worker emits a hole).
template <typename In, typename Out, typename Fn>
class LambdaFilterStage final : public Node {
 public:
  explicit LambdaFilterStage(Fn fn) : fn_(std::move(fn)) {}

  SvcResult svc(Item in) override {
    std::optional<Out> out = fn_(in.take<In>());
    if (!out.has_value()) return SvcResult::GoOn();
    return SvcResult::Out(Item::of<Out>(std::move(*out)));
  }

 private:
  Fn fn_;
};

template <typename In, typename Out, typename Fn>
std::unique_ptr<Node> make_filter_stage(Fn fn) {
  return std::make_unique<LambdaFilterStage<In, Out, Fn>>(std::move(fn));
}

/// Terminal consumer.
template <typename In, typename Fn>
class LambdaSink final : public Node {
 public:
  explicit LambdaSink(Fn fn) : fn_(std::move(fn)) {}

  SvcResult svc(Item in) override {
    fn_(in.take<In>());
    return SvcResult::GoOn();
  }

 private:
  Fn fn_;
};

template <typename In, typename Fn>
std::unique_ptr<Node> make_sink(Fn fn) {
  return std::make_unique<LambdaSink<In, Fn>>(std::move(fn));
}

/// Worker factory for add_farm from a copyable callable.
template <typename In, typename Out, typename Fn>
std::function<std::unique_ptr<Node>()> stage_factory(Fn fn) {
  return [fn]() -> std::unique_ptr<Node> {
    return std::make_unique<LambdaStage<In, Out, Fn>>(fn);
  };
}

}  // namespace hs::flow
