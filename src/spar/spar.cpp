#include "spar/spar.hpp"

namespace hs::spar {

ToStream::ToStream(std::string name) : name_(std::move(name)) {}

void ToStream::add_source(std::unique_ptr<flow::Node> node) {
  if (source_) {
    ++extra_sources_;
    return;
  }
  source_ = std::move(node);
}

void ToStream::add_stage(
    int replicas, StageOptions opts,
    std::function<std::unique_ptr<flow::Node>()> factory) {
  if (!source_) stage_before_source_ = true;
  if (sink_) stage_after_sink_ = true;
  if (replicas < 1 && !has_bad_replicate_) {
    has_bad_replicate_ = true;
    bad_replicate_ = replicas;
  }
  stages_.push_back(StageDecl{replicas, opts, std::move(factory)});
}

ToStream& ToStream::stage_nodes(
    Replicate replicate, std::function<std::unique_ptr<flow::Node>()> factory) {
  add_stage(replicate.n, {}, std::move(factory));
  return *this;
}

void ToStream::add_sink(std::unique_ptr<flow::Node> node) {
  if (sink_) {
    ++extra_sinks_;
    return;
  }
  sink_ = std::move(node);
}

Status ToStream::check() const {
  auto diag = [this](const std::string& msg) {
    return InvalidArgument("[spar] '" + name_ + "': " + msg);
  };
  if (!source_) {
    return diag("'ToStream' region has no stream source (the annotated loop "
                "producing stream items is missing)");
  }
  if (extra_sources_ > 0) {
    return diag("'ToStream' region declares more than one stream source");
  }
  if (stage_before_source_) {
    return diag("'Stage' declared before the 'ToStream' loop body; stages "
                "must appear inside the annotated region");
  }
  if (!sink_ && stages_.empty()) {
    return diag("'ToStream' region must contain at least one 'Stage'");
  }
  if (!sink_) {
    return diag("'ToStream' region has no final collecting 'Stage'");
  }
  if (extra_sinks_ > 0) {
    return diag("'ToStream' region declares more than one final 'Stage'");
  }
  if (stage_after_sink_) {
    return diag("'Stage' declared after the final collecting 'Stage'");
  }
  if (has_bad_replicate_) {
    return diag("'Replicate(" + std::to_string(bad_replicate_) +
                ")' requires a positive worker count");
  }
  return OkStatus();
}

std::string ToStream::graph_description() const {
  std::string out = "pipeline(source";
  for (const StageDecl& s : stages_) {
    if (s.lowers_to_farm()) {
      out += ", farm(stage x " + std::to_string(s.replicas) + ")";
    } else {
      out += ", stage";
    }
  }
  out += ", sink)";
  return out;
}

int ToStream::thread_count() const {
  int n = 2;  // source + sink
  for (const StageDecl& s : stages_) {
    n += s.lowers_to_farm() ? s.replicas + 2 : 1;
  }
  return n;
}

Status ToStream::run(const Options& options) {
  if (ran_) return FailedPrecondition("[spar] region already executed");
  if (Status s = check(); !s.ok()) return s;
  ran_ = true;

  flow::PipelineOptions popts;
  popts.pin = options.pin;

  flow::Pipeline pipe(popts);
  pipe.add_stage(std::move(source_), name_ + ".source");
  int i = 0;
  for (StageDecl& s : stages_) {
    std::string sname = name_ + ".stage" + std::to_string(i++);
    if (s.lowers_to_farm()) {
      pipe.add_farm(std::move(s.factory), s.replicas, sname);
    } else {
      pipe.add_stage(s.factory(), sname);
    }
  }
  pipe.add_stage(std::move(sink_), name_ + ".sink");
  Status s = pipe.run_and_wait();
  failure_report_ = pipe.failure_report();
  return s;
}

}  // namespace hs::spar
