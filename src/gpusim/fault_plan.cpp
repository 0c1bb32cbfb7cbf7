#include "gpusim/fault_plan.hpp"

#include "common/format.hpp"

namespace hs::gpusim {

std::string_view fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc: return "alloc";
    case FaultSite::kH2D: return "h2d";
    case FaultSite::kD2H: return "d2h";
    case FaultSite::kLaunch: return "launch";
  }
  return "unknown";
}

std::string FaultTelemetry::ToString() const {
  std::string out = "ops=" + std::to_string(total_ops) +
                    " faults=" + std::to_string(total_faults) +
                    (device_lost ? " device_lost" : "");
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    if (ops_seen[i] == 0 && faults_injected[i] == 0) continue;
    out += ' ';
    out += fault_site_name(static_cast<FaultSite>(i));
    out += '=' + std::to_string(faults_injected[i]) + '/' +
           std::to_string(ops_seen[i]);
  }
  return out;
}

FaultPlan& FaultPlan::fail_nth(FaultSite site, std::uint64_t nth) {
  return fail_nth(site, nth, default_code(site));
}

FaultPlan& FaultPlan::fail_nth(FaultSite site, std::uint64_t nth,
                               ErrorCode code) {
  Rule r;
  r.kind = Rule::Kind::kNth;
  r.site = site;
  r.nth = nth;
  r.code = code;
  rules_.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::fail_probabilistic(FaultSite site, double rate) {
  return fail_probabilistic(site, rate, default_code(site));
}

FaultPlan& FaultPlan::fail_probabilistic(FaultSite site, double rate,
                                         ErrorCode code) {
  Rule r;
  r.kind = Rule::Kind::kProbabilistic;
  r.site = site;
  r.rate = rate;
  r.code = code;
  rules_.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::lose_device_at(std::uint64_t nth_global_op) {
  Rule r;
  r.kind = Rule::Kind::kNth;
  r.sticky = true;
  r.any_site = true;
  r.nth = nth_global_op;
  r.code = ErrorCode::kUnavailable;
  rules_.push_back(r);
  return *this;
}

FaultPlan& FaultPlan::lose_device_probabilistic(double rate) {
  Rule r;
  r.kind = Rule::Kind::kProbabilistic;
  r.sticky = true;
  r.any_site = true;
  r.rate = rate;
  r.code = ErrorCode::kUnavailable;
  rules_.push_back(r);
  return *this;
}

Status FaultPlan::inject(FaultSite site, const Rule& rule) {
  const auto i = static_cast<std::size_t>(site);
  telemetry_.faults_injected[i] += 1;
  telemetry_.total_faults += 1;
  FaultRecord rec;
  rec.site = site;
  rec.site_op = telemetry_.ops_seen[i];
  rec.global_op = telemetry_.total_ops;
  rec.code = rule.code;
  rec.sticky = rule.sticky;
  telemetry_.records.push_back(rec);
  if (rule.sticky) {
    lost_ = true;
    telemetry_.device_lost = true;
    return Unavailable("injected fault: device lost at op " +
                       std::to_string(telemetry_.total_ops));
  }
  std::string msg = "injected fault: ";
  msg += fault_site_name(site);
  msg += " op " + std::to_string(rec.site_op);
  return {rule.code, std::move(msg)};
}

Status FaultPlan::on_op(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  telemetry_.ops_seen[i] += 1;
  telemetry_.total_ops += 1;
  if (lost_) {
    return Unavailable("injected fault: device lost");
  }
  for (Rule& rule : rules_) {
    if (!rule.any_site && rule.site != site) continue;
    bool hit = false;
    switch (rule.kind) {
      case Rule::Kind::kNth: {
        if (rule.fired) break;
        const std::uint64_t count =
            rule.any_site ? telemetry_.total_ops : telemetry_.ops_seen[i];
        if (count == rule.nth) {
          rule.fired = true;
          hit = true;
        }
        break;
      }
      case Rule::Kind::kProbabilistic:
        hit = rng_.chance(rule.rate);
        break;
    }
    if (hit) return inject(site, rule);
  }
  return OkStatus();
}

namespace {

bool parse_site(std::string_view name, FaultSite* site, bool* any) {
  *any = false;
  if (name == "alloc") { *site = FaultSite::kAlloc; return true; }
  if (name == "h2d") { *site = FaultSite::kH2D; return true; }
  if (name == "d2h") { *site = FaultSite::kD2H; return true; }
  if (name == "launch") { *site = FaultSite::kLaunch; return true; }
  if (name == "any") { *any = true; return true; }
  return false;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  auto bad = [&spec](std::string_view clause, std::string_view why) {
    return InvalidArgument("bad --faults clause '" + std::string(clause) +
                           "' in '" + std::string(spec) + "': " +
                           std::string(why));
  };

  std::uint64_t seed = 42;
  struct PendingRule {
    std::string site;
    std::string trigger;
    std::string value;
  };
  std::vector<PendingRule> pending;

  std::string_view rest = spec;
  while (!rest.empty()) {
    std::size_t comma = rest.find(',');
    std::string_view clause = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (clause.empty()) continue;

    std::size_t eq = clause.find('=');
    if (eq == std::string_view::npos) return bad(clause, "missing '='");
    std::string_view key = clause.substr(0, eq);
    std::string_view value = clause.substr(eq + 1);

    if (key == "seed") {
      auto parsed = parse_int<std::uint64_t>(value);
      if (!parsed.ok()) return bad(clause, "seed must be a u64");
      seed = parsed.value();
      continue;
    }
    std::size_t dot = key.find('.');
    if (dot == std::string_view::npos) {
      return bad(clause, "expected <site>.<trigger>=<value>");
    }
    pending.push_back(PendingRule{std::string(key.substr(0, dot)),
                                  std::string(key.substr(dot + 1)),
                                  std::string(value)});
  }

  FaultPlan plan(seed);
  for (const PendingRule& p : pending) {
    const std::string clause = p.site + "." + p.trigger + "=" + p.value;
    const bool sticky = p.site == "lost";
    FaultSite site = FaultSite::kAlloc;
    bool any_site = sticky;
    if (!sticky && !parse_site(p.site, &site, &any_site)) {
      return bad(clause, "unknown site (want alloc/h2d/d2h/launch/any/lost)");
    }
    if (p.trigger == "nth") {
      const std::uint64_t nth = parse_int<std::uint64_t>(p.value).value_or(0);
      if (nth == 0) return bad(clause, "nth must be a positive integer");
      if (sticky) {
        plan.lose_device_at(nth);
      } else {
        Rule r;
        r.kind = Rule::Kind::kNth;
        r.any_site = any_site;
        r.site = site;
        r.nth = nth;
        r.code = any_site ? ErrorCode::kInternal : default_code(site);
        plan.rules_.push_back(r);
      }
    } else if (p.trigger == "p") {
      const double rate = parse_double(p.value).value_or(-1.0);
      if (rate < 0.0 || rate > 1.0) {
        return bad(clause, "p must be a probability in [0, 1]");
      }
      if (sticky) {
        plan.lose_device_probabilistic(rate);
      } else {
        Rule r;
        r.kind = Rule::Kind::kProbabilistic;
        r.any_site = any_site;
        r.site = site;
        r.rate = rate;
        r.code = any_site ? ErrorCode::kInternal : default_code(site);
        plan.rules_.push_back(r);
      }
    } else {
      return bad(clause, "unknown trigger (want nth or p)");
    }
  }
  return plan;
}

}  // namespace hs::gpusim
