#include "cluster/fabric.hpp"

#include <cassert>

namespace hs::cluster {

Fabric::Fabric(const Topology& topo, des::Timeline* timeline)
    : timeline_(timeline), routes_(compute_routes(topo)) {
  assert(timeline != nullptr);
  const int n = static_cast<int>(topo.nodes.size());
  link_of_.assign(static_cast<std::size_t>(n),
                  std::vector<int>(static_cast<std::size_t>(n), -1));
  for (const LinkSpec& spec : topo.links) {
    Link link;
    link.spec = spec;
    link.a = topo.node_index(spec.a);
    link.b = topo.node_index(spec.b);
    if (spec.full_duplex) {
      link.forward =
          timeline_->add_engine("link." + spec.a + ">" + spec.b);
      link.backward =
          timeline_->add_engine("link." + spec.b + ">" + spec.a);
    } else {
      link.forward =
          timeline_->add_engine("link." + spec.a + "<>" + spec.b);
      link.backward = link.forward;
    }
    int idx = static_cast<int>(links_.size());
    link_of_[static_cast<std::size_t>(link.a)]
            [static_cast<std::size_t>(link.b)] = idx;
    link_of_[static_cast<std::size_t>(link.b)]
            [static_cast<std::size_t>(link.a)] = idx;
    links_.push_back(link);
  }
}

des::TaskId Fabric::send(int from, int to, std::uint64_t bytes,
                         des::TaskId dep, std::string_view label) {
  if (from == to) return dep;
  assert(hops(from, to) > 0 && "no path between nodes");
  des::TaskId tail = dep;
  int at = from;
  while (at != to) {
    int nxt = routes_.next[static_cast<std::size_t>(at)]
                          [static_cast<std::size_t>(to)];
    int li = link_of_[static_cast<std::size_t>(at)]
                     [static_cast<std::size_t>(nxt)];
    assert(li >= 0);
    Link& link = links_[static_cast<std::size_t>(li)];
    des::EngineId engine = at == link.a ? link.forward : link.backward;
    double duration =
        link.spec.latency_s +
        static_cast<double>(bytes) / link.spec.bandwidth_bytes_per_s;
    tail = timeline_->submit(engine, duration, {&tail, 1}, label);
    link.transfers += 1;
    link.bytes += bytes;
    total_transfers_ += 1;
    total_bytes_ += bytes;
    at = nxt;
  }
  return tail;
}

std::vector<Fabric::LinkStats> Fabric::link_stats() const {
  std::vector<LinkStats> out;
  out.reserve(links_.size());
  for (const Link& link : links_) {
    LinkStats s;
    s.name = link.spec.a + "-" + link.spec.b;
    s.transfers = link.transfers;
    s.bytes = link.bytes;
    s.busy_seconds = timeline_->engine_stats(link.forward).busy;
    if (!(link.backward == link.forward)) {
      s.busy_seconds += timeline_->engine_stats(link.backward).busy;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void Fabric::export_counters(telemetry::Registry& registry,
                             const std::string& prefix) const {
  std::uint64_t bytes = 0;
  std::uint64_t transfers = 0;
  for (const Link& link : links_) {
    std::string base = prefix + ".link." + link.spec.a + "-" + link.spec.b;
    registry.counter(base + ".transfers")->add(link.transfers);
    registry.counter(base + ".bytes")->add(link.bytes);
    bytes += link.bytes;
    transfers += link.transfers;
  }
  registry.counter(prefix + ".fabric.transfers")->add(transfers);
  registry.counter(prefix + ".fabric.bytes")->add(bytes);
}

}  // namespace hs::cluster
