#include "cluster/topology.hpp"

#include <algorithm>
#include <deque>

#include "common/format.hpp"

namespace hs::cluster {

namespace {

/// "key=value" -> value, or empty when the token has a different key.
std::string_view kv(std::string_view token, std::string_view key) {
  if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
      token[key.size()] == '=') {
    return token.substr(key.size() + 1);
  }
  return {};
}

Status line_error(std::size_t lineno, const std::string& what) {
  return InvalidArgument("topology line " + std::to_string(lineno) + ": " +
                         what);
}

}  // namespace

int Topology::node_index(std::string_view name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Topology::validate() const {
  if (nodes.empty()) return InvalidArgument("topology has no nodes");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name.empty()) return InvalidArgument("node with empty name");
    if (nodes[i].cores <= 0) {
      return InvalidArgument("node '" + nodes[i].name +
                             "': cores must be positive");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes[j].name == nodes[i].name) {
        return InvalidArgument("duplicate node '" + nodes[i].name + "'");
      }
    }
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkSpec& l = links[i];
    if (node_index(l.a) < 0) {
      return InvalidArgument("link references unknown node '" + l.a + "'");
    }
    if (node_index(l.b) < 0) {
      return InvalidArgument("link references unknown node '" + l.b + "'");
    }
    if (l.a == l.b) {
      return InvalidArgument("self-link on node '" + l.a + "'");
    }
    if (!(l.bandwidth_bytes_per_s > 0)) {
      return InvalidArgument("link " + l.a + "-" + l.b +
                             ": bandwidth must be positive");
    }
    if (l.latency_s < 0) {
      return InvalidArgument("link " + l.a + "-" + l.b +
                             ": negative latency");
    }
    for (std::size_t j = 0; j < i; ++j) {
      const LinkSpec& m = links[j];
      if ((m.a == l.a && m.b == l.b) || (m.a == l.b && m.b == l.a)) {
        return InvalidArgument("duplicate link " + l.a + "-" + l.b);
      }
    }
  }
  const Routes routes = compute_routes(*this);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (routes.hops[0][i] < 0) {
      return InvalidArgument("node '" + nodes[i].name +
                             "' has no path of links to node '" +
                             nodes[0].name + "'");
    }
  }
  return OkStatus();
}

Result<Topology> parse_topology(std::string_view text) {
  Topology topo;
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string_view> tok = split_ws(line);
    if (tok.empty()) continue;
    auto bad = [&](std::string_view what, std::string_view value) {
      return line_error(lineno, "bad " + std::string(what) + " value '" +
                                    std::string(value) + "'");
    };

    if (tok[0] == "node") {
      if (tok.size() < 2) return line_error(lineno, "node needs a name");
      NodeSpec node;
      node.name = tok[1];
      int gpus = 0;
      for (std::size_t t = 2; t < tok.size(); ++t) {
        if (auto v = kv(tok[t], "cores"); !v.empty()) {
          auto cores = parse_int<int>(v);
          if (!cores.ok()) return bad("cores", v);
          node.cores = cores.value();
        } else if (auto g = kv(tok[t], "gpus"); !g.empty()) {
          auto count = parse_int<int>(g);
          if (!count.ok()) return bad("gpus", g);
          gpus = count.value();
          if (gpus < 0) return line_error(lineno, "gpus must be >= 0");
        } else {
          return line_error(lineno, "unknown node attribute '" +
                                        std::string(tok[t]) + "'");
        }
      }
      node.gpus.assign(static_cast<std::size_t>(gpus),
                       gpusim::DeviceSpec::TitanXP());
      topo.nodes.push_back(std::move(node));
    } else if (tok[0] == "link") {
      if (tok.size() < 3) return line_error(lineno, "link needs two nodes");
      LinkSpec link;
      link.a = tok[1];
      link.b = tok[2];
      bool have_bw = false;
      for (std::size_t t = 3; t < tok.size(); ++t) {
        if (auto v = kv(tok[t], "bw"); !v.empty()) {
          auto bw = parse_byte_quantity(v);
          if (!bw.ok()) return bad("bw", v);
          link.bandwidth_bytes_per_s = bw.value();
          have_bw = true;
        } else if (auto l = kv(tok[t], "lat"); !l.empty()) {
          auto lat = parse_seconds(l);
          if (!lat.ok()) return bad("lat", l);
          link.latency_s = lat.value();
        } else if (tok[t] == "half") {
          link.full_duplex = false;
        } else {
          return line_error(lineno, "unknown link attribute '" +
                                        std::string(tok[t]) + "'");
        }
      }
      if (!have_bw) return line_error(lineno, "link needs bw=");
      topo.links.push_back(std::move(link));
    } else {
      return line_error(lineno,
                        "unknown directive '" + std::string(tok[0]) + "'");
    }
  }
  if (Status s = topo.validate(); !s.ok()) return s;
  return topo;
}

Routes compute_routes(const Topology& topo) {
  const int n = static_cast<int>(topo.nodes.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const LinkSpec& l : topo.links) {
    int a = topo.node_index(l.a);
    int b = topo.node_index(l.b);
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  // Lowest-index tie break: visit neighbors in sorted order.
  for (auto& v : adj) std::sort(v.begin(), v.end());

  Routes r;
  r.next.assign(static_cast<std::size_t>(n),
                std::vector<int>(static_cast<std::size_t>(n), -1));
  r.hops.assign(static_cast<std::size_t>(n),
                std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int s = 0; s < n; ++s) {
    auto& next = r.next[static_cast<std::size_t>(s)];
    auto& hops = r.hops[static_cast<std::size_t>(s)];
    next[static_cast<std::size_t>(s)] = s;
    hops[static_cast<std::size_t>(s)] = 0;
    // BFS from s; first_hop[d] is the neighbor of s the path starts with.
    std::deque<int> queue{s};
    std::vector<int> first_hop(static_cast<std::size_t>(n), -1);
    first_hop[static_cast<std::size_t>(s)] = s;
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop_front();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (hops[static_cast<std::size_t>(v)] != -1) continue;
        hops[static_cast<std::size_t>(v)] =
            hops[static_cast<std::size_t>(u)] + 1;
        first_hop[static_cast<std::size_t>(v)] =
            u == s ? v : first_hop[static_cast<std::size_t>(u)];
        next[static_cast<std::size_t>(v)] =
            first_hop[static_cast<std::size_t>(v)];
        queue.push_back(v);
      }
    }
  }
  return r;
}

Topology full_mesh(int nodes, int gpus_per_node,
                   const gpusim::DeviceSpec& gpu_spec,
                   double bandwidth_bytes_per_s, double latency_s,
                   int cores_per_node) {
  Topology topo;
  for (int i = 0; i < nodes; ++i) {
    NodeSpec node;
    node.name = "n" + std::to_string(i);
    node.cores = cores_per_node;
    node.gpus.assign(static_cast<std::size_t>(std::max(0, gpus_per_node)),
                     gpu_spec);
    topo.nodes.push_back(std::move(node));
  }
  for (int a = 0; a < nodes; ++a) {
    for (int b = a + 1; b < nodes; ++b) {
      LinkSpec link;
      link.a = "n" + std::to_string(a);
      link.b = "n" + std::to_string(b);
      link.bandwidth_bytes_per_s = bandwidth_bytes_per_s;
      link.latency_s = latency_s;
      topo.links.push_back(std::move(link));
    }
  }
  return topo;
}

Topology single_host(int gpus, const gpusim::DeviceSpec& gpu_spec) {
  Topology topo;
  NodeSpec node;
  node.name = "host";
  node.gpus.assign(static_cast<std::size_t>(std::max(0, gpus)), gpu_spec);
  topo.nodes.push_back(std::move(node));
  return topo;
}

}  // namespace hs::cluster
