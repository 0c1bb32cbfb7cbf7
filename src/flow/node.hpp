// Stream node abstraction — the ff_node equivalent.
//
// A Node's svc() is called once per input item (or repeatedly with an empty
// item for sources) and returns what to do next: forward an item, continue
// without output, or end the stream. Nodes may additionally emit() extra
// items mid-svc (FastFlow's ff_send_out).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "flow/item.hpp"

namespace hs::flow {

/// Result of one service call.
struct SvcResult {
  enum class Kind : std::uint8_t {
    kItem,  ///< forward `item` downstream
    kGoOn,  ///< no output for this input; keep running
    kEos,   ///< end of stream (sources); stages normally never return this
  };

  Kind kind = Kind::kGoOn;
  Item item;

  static SvcResult Out(Item item) {
    SvcResult r;
    r.kind = Kind::kItem;
    r.item = std::move(item);
    return r;
  }
  static SvcResult GoOn() { return SvcResult{}; }
  static SvcResult Eos() {
    SvcResult r;
    r.kind = Kind::kEos;
    return r;
  }
};

/// Runtime-facing output port; implemented by the pipeline wiring. send()
/// blocks (with backoff) until queue space is available or the run aborts;
/// it returns false only on abort.
class OutPort {
 public:
  virtual ~OutPort() = default;
  virtual bool send(Item item) = 0;
};

/// Base class for user stages. Subclass and implement svc(); or use the
/// lambda adapters in flow/adapters.hpp.
class Node {
 public:
  virtual ~Node() = default;

  /// Called on the node's own thread before the first svc(). `replica_id`
  /// is the worker index inside a farm (0 for plain stages).
  virtual void on_init(int replica_id) { (void)replica_id; }

  /// Called after the last svc(), still on the node's thread.
  virtual void on_end() {}

  /// One service call. Sources receive an empty item and return Eos() when
  /// the stream is exhausted; sinks return GoOn().
  virtual SvcResult svc(Item in) = 0;

 protected:
  /// Sends an additional item downstream from inside svc(). Only valid
  /// while the node is running in a pipeline; returns false if the run is
  /// aborting. Farm workers must not use emit(): the collector restores
  /// order from exactly one output per input (enforced by the runtime).
  bool emit(Item item);

 private:
  friend struct NodeAccess;
  OutPort* out_ = nullptr;
  bool emit_allowed_ = true;
};

/// Runtime-internal binder for a node's output port. Not for user code.
struct NodeAccess {
  static void bind(Node& node, OutPort* out, bool emit_allowed) {
    node.out_ = out;
    node.emit_allowed_ = emit_allowed;
  }
  static void unbind(Node& node) { node.out_ = nullptr; }
};

inline bool Node::emit(Item item) {
  if (out_ == nullptr) return false;
  // The runtime clears emit_allowed_ for farm workers.
  if (!emit_allowed_) {
    assert(false && "emit() is not permitted in farm workers");
    return false;
  }
  return out_->send(std::move(item));
}

}  // namespace hs::flow
