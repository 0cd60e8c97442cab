// Per-node protocol state machines and their I/O surfaces.
//
// The simulator drives every node through the synchronous CONGEST schedule:
//   for round i = 1..R:  all send(i)  ->  adversary acts  ->  all receive(i)
// where "all" means every node with work: a node whose nextWake() says it
// is not due sends nothing and receives only when a message reaches it.
// KT1 knowledge: a node addresses neighbors by their NodeId (it knows the
// ids of its neighbors); topology beyond that is only available where the
// paper grants it (supported-CONGEST / preprocessing outputs).
//
// Outbox/Inbox are interfaces: the Network binds them to the arena message
// plane (sim/arc_buffer.h), while compilers bind them to capture/injection
// maps so an inner algorithm's rounds can be simulated, corrected and
// re-delivered -- the round-by-round simulation pattern every compiler in
// the paper uses.  Reads hand out MsgView (zero-copy); writes still accept
// owning Msg values, which the arena plane copies into its sender slab.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "sim/arc_buffer.h"
#include "sim/message.h"
#include "sim/sharded_plane.h"
#include "util/rng.h"

namespace mobile::sim {

using graph::ArcId;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Write surface handed to a node during send().
class Outbox {
 public:
  Outbox(const Graph& g, NodeId self) : g_(g), self_(self) {}
  virtual ~Outbox() = default;

  /// Sends `m` to neighbor `to` this round (overwrites earlier send).
  virtual void to(NodeId to, const Msg& m) = 0;

  /// Broadcast to every neighbor.
  void toAll(const Msg& m) {
    for (const auto& nb : g_.neighbors(self_)) to(nb.node, m);
  }

  [[nodiscard]] NodeId self() const { return self_; }

 protected:
  const Graph& g_;
  NodeId self_;
};

/// Read surface handed to a node during receive().
class Inbox {
 public:
  Inbox(const Graph& g, NodeId self) : g_(g), self_(self) {}
  virtual ~Inbox() = default;

  /// Message that arrived from neighbor `from` (absent view if none).
  [[nodiscard]] virtual MsgView from(NodeId from) const = 0;

  [[nodiscard]] NodeId self() const { return self_; }

 protected:
  const Graph& g_;
  NodeId self_;
};

/// Network-backed outbox appending into the sender's arena slab.  Bound to
/// the shard owning `self` once at construction: every out-arc of self is
/// local to that shard (CSR arc ids make a node's arcs contiguous), so each
/// send is slab append + header write with no routing.
class ArcOutbox final : public Outbox {
 public:
  ArcOutbox(const Graph& g, NodeId self, ShardedPlane& plane)
      : Outbox(g, self), shard_(plane.shardOfNode(self)) {
    buf_ = &plane.shard(shard_);
    arcBase_ = plane.arcBase(shard_);
    slab_ = static_cast<std::uint32_t>(self - plane.nodeBase(shard_));
  }
  void to(NodeId to, const Msg& m) override {
    buf_->putMsg(slab_, g_.arcFromTo(self_, to) - arcBase_, m);
  }

 private:
  std::size_t shard_;
  ArcBuffer* buf_;
  ArcId arcBase_;
  std::uint32_t slab_;  // local slab = self - shard's first node
};

/// Network-backed inbox viewing the sharded plane.  In-arcs originate at
/// the senders, so each read routes to the sender's shard (one binary
/// search over shard boundaries).
class ArcInbox final : public Inbox {
 public:
  ArcInbox(const Graph& g, NodeId self, const ShardedPlane& plane)
      : Inbox(g, self), plane_(plane) {}
  [[nodiscard]] MsgView from(NodeId from) const override {
    return plane_.view(g_.arcFromTo(from, self_));
  }

 private:
  const ShardedPlane& plane_;
};

/// Capture outbox: collects an inner algorithm's sends into a map
/// (neighbor -> Msg) so a compiler can mask / sketch / correct them.
class MapOutbox final : public Outbox {
 public:
  MapOutbox(const Graph& g, NodeId self) : Outbox(g, self) {}
  void to(NodeId to, const Msg& m) override { msgs_[to] = m; }
  [[nodiscard]] const std::map<NodeId, Msg>& messages() const { return msgs_; }

 private:
  std::map<NodeId, Msg> msgs_;
};

/// Adjacency-indexed capture outbox: one reusable Msg slot per neighbor,
/// fixed shape from construction.  The zero-allocation replacement for the
/// per-sim-round `MapOutbox capture(g_, self_)` exchange-step idiom: keep
/// one FlatCapture as a member, call begin() before handing it to the
/// inner algorithm's send (marks every slot absent, keeps word capacity),
/// then read the capture back by adjacency position or neighbor id.  In
/// steady state nothing is allocated -- slot Msg words reuse their
/// capacity, and the neighbor index is built once.
class FlatCapture final : public Outbox {
 public:
  FlatCapture(const Graph& g, NodeId self)
      : Outbox(g, self), slots_(g.degree(self)) {
    const auto& nbs = g.neighbors(self);
    for (std::size_t i = 0; i < nbs.size(); ++i)
      index_.emplace(nbs[i].node, i);
  }

  /// Marks every slot absent (keeping capacity); call before each capture.
  void begin() {
    for (auto& s : slots_) {
      s.present = false;
      s.words.clear();
    }
  }

  /// Sends to non-neighbors are dropped (asserting in debug builds),
  /// matching MapOutbox, which accepted the entry and never read it.
  void to(NodeId to, const Msg& m) override {
    const std::ptrdiff_t i = indexOf(to);
    assert(i >= 0 && "FlatCapture::to: target is not a neighbor of self");
    if (i < 0) return;
    slots_[static_cast<std::size_t>(i)] = m;
  }

  [[nodiscard]] std::size_t slotCount() const { return slots_.size(); }
  /// Slot of the i-th neighbor in g.neighbors(self) order.
  [[nodiscard]] const Msg& slot(std::size_t i) const { return slots_[i]; }
  [[nodiscard]] const Msg& forNeighbor(NodeId to) const {
    return slots_[index_.at(to)];
  }
  /// Adjacency position of `to`, or -1 when not a neighbor of self.
  [[nodiscard]] std::ptrdiff_t indexOf(NodeId to) const {
    const auto it = index_.find(to);
    return it == index_.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
  }

 private:
  std::vector<Msg> slots_;
  std::map<NodeId, std::size_t> index_;
};

/// Injection inbox: delivers compiler-reconstructed messages to the inner
/// algorithm.
class MapInbox final : public Inbox {
 public:
  MapInbox(const Graph& g, NodeId self) : Inbox(g, self) {}
  void put(NodeId from, Msg m) { msgs_[from] = std::move(m); }
  /// Mutable slot for in-place reuse: compilers that redeliver every round
  /// assign into the same slots (Msg assignment keeps the words capacity)
  /// instead of re-inserting -- remember to mark unused slots absent.
  [[nodiscard]] Msg& slot(NodeId from) { return msgs_[from]; }
  /// Marks every existing slot absent (capacity kept): the delivery-reuse
  /// idiom for compilers whose sender set recurs round over round --
  /// clearSlots(), rewrite the present ones via slot(), deliver.
  void clearSlots() {
    for (auto& [from, m] : msgs_) {
      m.present = false;
      m.words.clear();
    }
  }
  [[nodiscard]] MsgView from(NodeId from) const override {
    const auto it = msgs_.find(from);
    return it != msgs_.end() ? MsgView(it->second) : MsgView();
  }

 private:
  std::map<NodeId, Msg> msgs_;
};

/// A node-local protocol instance.
class NodeState {
 public:
  virtual ~NodeState() = default;

  /// Emits this round's outgoing messages.  `round` is 1-based.
  virtual void send(int round, Outbox& out) = 0;

  /// Consumes this round's (possibly adversarially altered) inbox.
  virtual void receive(int round, const Inbox& in) = 0;

  /// Optional early-termination signal; the network stops when all nodes
  /// report done (or the round limit is hit).
  [[nodiscard]] virtual bool done() const { return false; }

  /// The wake contract: the first round after `round` at which this node
  /// must run even when no message reaches it.  The engine asks after the
  /// node's receive(round); it then calls send(r) only on nodes that are
  /// due at r, and receive(r) on those plus every node with a present
  /// in-arc at r (docs/architecture.md section 2).  In exchange the node
  /// promises: send(r) at a round it is not due sends nothing, and a
  /// receive(r) with an empty inbox leaves no state a later round can
  /// observe.  The default is due every round -- the plain schedule.
  [[nodiscard]] virtual int nextWake(int round) const { return round + 1; }

  /// Canonical output for equivalence checking between fault-free and
  /// compiled executions.
  [[nodiscard]] virtual std::uint64_t output() const { return 0; }
};

/// Per-node protocol factory: an "algorithm" in the paper's sense.
struct Algorithm {
  /// Builds node v's state machine.  `rng` is node-private randomness the
  /// adversary never sees.  Called once per node when a Network is built.
  std::function<std::unique_ptr<NodeState>(NodeId v, const Graph& g,
                                           util::Rng rng)>
      makeNode;

  /// Declared fault-free round count r (compilers consume this).
  int rounds = 0;

  /// Declared congestion bound `cong` (max messages per edge over the whole
  /// run); 0 = unknown/unbounded.
  int congestion = 0;
};

}  // namespace mobile::sim
