#include "algo/mst.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "algo/payloads.h"

namespace mobile::algo {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

std::vector<EdgeId> mstEdgeRanking(const Graph& g) {
  std::vector<EdgeId> order(static_cast<std::size_t>(g.edgeCount()));
  for (EdgeId e = 0; e < g.edgeCount(); ++e)
    order[static_cast<std::size_t>(e)] = e;
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    const auto& ea = g.edge(a);
    const auto& eb = g.edge(b);
    const std::uint64_t wa =
        (mix(static_cast<std::uint64_t>(ea.u),
             static_cast<std::uint64_t>(ea.v)) &
         0xffff);
    const std::uint64_t wb =
        (mix(static_cast<std::uint64_t>(eb.u),
             static_cast<std::uint64_t>(eb.v)) &
         0xffff);
    if (wa != wb) return wa < wb;
    return a < b;  // deterministic tiebreak -> unique MST
  });
  return order;
}

namespace {

struct DisjointSet {
  std::vector<int> parent;
  explicit DisjointSet(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[static_cast<std::size_t>(a)] = b;
    return true;
  }
};

}  // namespace

std::set<EdgeId> mstReference(const Graph& g) {
  const auto order = mstEdgeRanking(g);
  DisjointSet ds(static_cast<std::size_t>(g.nodeCount()));
  std::set<EdgeId> mst;
  for (const EdgeId e : order) {
    const auto& ed = g.edge(e);
    if (ds.unite(ed.u, ed.v)) mst.insert(e);
  }
  return mst;
}

std::vector<std::uint64_t> mstExpectedOutputs(const Graph& g) {
  const auto mst = mstReference(g);
  const auto order = mstEdgeRanking(g);
  std::map<EdgeId, int> rankOf;
  for (std::size_t r = 0; r < order.size(); ++r)
    rankOf[order[r]] = static_cast<int>(r);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(g.nodeCount()));
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    std::vector<int> ranks;
    for (const auto& nb : g.neighbors(v))
      if (mst.count(nb.edge)) ranks.push_back(rankOf[nb.edge]);
    std::sort(ranks.begin(), ranks.end());
    std::uint64_t h = 0x9e37;
    for (const int r : ranks) h = mix(h, static_cast<std::uint64_t>(r));
    out[static_cast<std::size_t>(v)] = h & 0xffffffffULL;
  }
  return out;
}

namespace {

// Wire encodings (all < 2^32 so payloads compose with the compilers):
//   A round:  fragment id.
//   B rounds: best outgoing edge rank + 1 (0 = "none").
//   C round 1: JOIN marker; C rounds 2..L: fragment id.
constexpr std::uint64_t kJoin = 0xffffffu;

class BoruvkaNode final : public NodeState {
 public:
  BoruvkaNode(NodeId self, const Graph& g,
              std::shared_ptr<const std::vector<EdgeId>> order, int floodLen,
              int phases)
      : self_(self),
        g_(g),
        order_(std::move(order)),
        L_(floodLen),
        phases_(phases),
        frag_(static_cast<std::uint64_t>(self)) {
    rankOf_.resize(static_cast<std::size_t>(g.edgeCount()), -1);
    for (std::size_t r = 0; r < order_->size(); ++r)
      rankOf_[static_cast<std::size_t>((*order_)[r])] = static_cast<int>(r);
  }

  // Phase layout: 1 (A) + L (B) + L (C) rounds; phases run back-to-back.
  void send(int round, Outbox& out) override {
    const int perPhase = 1 + 2 * L_;
    const int phase = (round - 1) / perPhase;
    if (phase >= phases_) return;
    const int o = (round - 1) % perPhase;
    if (o == 0) {
      out.toAll(Msg::of(frag_));
      return;
    }
    if (o <= L_) {
      // B: flood the best outgoing rank within the (pre-phase) fragment.
      if (o == 1) initCandidate();
      if (best_ >= 0)
        out.toAll(Msg::of(static_cast<std::uint64_t>(best_ + 1)));
      return;
    }
    const int c = o - L_;  // 1..L
    if (c == 1) {
      // Bridge endpoints announce JOIN over the fragment's chosen edge.
      if (best_ >= 0) {
        const EdgeId e = (*order_)[static_cast<std::size_t>(best_)];
        const auto& ed = g_.edge(e);
        if (ed.u == self_ || ed.v == self_) {
          const NodeId other = ed.u == self_ ? ed.v : ed.u;
          out.to(other, Msg::of(kJoin));
          joinEdges_.insert(e);
          mst_.insert(e);
        }
      }
      return;
    }
    // C 2..L: flood the min fragment id over old-fragment + join edges.
    for (const auto& nb : g_.neighbors(self_)) {
      const bool intra =
          nbFrag_.count(nb.node) && nbFrag_[nb.node] == phaseFrag_;
      if (intra || joinEdges_.count(nb.edge))
        out.to(nb.node, Msg::of(frag_));
    }
  }

  void receive(int round, const Inbox& in) override {
    const int perPhase = 1 + 2 * L_;
    const int phase = (round - 1) / perPhase;
    if (phase >= phases_) {
      done_ = true;
      return;
    }
    const int o = (round - 1) % perPhase;
    if (o == 0) {
      nbFrag_.clear();
      for (const auto& nb : g_.neighbors(self_)) {
        const MsgView m = in.from(nb.node);
        if (m.present()) nbFrag_[nb.node] = m.at(0);
      }
      phaseFrag_ = frag_;
      return;
    }
    if (o <= L_) {
      for (const auto& nb : g_.neighbors(self_)) {
        if (!nbFrag_.count(nb.node) || nbFrag_[nb.node] != phaseFrag_)
          continue;  // only same-fragment flooding
        const MsgView m = in.from(nb.node);
        if (!m.present() || m.at(0) == 0) continue;
        const int rank = static_cast<int>(m.at(0)) - 1;
        if (best_ < 0 || rank < best_) best_ = rank;
      }
      return;
    }
    const int c = o - L_;
    if (c == 1) {
      for (const auto& nb : g_.neighbors(self_)) {
        const MsgView m = in.from(nb.node);
        if (m.present() && m.at(0) == kJoin) {
          joinEdges_.insert(nb.edge);
          mst_.insert(nb.edge);
        }
      }
      return;
    }
    for (const auto& nb : g_.neighbors(self_)) {
      const bool intra =
          nbFrag_.count(nb.node) && nbFrag_[nb.node] == phaseFrag_;
      if (!intra && !joinEdges_.count(nb.edge)) continue;
      const MsgView m = in.from(nb.node);
      if (m.present() && m.at(0) < frag_) frag_ = m.at(0);
    }
    if (c == L_) joinEdges_.clear();  // next phase recomputes joins
  }

  [[nodiscard]] bool done() const override { return done_; }

  [[nodiscard]] std::uint64_t output() const override {
    std::vector<int> ranks;
    for (const EdgeId e : mst_)
      ranks.push_back(rankOf_[static_cast<std::size_t>(e)]);
    std::sort(ranks.begin(), ranks.end());
    std::uint64_t h = 0x9e37;
    for (const int r : ranks) h = mix(h, static_cast<std::uint64_t>(r));
    return h & 0xffffffffULL;
  }

 private:
  void initCandidate() {
    best_ = -1;
    for (const auto& nb : g_.neighbors(self_)) {
      if (!nbFrag_.count(nb.node) || nbFrag_[nb.node] == phaseFrag_) continue;
      const int rank = rankOf_[static_cast<std::size_t>(nb.edge)];
      if (best_ < 0 || rank < best_) best_ = rank;
    }
  }

  NodeId self_;
  const Graph& g_;
  std::shared_ptr<const std::vector<EdgeId>> order_;
  int L_;
  int phases_;
  std::uint64_t frag_;
  std::uint64_t phaseFrag_ = 0;
  std::vector<int> rankOf_;
  std::map<NodeId, std::uint64_t> nbFrag_;
  int best_ = -1;
  std::set<EdgeId> joinEdges_;
  std::set<EdgeId> mst_;
  bool done_ = false;
};

}  // namespace

sim::Algorithm makeBoruvkaMst(const Graph& g, int floodLen) {
  const int L = floodLen > 0 ? floodLen : g.nodeCount();
  const int phases = std::max(
      1, static_cast<int>(std::ceil(std::log2(std::max(2, g.nodeCount())))));
  auto order = std::make_shared<const std::vector<EdgeId>>(mstEdgeRanking(g));
  sim::Algorithm a;
  a.rounds = phases * (1 + 2 * L);
  a.congestion = a.rounds;
  a.makeNode = [&g, order, L, phases](NodeId v, const Graph&, util::Rng) {
    return std::make_unique<BoruvkaNode>(v, g, order, L, phases);
  };
  return a;
}

}  // namespace mobile::algo
