#include "compile/rs_scheduler.h"

#include <algorithm>
#include <cassert>

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

class SchedNode final : public NodeState {
 public:
  SchedNode(NodeId self, const Graph& g, util::Rng rng,
            std::shared_ptr<const PackingKnowledge> pk, EngineOptions engine,
            std::shared_ptr<ScheduledBroadcastShared> shared)
      : self_(self),
        g_(g),
        pk_(std::move(pk)),
        engine_(engine),
        slots_{pk_->eta, engine.effectiveRho()},
        shared_(std::move(shared)),
        value_(static_cast<std::size_t>(pk_->k), 0),
        have_(static_cast<std::size_t>(pk_->k), 0) {
    // Fixed-shape vote stash, [neighbor][schedule slot], each slot holding
    // distinct messages with multiplicities -- the slot-indexed no-alloc
    // idiom of compile/baselines.cc (a (tree, neighbor) pair is exactly a
    // (slot, neighbor) pair under the Lemma 3.3 schedule).
    stash_.resize(g_.degree(self_) * static_cast<std::size_t>(pk_->eta));
    if (self_ == pk_->root) {
      shared_->truth.assign(static_cast<std::size_t>(pk_->k), 0);
      for (int t = 0; t < pk_->k; ++t) {
        value_[static_cast<std::size_t>(t)] = rng.next() | 1u;
        have_[static_cast<std::size_t>(t)] = 1;
        shared_->truth[static_cast<std::size_t>(t)] =
            value_[static_cast<std::size_t>(t)];
      }
    }
  }

  void send(int round, Outbox& out) override {
    const int r = round - 1;
    const int step = slots_.stepOf(r) + 1;
    const int slot = slots_.slotOf(r);
    if (step > pk_->depthBound) return;
    const NodeTreeView view = pk_->view(self_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const int tree = view.treeAt(static_cast<int>(i), slot);
      if (tree < 0) continue;
      const int d = view.depth(tree);
      if (d != step - 1 || view.parent(tree) == nbs[i].node) continue;
      if (!view.inTree(tree, nbs[i].node)) continue;
      if (!have_[static_cast<std::size_t>(tree)]) continue;
      out.to(nbs[i].node, sim::resetScratch(scratch_).push(
                              value_[static_cast<std::size_t>(tree)]));
    }
  }

  void receive(int round, const Inbox& in) override {
    const int r = round - 1;
    const int step = slots_.stepOf(r) + 1;
    const int rep = slots_.repOf(r);
    const int slot = slots_.slotOf(r);
    if (step > pk_->depthBound) return;
    const NodeTreeView view = pk_->view(self_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const int tree = view.treeAt(static_cast<int>(i), slot);
      if (tree < 0) continue;
      const int d = view.depth(tree);
      if (d != step || view.parent(tree) != nbs[i].node) continue;
      VoteSlot& vs = stashSlot(i, slot);
      if (rep == 0) vs.reset();
      vs.add(in.from(nbs[i].node));
      if (rep == slots_.rho - 1) {
        const Msg& m = vs.winner();
        if (m.present) {
          value_[static_cast<std::size_t>(tree)] = m.at(0);
          have_[static_cast<std::size_t>(tree)] = 1;
        }
      }
    }
    if (round == slots_.blockRounds(pk_->depthBound)) publish();
  }

  void publish() {
    // Contract mode: replace surviving trees' values with the truth.
    if (engine_.mode == EngineMode::Contract && shared_->oracle) {
      for (int t = 0; t < pk_->k; ++t) {
        if (shared_->oracle->survives(t, 1,
                                      slots_.blockRounds(pk_->depthBound),
                                      pk_->depthBound, engine_.cRS))
          value_[static_cast<std::size_t>(t)] =
              shared_->truth[static_cast<std::size_t>(t)];
      }
    }
    auto& row = shared_->received;
    if (row.size() < static_cast<std::size_t>(g_.nodeCount()))
      row.resize(static_cast<std::size_t>(g_.nodeCount()));
    row[static_cast<std::size_t>(self_)] = value_;
    done_ = true;
  }

  [[nodiscard]] bool done() const override { return done_; }

 private:
  /// The vote slot of (neighbor index, schedule slot).
  [[nodiscard]] VoteSlot& stashSlot(std::size_t nbIndex, int slot) {
    return stash_[nbIndex * static_cast<std::size_t>(pk_->eta) +
                  static_cast<std::size_t>(slot)];
  }

  NodeId self_;
  const Graph& g_;
  std::shared_ptr<const PackingKnowledge> pk_;
  EngineOptions engine_;
  SlotSchedule slots_;
  std::shared_ptr<ScheduledBroadcastShared> shared_;
  std::vector<std::uint64_t> value_;
  std::vector<char> have_;
  /// Vote stash, [neighbor][schedule slot] flattened; fixed shape,
  /// rewritten in place every scheduled round.
  std::vector<VoteSlot> stash_;
  Msg scratch_;  // reused send buffer
  bool done_ = false;
};

}  // namespace

sim::Algorithm makeScheduledTreeBroadcast(
    const graph::Graph& g, std::shared_ptr<const PackingKnowledge> pk,
    EngineOptions engine, std::shared_ptr<ScheduledBroadcastShared> shared) {
  if (engine.mode == EngineMode::Contract) {
    assert(shared->ledger);
    shared->oracle = std::make_unique<ContractOracle>(shared->ledger, *pk, g);
  }
  const SlotSchedule slots{pk->eta, engine.effectiveRho()};
  sim::Algorithm a;
  a.rounds = slots.blockRounds(pk->depthBound);
  a.congestion = a.rounds;
  a.makeNode = [&g, pk, engine, shared](NodeId v, const Graph&, util::Rng rng) {
    return std::make_unique<SchedNode>(v, g, std::move(rng), pk, engine,
                                       shared);
  };
  return a;
}

int countCorrectTrees(const ScheduledBroadcastShared& shared,
                      const PackingKnowledge& pk) {
  int correct = 0;
  for (int t = 0; t < pk.k; ++t) {
    bool ok = true;
    for (const auto& nodeRow : shared.received) {
      if (nodeRow.size() != static_cast<std::size_t>(pk.k) ||
          nodeRow[static_cast<std::size_t>(t)] !=
              shared.truth[static_cast<std::size_t>(t)]) {
        ok = false;
        break;
      }
    }
    if (ok) ++correct;
  }
  return correct;
}

}  // namespace mobile::compile
