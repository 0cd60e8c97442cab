#include "algo/payloads.h"

#include <algorithm>
#include <cassert>

namespace mobile::algo {

using sim::Inbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = a ^ 0x9e3779b97f4a7c15ULL;
  h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

namespace {

// --- FloodMax ----------------------------------------------------------------

class FloodMaxNode final : public NodeState {
 public:
  FloodMaxNode(NodeId self, int rounds)
      : best_(static_cast<std::uint64_t>(self)), rounds_(rounds) {}

  void send(int round, Outbox& out) override {
    // Scratch-send idiom (sim/message.h): refill one member Msg so the
    // steady state allocates nothing -- FloodMax doubles as the
    // bytes-per-round control payload in bench_micro.
    if (round <= rounds_) out.toAll(resetScratch(scratch_).push(best_));
  }
  void receive(int round, const Inbox& in) override {
    (void)round;
    forEachNeighbor(in, [&](const MsgView& m) {
      if (m.present()) best_ = std::max(best_, m.at(0));
    });
  }
  [[nodiscard]] std::uint64_t output() const override { return best_; }

 private:
  template <typename F>
  void forEachNeighbor(const Inbox& in, F&& f) {
    for (const auto& nb : g_->neighbors(in.self())) f(in.from(nb.node));
  }

 public:
  const graph::Graph* g_ = nullptr;  // bound by factory

 private:
  std::uint64_t best_;
  int rounds_;
  Msg scratch_;
};

// --- BFS ---------------------------------------------------------------------

class BfsNode final : public NodeState {
 public:
  BfsNode(NodeId self, NodeId root, int dBound, const graph::Graph& g)
      : g_(g), dist_(self == root ? 0 : -1), rounds_(dBound + 1) {}

  void send(int round, Outbox& out) override {
    // A node that learned its distance in round d announces it in round d+1.
    if (round <= rounds_ && dist_ >= 0 && dist_ == round - 1)
      out.toAll(Msg::of(static_cast<std::uint64_t>(dist_)));
  }
  void receive(int round, const Inbox& in) override {
    (void)round;
    if (dist_ >= 0) return;
    for (const auto& nb : g_.neighbors(in.self())) {
      const MsgView m = in.from(nb.node);
      if (m.present()) {
        dist_ = static_cast<int>(m.at(0)) + 1;
        break;
      }
    }
  }
  [[nodiscard]] std::uint64_t output() const override {
    return static_cast<std::uint64_t>(dist_ + 1);
  }

 private:
  const graph::Graph& g_;
  int dist_;
  int rounds_;
};

// --- SumAggregate ------------------------------------------------------------

class SumNode final : public NodeState {
 public:
  SumNode(NodeId self, NodeId root, int dBound, std::uint64_t input,
          const graph::Graph& g)
      : g_(g),
        self_(self),
        phaseLen_(dBound + 2),
        input_(input),
        dist_(self == root ? 0 : -1) {}

  void send(int round, Outbox& out) override {
    // Phase 1: BFS wave (rounds 1..phaseLen_).
    if (round <= phaseLen_) {
      if (dist_ >= 0 && dist_ == round - 1)
        out.toAll(Msg::of(static_cast<std::uint64_t>(dist_)));
      return;
    }
    // Phase 2: convergecast (sub-round s = round - phaseLen_); node at depth
    // d reports to its parent at s = phaseLen_ - d.
    if (round <= 2 * phaseLen_) {
      const int s = round - phaseLen_;
      if (dist_ > 0 && s == phaseLen_ - dist_)
        out.to(parent_, Msg::of(input_ + childSum_));
      return;
    }
    // Phase 3: broadcast the total (sub-round s); depth-d nodes forward at
    // s = d + 1.
    if (round <= 3 * phaseLen_) {
      const int s = round - 2 * phaseLen_;
      if (dist_ == s - 1 && haveTotal_)
        out.toAll(Msg::of(total_));
      return;
    }
  }

  void receive(int round, const Inbox& in) override {
    if (round <= phaseLen_) {
      if (dist_ >= 0) return;
      for (const auto& nb : g_.neighbors(self_)) {
        const MsgView m = in.from(nb.node);
        if (m.present()) {
          dist_ = static_cast<int>(m.at(0)) + 1;
          parent_ = nb.node;
          break;
        }
      }
      return;
    }
    if (round <= 2 * phaseLen_) {
      for (const auto& nb : g_.neighbors(self_)) {
        const MsgView m = in.from(nb.node);
        if (m.present()) childSum_ += m.at(0);
      }
      if (round == 2 * phaseLen_ && dist_ == 0) {
        total_ = input_ + childSum_;
        haveTotal_ = true;
      }
      return;
    }
    if (round <= 3 * phaseLen_) {
      if (haveTotal_) return;
      for (const auto& nb : g_.neighbors(self_)) {
        const MsgView m = in.from(nb.node);
        if (m.present()) {
          total_ = m.at(0);
          haveTotal_ = true;
          break;
        }
      }
      return;
    }
  }

  [[nodiscard]] std::uint64_t output() const override { return total_; }

 private:
  const graph::Graph& g_;
  NodeId self_;
  int phaseLen_;
  std::uint64_t input_;
  int dist_;
  NodeId parent_ = -1;
  std::uint64_t childSum_ = 0;
  std::uint64_t total_ = 0;
  bool haveTotal_ = false;
};

// --- GossipHash --------------------------------------------------------------

class GossipNode final : public NodeState {
 public:
  GossipNode(NodeId self, int rounds, std::uint64_t input,
             const graph::Graph& g, unsigned maskBits)
      : g_(g),
        self_(self),
        rounds_(rounds),
        mask_(maskBits >= 64 ? ~0ULL : (1ULL << maskBits) - 1),
        h_(input & mask_) {
    // Deterministic mixing order: neighbors ascending by id (KT1
    // knowledge), fixed once so receive() stays allocation-free.
    for (const auto& nb : g_.neighbors(self_)) sortedNbs_.push_back(nb.node);
    std::sort(sortedNbs_.begin(), sortedNbs_.end());
  }

  void send(int round, Outbox& out) override {
    if (round > rounds_) return;
    // Reused scratch message: gossip is the compilers' canary payload, so
    // its send must not allocate either.
    out.toAll(sim::resetScratch(scratch_).push(h_));
  }
  void receive(int round, const Inbox& in) override {
    if (round > rounds_) return;
    std::uint64_t acc = h_;
    for (const NodeId u : sortedNbs_) {
      const MsgView m = in.from(u);
      acc = mix(acc, m.present() ? m.at(0) : 0x5151515151515151ULL);
    }
    h_ = acc & mask_;
  }
  [[nodiscard]] std::uint64_t output() const override { return h_; }

 private:
  const graph::Graph& g_;
  NodeId self_;
  std::vector<NodeId> sortedNbs_;
  int rounds_;
  std::uint64_t mask_;
  std::uint64_t h_;
  Msg scratch_;
};

// --- PingPong ----------------------------------------------------------------

class PingPongNode final : public NodeState {
 public:
  PingPongNode(NodeId self, NodeId a, NodeId b, int rounds, std::uint64_t input,
               unsigned maskBits)
      : self_(self), peer_(self == a ? b : a), active_(self == a || self == b),
        isA_(self == a), rounds_(rounds),
        mask_(maskBits >= 64 ? ~0ULL : (1ULL << maskBits) - 1),
        h_(input & mask_) {}

  void send(int round, Outbox& out) override {
    if (!active_ || round > rounds_) return;
    // A talks on odd rounds, B on even: a strictly alternating dialogue.
    const bool myTurn = isA_ ? (round % 2 == 1) : (round % 2 == 0);
    if (myTurn) out.to(peer_, Msg::of(h_));
  }
  void receive(int round, const Inbox& in) override {
    if (!active_ || round > rounds_) return;
    const MsgView m = in.from(peer_);
    if (m.present()) h_ = mix(h_, m.at(0)) & mask_;
  }
  [[nodiscard]] std::uint64_t output() const override {
    return active_ ? h_ : 0;
  }

 private:
  NodeId self_;
  NodeId peer_;
  bool active_;
  bool isA_;
  int rounds_;
  std::uint64_t mask_;
  std::uint64_t h_;
};

// --- PathUnicast -------------------------------------------------------------

class PathNode final : public NodeState {
 public:
  PathNode(NodeId self, const std::vector<NodeId>& path, std::uint64_t value) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (path[i] == self) {
        position_ = static_cast<int>(i);
        if (i + 1 < path.size()) next_ = path[i + 1];
        break;
      }
    }
    if (position_ == 0) {
      value_ = value;
      have_ = true;
    }
    isTarget_ = !path.empty() && path.back() == self;
  }

  void send(int round, Outbox& out) override {
    if (have_ && next_ >= 0 && round == position_ + 1)
      out.to(next_, Msg::of(value_));
  }
  void receive(int round, const Inbox& in) override {
    (void)round;
    if (position_ <= 0 || have_ || prevUnknown_) return;
    // The predecessor is fixed by the path; find it lazily from the inbox.
    // (The path was installed by trusted setup, so each hop knows both ends.)
    prevUnknown_ = false;
    (void)in;
  }
  // Delivery is captured via receiveFrom in the factory wiring below.

  void acceptValue(std::uint64_t v) {
    value_ = v;
    have_ = true;
  }
  [[nodiscard]] bool has() const { return have_; }
  [[nodiscard]] int position() const { return position_; }

  [[nodiscard]] std::uint64_t output() const override {
    return (isTarget_ && have_) ? value_ : 0;
  }

 private:
  int position_ = -1;
  NodeId next_ = -1;
  std::uint64_t value_ = 0;
  bool have_ = false;
  bool isTarget_ = false;
  bool prevUnknown_ = false;
};

}  // namespace

sim::Algorithm makeFloodMax(const Graph& g, int rounds) {
  sim::Algorithm a;
  a.rounds = rounds;
  a.congestion = rounds;
  a.makeNode = [&g, rounds](NodeId v, const Graph&, util::Rng) {
    auto node = std::make_unique<FloodMaxNode>(v, rounds);
    node->g_ = &g;
    return node;
  };
  return a;
}

sim::Algorithm makeBfsTree(const Graph& g, NodeId root, int diameterBound) {
  sim::Algorithm a;
  a.rounds = diameterBound + 1;
  a.congestion = 1;
  a.makeNode = [&g, root, diameterBound](NodeId v, const Graph&, util::Rng) {
    return std::make_unique<BfsNode>(v, root, diameterBound, g);
  };
  return a;
}

sim::Algorithm makeSumAggregate(const Graph& g, NodeId root, int diameterBound,
                                std::vector<std::uint64_t> inputs) {
  sim::Algorithm a;
  a.rounds = 3 * (diameterBound + 2);
  a.congestion = 3;
  const auto shared = std::make_shared<const std::vector<std::uint64_t>>(
      std::move(inputs));
  a.makeNode = [&g, root, diameterBound, shared](NodeId v, const Graph&,
                                                 util::Rng) {
    return std::make_unique<SumNode>(
        v, root, diameterBound, (*shared)[static_cast<std::size_t>(v)], g);
  };
  return a;
}

sim::Algorithm makeGossipHash(const Graph& g, int rounds,
                              std::vector<std::uint64_t> inputs,
                              unsigned maskBits) {
  sim::Algorithm a;
  a.rounds = rounds;
  a.congestion = rounds;
  const auto shared = std::make_shared<const std::vector<std::uint64_t>>(
      std::move(inputs));
  a.makeNode = [&g, rounds, shared, maskBits](NodeId v, const Graph&,
                                              util::Rng) {
    return std::make_unique<GossipNode>(
        v, rounds, (*shared)[static_cast<std::size_t>(v)], g, maskBits);
  };
  return a;
}

sim::Algorithm makePingPong(const Graph& g, NodeId a, NodeId b, int rounds,
                            std::uint64_t inputA, std::uint64_t inputB,
                            unsigned maskBits) {
  (void)g;
  sim::Algorithm alg;
  alg.rounds = rounds;
  alg.congestion = rounds;
  alg.makeNode = [a, b, rounds, inputA, inputB, maskBits](
                     NodeId v, const Graph&, util::Rng) {
    const std::uint64_t input = (v == a) ? inputA : inputB;
    return std::make_unique<PingPongNode>(v, a, b, rounds, input, maskBits);
  };
  return alg;
}

sim::Algorithm makePathUnicast(const Graph& g, std::vector<NodeId> path,
                               std::uint64_t value) {
  (void)g;
  sim::Algorithm a;
  a.rounds = static_cast<int>(path.size());
  a.congestion = 1;

  // Wrap PathNode so delivery uses the fixed predecessor.
  class Wrapper final : public NodeState {
   public:
    Wrapper(NodeId self, const std::vector<NodeId>& path, std::uint64_t value)
        : inner_(self, path, value) {
      for (std::size_t i = 1; i < path.size(); ++i)
        if (path[i] == self) prev_ = path[i - 1];
    }
    void send(int round, Outbox& out) override { inner_.send(round, out); }
    void receive(int round, const Inbox& in) override {
      (void)round;
      if (prev_ >= 0 && !inner_.has()) {
        const MsgView m = in.from(prev_);
        if (m.present()) inner_.acceptValue(m.at(0));
      }
    }
    [[nodiscard]] std::uint64_t output() const override {
      return inner_.output();
    }

   private:
    PathNode inner_;
    NodeId prev_ = -1;
  };

  a.makeNode = [path = std::move(path), value](NodeId v, const Graph&,
                                               util::Rng) {
    return std::make_unique<Wrapper>(v, path, value);
  };
  return a;
}

}  // namespace mobile::algo
