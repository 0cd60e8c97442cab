// The NodeState wake contract, differentially: a byz_tree run on the
// activity-driven engine (nodes run only when due or when mail reaches
// them) must be indistinguishable, round by round, from the same run with
// every node forced to run every round.
//
// The reference wraps the compiled algorithm in EveryRoundNode, which
// forwards send/receive/done/output but keeps the default nextWake.  After
// every round both networks must agree on a digest of every arc of the
// plane, the corruption ledger, the message count, the per-arc traffic,
// the outputs and (single-threaded, where the side channel is legal)
// ByzShared::bj.  The matrix covers four mobile byzantine strategies in
// both correction modes at (threads, shards) in {1, 2, 8}^2.
//
// The directed cases arm the vote trap of the lazy VoteSlot reset: a hop
// whose sender was silenced (its own seed erased at every rep) carries a
// single injected copy at rep 0, 1 or rho-1.  The receiver skips at least
// one rep of that vote, and only the absent back-fill keeps the
// first-occurrence tie-break of the reference vote.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/byz_tree_compiler.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "sim/network.h"

namespace mobile {
namespace {

using graph::ArcId;
using graph::Graph;
using graph::NodeId;

constexpr int kF = 2;
constexpr compile::CorrectionMode kModes[] = {
    compile::CorrectionMode::L0Iterative,
    compile::CorrectionMode::SparseOneShot};

/// The reference schedule: everything forwarded except nextWake.
class EveryRoundNode final : public sim::NodeState {
 public:
  explicit EveryRoundNode(std::unique_ptr<sim::NodeState> inner)
      : inner_(std::move(inner)) {}
  void send(int round, sim::Outbox& out) override { inner_->send(round, out); }
  void receive(int round, const sim::Inbox& in) override {
    inner_->receive(round, in);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

 private:
  std::unique_ptr<sim::NodeState> inner_;
};

/// The candidate, instrumented: forwards nextWake too and logs the rounds
/// each node's receive ran (per-node vectors, so lanes never share one).
class LoggedNode final : public sim::NodeState {
 public:
  LoggedNode(std::unique_ptr<sim::NodeState> inner, std::vector<int>* log)
      : inner_(std::move(inner)), log_(log) {}
  void send(int round, sim::Outbox& out) override { inner_->send(round, out); }
  void receive(int round, const sim::Inbox& in) override {
    log_->push_back(round);
    inner_->receive(round, in);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }
  [[nodiscard]] int nextWake(int round) const override {
    return inner_->nextWake(round);
  }

 private:
  std::unique_ptr<sim::NodeState> inner_;
  std::vector<int>* log_;
};

sim::Algorithm everyRound(sim::Algorithm a) {
  auto make = a.makeNode;
  a.makeNode = [make](NodeId v, const Graph& g, util::Rng rng) {
    return std::make_unique<EveryRoundNode>(make(v, g, std::move(rng)));
  };
  return a;
}

sim::Algorithm logged(sim::Algorithm a, std::vector<std::vector<int>>* runs) {
  auto make = a.makeNode;
  a.makeNode = [make, runs](NodeId v, const Graph& g, util::Rng rng) {
    return std::make_unique<LoggedNode>(
        make(v, g, std::move(rng)), &(*runs)[static_cast<std::size_t>(v)]);
  };
  return a;
}

/// The shared fixture: a sparse random-regular graph with a greedy
/// low-depth packing, so trees have several levels and most nodes idle
/// in most rounds.
struct Fixture {
  Graph g;
  graph::TreePacking packing;
  std::shared_ptr<const compile::PackingKnowledge> pk;
  sim::Algorithm inner;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    util::Rng ggen(11);
    f.g = graph::randomRegular(16, 3, ggen);
    f.g.finalize();
    const int cap = graph::diameter(f.g);
    f.packing = graph::greedyLowDepthPacking(f.g, 2, 0, cap);
    f.pk = compile::distributePacking(f.g, f.packing, cap);
    std::vector<std::uint64_t> inputs(16);
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = 0xfeed00 + i;
    f.inner = algo::makeGossipHash(f.g, 1, inputs, 32);
    return f;
  }();
  return fx;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

std::uint64_t planeDigest(const sim::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (ArcId a = 0; a < net.graph().arcCount(); ++a)
    h = mix(h, net.arcs().view(a).digest());
  return h;
}

std::uint64_t ledgerDigest(const adv::CorruptionLedger& ledger) {
  std::uint64_t h = mix(0, static_cast<std::uint64_t>(ledger.total()));
  for (std::size_t i = 0; i < ledger.rounds(); ++i)
    for (const graph::EdgeId e : ledger.roundEntries(i))
      h = mix(h, (static_cast<std::uint64_t>(i) << 32) ^
                     static_cast<std::uint64_t>(e));
  return h;
}

struct RunSpec {
  std::function<sim::Algorithm(std::shared_ptr<compile::ByzShared>)> algo;
  std::function<std::unique_ptr<adv::Adversary>()> adversary;
  int threads = 1;
  int shards = 1;
  std::uint64_t seed = 1;
};

/// Steps the reference and the candidate side by side, comparing every
/// round; returns the candidate's per-node receive log.
std::vector<std::vector<int>> expectSameEveryRound(const RunSpec& run,
                                                   const std::string& where) {
  const Graph& g = fixture().g;
  const bool withShared = run.threads == 1;  // side channel: one lane only
  std::shared_ptr<compile::ByzShared> sharedRef;
  std::shared_ptr<compile::ByzShared> sharedRun;
  if (withShared) {
    sharedRef = std::make_shared<compile::ByzShared>();
    sharedRun = std::make_shared<compile::ByzShared>();
  }
  const sim::Algorithm ref = everyRound(run.algo(sharedRef));
  std::vector<std::vector<int>> runs(static_cast<std::size_t>(g.nodeCount()));
  const sim::Algorithm cand = logged(run.algo(sharedRun), &runs);
  auto advRef = run.adversary ? run.adversary() : nullptr;
  auto advRun = run.adversary ? run.adversary() : nullptr;
  sim::NetworkOptions opts;
  opts.numThreads = run.threads;
  opts.numShards = run.shards;
  sim::Network a(g, ref, run.seed, advRef.get(), opts);
  sim::Network b(g, cand, run.seed, advRun.get(), opts);
  for (int r = 1; r <= ref.rounds; ++r) {
    a.runExact(1);
    b.runExact(1);
    bool same = true;
    const auto expect = [&](bool equal, const char* what) {
      if (equal) return;
      ADD_FAILURE() << where << " round " << r << ": " << what << " differs";
      same = false;
    };
    expect(planeDigest(a) == planeDigest(b), "plane");
    expect(ledgerDigest(a.ledger()) == ledgerDigest(b.ledger()), "ledger");
    expect(a.messagesSent() == b.messagesSent(), "messagesSent");
    expect(a.arcTraffic() == b.arcTraffic(), "arcTraffic");
    expect(a.outputs() == b.outputs(), "outputs");
    expect(a.allDone() == b.allDone(), "allDone");
    if (withShared) expect(sharedRef->bj == sharedRun->bj, "ByzShared::bj");
    if (!same) break;  // one report per run
  }
  // The candidate must actually have skipped work, or nothing was tested.
  EXPECT_LT(b.nodeRuns(), a.nodeRuns()) << where;
  return runs;
}

std::function<sim::Algorithm(std::shared_ptr<compile::ByzShared>)> byzAlgo(
    compile::CorrectionMode mode) {
  return [mode](std::shared_ptr<compile::ByzShared> shared) {
    const Fixture& fx = fixture();
    compile::ByzOptions opts;
    opts.correction = mode;
    // Short schedules keep the 72-run matrix fast: few ECC chunks, two
    // correction iterations in l0 mode.
    opts.dmCap = 4;
    opts.zIterations = 2;
    return compile::compileByzantineTree(fx.g, fx.inner, fx.pk, kF, opts,
                                         std::move(shared));
  };
}

/// The campaign registry's byzantine strategies, at the fixture's f.
std::unique_ptr<adv::Adversary> makeByzantine(const std::string& name) {
  const Fixture& fx = fixture();
  if (name == "random_byz")
    return std::make_unique<adv::RandomByzantine>(kF, 41);
  if (name == "bitflip_byz")
    return std::make_unique<adv::BitflipByzantine>(kF, 42);
  if (name == "tree_targeted_byz") {
    const graph::TreePacking& p = fx.packing;
    return std::make_unique<adv::TreeTargetedByzantine>(kF, p, fx.g, 43);
  }
  std::vector<graph::EdgeId> camp = {0, 1};
  return std::make_unique<adv::CampingByzantine>(camp, kF, 44);
}

TEST(WakeContract, MatchesEveryRoundScheduleUnderMobileByzantine) {
  const std::vector<std::string> adversaries = {
      "random_byz", "bitflip_byz", "tree_targeted_byz", "camping_byz"};
  for (const std::string& name : adversaries) {
    for (const bool sparse : {false, true}) {
      for (const int threads : {1, 2, 8}) {
        for (const int shards : {1, 2, 8}) {
          RunSpec run;
          run.algo = byzAlgo(kModes[sparse ? 1 : 0]);
          run.adversary = [name] { return makeByzantine(name); };
          run.threads = threads;
          run.shards = shards;
          run.seed = 5;
          std::string where = name;
          where += sparse ? " mode=sparse" : " mode=l0";
          where += " threads=" + std::to_string(threads);
          where += " shards=" + std::to_string(shards);
          expectSameEveryRound(run, where);
          if (HasFailure()) return;
        }
      }
    }
  }
}

TEST(WakeContract, MatchesEveryRoundScheduleFaultFree) {
  RunSpec run;
  run.algo = byzAlgo(compile::CorrectionMode::SparseOneShot);
  expectSameEveryRound(run, "fault-free");
}

/// Per-arc script: erase or garble exactly the listed arcs in the listed
/// rounds (one direction each), charged like any byzantine touch.
class ScriptedHops final : public adv::Adversary {
 public:
  struct Hit {
    ArcId arc;
    bool erase;
  };
  explicit ScriptedHops(std::map<int, std::vector<Hit>> script)
      : Adversary([] {
          adv::Spec s;
          s.kind = adv::Kind::Byzantine;
          s.mobility = adv::Mobility::Mobile;
          s.f = kF;
          return s;
        }()),
        script_(std::move(script)),
        rng_(77) {}
  void act(adv::TamperView& view) override {
    const auto it = script_.find(view.round());
    if (it == script_.end()) return;
    for (const Hit& h : it->second) {
      if (h.erase) {
        view.corruptArc(h.arc, sim::Msg{});
      } else {
        adv::garbageMsgInto(rng_, garbage_);
        view.corruptArc(h.arc, garbage_);
      }
    }
  }

 private:
  std::map<int, std::vector<Hit>> script_;
  util::Rng rng_;
  sim::Msg garbage_;
};

/// One scheduled seed-flood hop u -> v of tree t (u is v's parent), as
/// the receiver v addresses it.
struct Hop {
  int tree;
  NodeId from;
  NodeId to;
  int slot;  // the schedule slot of tree t on the arc
  int step;  // 1-based sketch step of the hop (= depth of `to`)
};

int slotOf(const compile::PackingKnowledge& pk, const Graph& g, NodeId at,
           NodeId nb, int tree) {
  const auto nbs = g.neighbors(at);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    if (nbs[i].node != nb) continue;
    const auto ts = pk.view(at).trees(static_cast<int>(i));
    const auto pos = std::find(ts.begin(), ts.end(), tree);
    return pos == ts.end() ? -1 : static_cast<int>(pos - ts.begin());
  }
  return -1;
}

/// The flood hops whose sender is not the root (so its own seed hop
/// exists and can be erased).
std::vector<Hop> floodHops() {
  const Fixture& fx = fixture();
  std::vector<Hop> hops;
  for (int t = 0; t < fx.pk->k; ++t)
    for (NodeId v = 0; v < fx.g.nodeCount(); ++v) {
      const int d = fx.pk->view(v).depth(t);
      if (d < 2) continue;
      const NodeId u = fx.pk->view(v).parent(t);
      hops.push_back({t, u, v, slotOf(*fx.pk, fx.g, v, u, t), d});
    }
  return hops;
}

/// Round of (step, rep) of `hop` in iteration 0 of sim round 1 (round 1
/// is the exchange step).
int roundOf(int eta, int rho, const Hop& hop, int rep) {
  return 2 + (hop.step - 1) * eta * rho + rep * eta + hop.slot;
}

TEST(WakeContract, VoteBackfillKeepsTheReferenceTieBreak) {
  const Fixture& fx = fixture();
  const compile::ByzOptions opts;
  const int rho = opts.engine.effectiveRho();
  const int eta = fx.pk->eta;
  ASSERT_GE(rho, 3);
  std::map<int, int> armed;  // inject rep -> hops that armed the trap
  for (const Hop& hop : floodHops()) {
    // Silence the sender: erase its own seed hop at every rep.
    const NodeId grand = fx.pk->view(hop.from).parent(hop.tree);
    const Hop up{hop.tree, grand, hop.from,
                 slotOf(*fx.pk, fx.g, hop.from, grand, hop.tree),
                 hop.step - 1};
    for (const int injectRep : {0, 1, rho - 1}) {
      std::map<int, std::vector<ScriptedHops::Hit>> script;
      for (int rep = 0; rep < rho; ++rep)
        script[roundOf(eta, rho, up, rep)].push_back(
            {fx.g.arcFromTo(grand, hop.from), true});
      const int injectAt = roundOf(eta, rho, hop, injectRep);
      script[injectAt].push_back({fx.g.arcFromTo(hop.from, hop.to), false});
      RunSpec run;
      run.algo = byzAlgo(compile::CorrectionMode::L0Iterative);
      run.adversary = [script] {
        return std::make_unique<ScriptedHops>(script);
      };
      std::string where = "tree " + std::to_string(hop.tree);
      where += " hop " + std::to_string(hop.from);
      where += "->" + std::to_string(hop.to);
      where += " inject rep " + std::to_string(injectRep);
      const auto runs = expectSameEveryRound(run, where);
      if (HasFailure()) return;
      // Armed: the receiver skipped a rep of this vote that the back-fill
      // has to count (rep 1 when the copy came at rep 0, else rep 0).
      const int skipped = roundOf(eta, rho, hop, injectRep == 0 ? 1 : 0);
      const auto& ran = runs[static_cast<std::size_t>(hop.to)];
      EXPECT_TRUE(std::count(ran.begin(), ran.end(), injectAt) == 1) << where;
      if (std::count(ran.begin(), ran.end(), skipped) == 0) ++armed[injectRep];
    }
  }
  // Every trap position must have been armed by some hop of the packing.
  for (const int injectRep : {0, 1, rho - 1})
    EXPECT_GE(armed[injectRep], 1) << "inject rep " << injectRep;
}

}  // namespace
}  // namespace mobile
