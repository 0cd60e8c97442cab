// The determinism gate for the parallel experiment engine (ISSUE 2).
//
// Engine level: Network with numThreads in {1, 2, 8} must produce
// bit-identical outputsFingerprint() (and identical accounting) across at
// least three algorithm families -- the MST payload, a byzantine-tree
// compiled run under an active adversary, and mobile-secure broadcast
// under an eavesdropper -- and >= 5 seeds each.
//
// Driver level: ExperimentDriver with 1 vs many lanes, and vs a hand-rolled
// sequential loop, must return identical per-trial fingerprints in spec
// order, and running one spec twice must replay the trial exactly.
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "adv/strategies.h"
#include "algo/mst.h"
#include "algo/payloads.h"
#include "compile/byz_tree_compiler.h"
#include "compile/expander_packing.h"
#include "compile/secure_broadcast.h"
#include "exp/bench_args.h"
#include "exp/experiment.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "sim/network.h"
#include "util/thread_pool.h"

using namespace mobile;

namespace {

struct EngineCase {
  std::string name;
  std::function<sim::Algorithm(const graph::Graph&)> algo;
  std::function<std::unique_ptr<adv::Adversary>()> adversary;  // may be null
};

// Runs `algo` on `g` with the given engine lane count; returns the
// fingerprint plus the accounting tuple so we catch phase-order bugs that
// happen to leave outputs alone.
struct RunRecord {
  std::uint64_t fingerprint;
  long messages;
  std::size_t maxWords;
  long corruptions;
  int rounds;
};

RunRecord runWithThreads(const graph::Graph& g, const EngineCase& c,
                         std::uint64_t seed, int numThreads) {
  const sim::Algorithm a = c.algo(g);
  std::unique_ptr<adv::Adversary> adv;
  if (c.adversary) adv = c.adversary();
  sim::NetworkOptions opts;
  opts.numThreads = numThreads;
  sim::Network net(g, a, seed, adv.get(), opts);
  net.run(a.rounds);
  return {net.outputsFingerprint(), net.messagesSent(),
          net.maxWordsObserved(), net.ledger().total(),
          net.roundsExecuted()};
}

std::vector<EngineCase> engineCases(const graph::Graph& g) {
  std::vector<EngineCase> cases;
  cases.push_back({"boruvka-mst",
                   [](const graph::Graph& gg) {
                     return algo::makeBoruvkaMst(gg);
                   },
                   nullptr});
  cases.push_back(
      {"byz-tree-compiled",
       [](const graph::Graph& gg) {
         const auto pk = compile::cliquePackingKnowledge(gg);
         std::vector<std::uint64_t> inputs(
             static_cast<std::size_t>(gg.nodeCount()), 5);
         const sim::Algorithm inner = algo::makeGossipHash(gg, 1, inputs, 32);
         return compile::compileByzantineTree(gg, inner, pk, 1);
       },
       [] { return std::make_unique<adv::RandomByzantine>(1, 7); }});
  cases.push_back(
      {"secure-broadcast",
       [](const graph::Graph& gg) {
         const auto pk = compile::distributePacking(
             gg, graph::cliqueStarPacking(gg), 2);
         return compile::makeMobileSecureBroadcast(gg, pk, {0xbeef}, 1);
       },
       [] { return std::make_unique<adv::RandomEavesdropper>(1, 17); }});
  (void)g;
  return cases;
}

}  // namespace

TEST(EngineDeterminism, ThreadCountNeverChangesOutputs) {
  const graph::Graph g = graph::clique(8);
  for (const auto& c : engineCases(g)) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const RunRecord ref = runWithThreads(g, c, seed, 1);
      for (const int threads : {2, 8}) {
        const RunRecord got = runWithThreads(g, c, seed, threads);
        EXPECT_EQ(got.fingerprint, ref.fingerprint)
            << c.name << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(got.messages, ref.messages) << c.name << " seed=" << seed;
        EXPECT_EQ(got.maxWords, ref.maxWords) << c.name << " seed=" << seed;
        EXPECT_EQ(got.corruptions, ref.corruptions)
            << c.name << " seed=" << seed;
        EXPECT_EQ(got.rounds, ref.rounds) << c.name << " seed=" << seed;
      }
    }
  }
}

namespace {

std::vector<exp::TrialSpec> driverSpecs(const graph::Graph& g) {
  std::vector<exp::TrialSpec> specs;
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()),
                                    9);
  const sim::Algorithm inner = algo::makeGossipHash(g, 1, inputs, 32);
  const std::uint64_t want = sim::faultFreeFingerprint(g, inner, 1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    exp::TrialSpec spec;
    spec.group = "compiled-gossip";
    spec.seed = seed;
    spec.graphFactory = [g] { return g; };
    spec.algoFactory = [inputs](const graph::Graph& gg) {
      const auto pk = compile::cliquePackingKnowledge(gg);
      const sim::Algorithm in = algo::makeGossipHash(gg, 1, inputs, 32);
      return compile::compileByzantineTree(gg, in, pk, 1);
    };
    spec.adversaryFactory = [seed](const graph::Graph&) {
      return std::make_unique<adv::RandomByzantine>(1, 100 + seed);
    };
    spec.expect = want;
    specs.push_back(std::move(spec));
  }
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    exp::TrialSpec spec;
    spec.group = "mst";
    spec.seed = seed;
    spec.graphFactory = [g] { return g; };
    spec.algoFactory = [](const graph::Graph& gg) {
      return algo::makeBoruvkaMst(gg);
    };
    spec.expect = sim::fingerprintOutputs(algo::mstExpectedOutputs(g));
    specs.push_back(std::move(spec));
  }
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    exp::TrialSpec spec;
    spec.group = "secure-broadcast";
    spec.seed = seed;
    spec.graphFactory = [g] { return g; };
    spec.algoFactory = [](const graph::Graph& gg) {
      const auto pk =
          compile::distributePacking(gg, graph::cliqueStarPacking(gg), 2);
      return compile::makeMobileSecureBroadcast(gg, pk, {0xbeef}, 1);
    };
    spec.adversaryFactory = [seed](const graph::Graph&) {
      return std::make_unique<adv::RandomEavesdropper>(1, 200 + seed);
    };
    spec.expect = sim::fingerprintOutputs(std::vector<std::uint64_t>(
        static_cast<std::size_t>(g.nodeCount()), 0xbeef));
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

TEST(DriverDeterminism, MatchesHandRolledSequentialLoop) {
  const graph::Graph g = graph::clique(8);
  const auto specs = driverSpecs(g);

  // Hand-rolled reference: a plain loop over runTrial.
  std::vector<std::uint64_t> reference;
  for (const auto& spec : specs)
    reference.push_back(exp::runTrial(spec).fingerprint);

  for (const int threads : {1, 2, 8}) {
    exp::ExperimentDriver driver({threads});
    const auto results = driver.runAll(specs);
    ASSERT_EQ(results.size(), specs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].fingerprint, reference[i])
          << "threads=" << threads << " trial=" << i;
      EXPECT_EQ(results[i].group, specs[i].group);
      EXPECT_EQ(results[i].seed, specs[i].seed);
      EXPECT_TRUE(results[i].ok) << specs[i].group << " seed "
                                 << specs[i].seed;
    }
  }
}

TEST(DriverDeterminism, AggregateGroupsInSpecOrder) {
  const graph::Graph g = graph::clique(8);
  exp::ExperimentDriver driver({2});
  const auto results = driver.runAll(driverSpecs(g));
  const auto groups = exp::aggregate(results);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, "compiled-gossip");
  EXPECT_EQ(groups[0].trials, 6u);
  EXPECT_EQ(groups[0].okCount, 6u);
  EXPECT_EQ(groups[1].group, "mst");
  EXPECT_EQ(groups[1].trials, 5u);
  EXPECT_EQ(groups[1].okCount, 5u);
  EXPECT_EQ(groups[2].group, "secure-broadcast");
  EXPECT_EQ(groups[2].trials, 5u);
  EXPECT_EQ(groups[2].okCount, 5u);
  // All trials in a group ran the same schedule: zero spread.
  EXPECT_EQ(groups[0].rounds.stddev, 0.0);
  EXPECT_GT(groups[0].rounds.mean, 0.0);

  std::ostringstream json;
  exp::writeSummariesJson(json, "unit", groups);
  EXPECT_NE(json.str().find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.str().find("\"group\": \"compiled-gossip\""),
            std::string::npos);

  std::ostringstream csv;
  exp::writeTrialsCsv(csv, results);
  // Header + one line per trial.
  std::size_t lines = 0;
  for (const char ch : csv.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, results.size() + 1);
}

TEST(DriverDeterminism, ObserveHookSeesTheFinishedNetwork) {
  const graph::Graph g = graph::clique(6);
  exp::TrialSpec spec;
  spec.group = "observe";
  spec.seed = 3;
  spec.graphFactory = [g] { return g; };
  spec.algoFactory = [](const graph::Graph& gg) {
    return algo::makeFloodMax(gg, 2);
  };
  spec.adversaryFactory = [](const graph::Graph&) {
    return std::make_unique<adv::RandomEavesdropper>(1, 5);
  };
  spec.observe = [](const sim::Network& net, const adv::Adversary* adv,
                    exp::TrialResult& r) {
    ASSERT_NE(adv, nullptr);
    r.extra["views"] = static_cast<double>(adv->viewLog().size());
    r.extra["nodes"] = static_cast<double>(net.graph().nodeCount());
  };
  const auto r = exp::runTrial(spec);
  EXPECT_EQ(r.extra.at("nodes"), 6.0);
  EXPECT_GT(r.extra.at("views"), 0.0);
}

TEST(TrialReplay, SameSpecReproducesTheTrialExactly) {
  // A trial builds its network, adversary and node state from the spec
  // alone, so running one spec twice must replay it bit for bit -- under
  // an active stateful adversary, which the factory builds fresh each time.
  const graph::Graph g = graph::clique(8);
  exp::TrialSpec spec;
  spec.group = "replay";
  spec.seed = 11;
  spec.graphFactory = [g] { return g; };
  spec.algoFactory = [](const graph::Graph& gg) {
    return algo::makeGossipHash(gg, 2, std::vector<std::uint64_t>(8, 3), 32);
  };
  spec.adversaryFactory = [](const graph::Graph&) {
    return std::make_unique<adv::RandomByzantine>(1, 7);
  };
  const exp::TrialResult first = exp::runTrial(spec);
  const exp::TrialResult second = exp::runTrial(spec);
  EXPECT_GT(first.corruptions, 0);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.corruptions, first.corruptions);
  EXPECT_EQ(second.messages, first.messages);
  EXPECT_EQ(second.maxCongestion, first.maxCongestion);
  EXPECT_EQ(second.rounds, first.rounds);
}

TEST(OutputsFingerprint, HelperMatchesNetwork) {
  const graph::Graph g = graph::clique(6);
  const sim::Algorithm a = algo::makeFloodMax(g, 2);
  sim::Network net(g, a, 1);
  net.run(a.rounds);
  EXPECT_EQ(net.outputsFingerprint(), sim::fingerprintOutputs(net.outputs()));
}

TEST(BenchArgs, ExplicitNonpositiveThreadsClampsToOneWithWarning) {
  // Regression: --threads 0 used to silently resolve to "all cores", and
  // negative values rode along the same path.  Explicit N < 1 now clamps
  // to a single lane at parse time (warning on stderr).
  for (const char* bad : {"0", "-4"}) {
    char arg0[] = "bench";
    char arg1[] = "--threads";
    std::vector<char> val(bad, bad + std::strlen(bad) + 1);
    char* argv[] = {arg0, arg1, val.data(), nullptr};
    int argc = 3;
    testing::internal::CaptureStderr();
    const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(args.threads, 1) << bad;
    EXPECT_NE(warning.find("clamping to 1"), std::string::npos) << bad;
    EXPECT_EQ(argc, 1) << bad;  // the flag is still consumed
  }
}

TEST(BenchArgs, OmittedThreadsResolvesToHardwareAndValidValuesPass) {
  {
    char arg0[] = "bench";
    char* argv[] = {arg0, nullptr};
    int argc = 1;
    const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);
    EXPECT_EQ(args.threads, util::ThreadPool::hardwareThreads());
  }
  {
    char arg0[] = "bench";
    char arg1[] = "--threads";
    char arg2[] = "3";
    char* argv[] = {arg0, arg1, arg2, nullptr};
    int argc = 3;
    testing::internal::CaptureStderr();
    const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
    EXPECT_EQ(args.threads, 3);
  }
}
