// The engine-parallelism contract for compiled trials (docs/architecture.md
// section 11): a packing-heavy compiled trial's fingerprint must be
// invariant across every (threads, shards) engine setting.  Compile-time
// preprocessing itself is sequential, so only the round engine varies.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/experiment.h"
#include "scn/params.h"
#include "scn/scenario.h"

using namespace mobile;

// The scenario-level golden: a packing-heavy compiled case (byz_tree over
// a greedy expander packing -- the scale_100k/scale_1m shape, shrunk to
// n = 64) must produce ONE fingerprint at every (threads, shards) in
// {1, 2, 8}^2.  One TrialBuilder serves all nine points, so the later
// points read the packing the first one left in the PrecomputeCache.
TEST(PreprocessParallel, GoldenFingerprintAcrossThreadsAndShards) {
  const std::string base =
      "graph=expander n=64 d=4 gseed=1 algo=gossip rounds=1 mask=32 "
      "compile=byz_tree mode=sparse f=1 packing=greedy k=2 depthcap=8 "
      "dmcap=2 seed=0";
  scn::TrialBuilder builder;
  std::uint64_t golden = 0;
  bool first = true;
  for (const int threads : {1, 2, 8}) {
    for (const int shards : {1, 2, 8}) {
      scn::Params p = scn::Params::fromTokens(base);
      p.set("threads", std::to_string(threads));
      p.set("shards", std::to_string(shards));
      exp::ExperimentDriver driver({1});
      const auto results = driver.runAll({builder.build(p, "golden")});
      ASSERT_EQ(results.size(), 1u);
      ASSERT_TRUE(results[0].ok)
          << "threads=" << threads << " shards=" << shards << " error='"
          << results[0].error << "'";
      if (first) {
        golden = results[0].fingerprint;
        first = false;
      }
      EXPECT_EQ(results[0].fingerprint, golden)
          << "threads=" << threads << " shards=" << shards;
    }
  }
  EXPECT_NE(golden, 0u);
}
