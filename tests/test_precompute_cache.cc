// exp::PrecomputeCache: packing preprocessing shared across trials.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exp/precompute_cache.h"
#include "graph/generators.h"

namespace mobile {
namespace {

TEST(StructuralFingerprint, StableAcrossCopiesSensitiveToStructure) {
  const graph::Graph a = graph::clique(8);
  const graph::Graph b = graph::clique(8);  // independently built, same shape
  const graph::Graph c = graph::clique(9);
  EXPECT_EQ(graph::structuralFingerprint(a), graph::structuralFingerprint(b));
  EXPECT_NE(graph::structuralFingerprint(a), graph::structuralFingerprint(c));
  const graph::Graph copy = a;
  EXPECT_EQ(graph::structuralFingerprint(a),
            graph::structuralFingerprint(copy));
  EXPECT_NE(graph::structuralFingerprint(a),
            graph::structuralFingerprint(graph::cycle(8)));
}

TEST(PrecomputeCache, StarPackingSharedAcrossEquivalentGraphs) {
  auto& cache = exp::PrecomputeCache::global();
  cache.clear();
  const graph::Graph g = graph::clique(8);
  const auto first = cache.starPacking(g, 2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->k, 8);
  // First call computes the star tree packing AND its distributed form.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  // A value copy of the graph (the TrialSpec idiom) hits the same entry.
  const graph::Graph trialCopy = g;
  const auto second = cache.starPacking(trialCopy, 2);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  // The raw tree packing is the cached intermediate.
  const auto stars = cache.starTreePacking(g);
  EXPECT_EQ(stars->size(), 8u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(PrecomputeCache, KeysSeparateParametersAndGraphs) {
  auto& cache = exp::PrecomputeCache::global();
  cache.clear();
  const graph::Graph g8 = graph::clique(8);
  const graph::Graph g10 = graph::clique(10);
  const auto a = cache.starPacking(g8, 2);
  const auto b = cache.starPacking(g10, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(b->k, 10);
  const auto g1 = cache.greedyPacking(g8, 3, 0, 5);
  const auto g2 = cache.greedyPacking(g8, 4, 0, 5);
  EXPECT_NE(g1.get(), g2.get());
  EXPECT_EQ(g1->k, 3);
  EXPECT_EQ(g2->k, 4);
  const auto g1Again = cache.greedyPacking(g8, 3, 0, 5);
  EXPECT_EQ(g1Again.get(), g1.get());
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // After clear() the entry is recomputed (fresh object).
  const auto recomputed = cache.starPacking(g8, 2);
  EXPECT_NE(recomputed.get(), a.get());
  EXPECT_EQ(recomputed->k, a->k);
}

// ExperimentDriver lanes hit the cache concurrently.  Every lane must get
// the one cached object, and racing lanes must not record misses a lone
// caller would not (a lane that loses the race adopts the winner's entry).
TEST(PrecomputeCache, ConcurrentLanesShareOneEntry) {
  auto& cache = exp::PrecomputeCache::global();
  const graph::Graph g = graph::clique(16);
  g.finalize();  // lanes share the graph: lock the CSR layout first

  cache.clear();
  (void)cache.greedyPacking(g, 4, 0, 3);
  (void)cache.starPacking(g, 2);
  const std::size_t soloMisses = cache.misses();
  cache.clear();

  constexpr int kLanes = 8;
  std::vector<const compile::PackingKnowledge*> greedy(kLanes, nullptr);
  std::vector<const compile::PackingKnowledge*> star(kLanes, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> lanes;
  for (int i = 0; i < kLanes; ++i) {
    lanes.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kLanes) std::this_thread::yield();
      greedy[static_cast<std::size_t>(i)] =
          cache.greedyPacking(g, 4, 0, 3).get();
      star[static_cast<std::size_t>(i)] = cache.starPacking(g, 2).get();
    });
  }
  for (auto& t : lanes) t.join();

  ASSERT_NE(greedy[0], nullptr);
  ASSERT_NE(star[0], nullptr);
  for (int i = 1; i < kLanes; ++i) {
    EXPECT_EQ(greedy[static_cast<std::size_t>(i)], greedy[0]) << "lane " << i;
    EXPECT_EQ(star[static_cast<std::size_t>(i)], star[0]) << "lane " << i;
  }
  EXPECT_EQ(cache.misses(), soloMisses);
  cache.clear();
}

}  // namespace
}  // namespace mobile
