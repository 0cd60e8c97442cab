// The message-plane abstraction: where one round's messages live and how
// they move.
//
// The Network's round engine never cared that its messages sit in a local
// arena -- it needs five things from the plane: storage nodes write to and
// read from (the ShardedPlane arena), the set of nodes THIS engine drives
// (all of them in a single-process run), a hook to move cross-engine
// messages after the send/adversary phases (a no-op in-process), agreement
// on the early-termination flag, and a post-run merge of per-engine
// accounting.  MessagePlane pins exactly that surface:
//
//   * the base class IS the arena plane: storage only, every hook inert --
//     the default-constructed Network is bit-for-bit the old engine;
//   * net::UdpPlane (src/net/udp_plane.h) partitions the node set over
//     processes, ships cross-range arcs through a perfect-link layer over
//     UDP, and implements exchange() as the lock-step round barrier.
//
// Determinism contract (golden-enforced in tests/test_net_plane.cc): a
// protocol whose nodes touch only per-node state produces the same
// outputs fingerprint and the same accounting on every plane, because the
// plane only decides WHERE message words live and WHICH engine runs a
// node -- never what any node observes.  The perfect-link layer upholds
// its half by delivering every cross-range message exactly once, intact,
// before the round's receive phase, regardless of injected drops,
// reorders, or duplicates (net/lossy.h).
//
// Error contract: plane implementations signal unrecoverable transport
// failures (retry budget exhausted, round-barrier timeout) by throwing
// PlaneError.  The trial layer (exp::runTrial) converts a PlaneError into
// a structured TrialResult::error instead of crashing the sweep -- the
// graceful-degradation path for a partitioned or dead peer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/sharded_plane.h"

namespace mobile::sim {

/// Unrecoverable message-plane failure (transport timeout, retry budget
/// exhausted, protocol desync).  exp::runTrial catches this and surfaces a
/// structured per-trial error record; everything else lets it propagate.
class PlaneError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-trial transport tallies, filled by planes that actually move bytes
/// (net::UdpPlane sums them across ranks in mergeTrial; the arena plane
/// leaves `present` false).  Structural -- NOT part of the obs build: the
/// perfect-link and lossy counters exist regardless, so campaign JSONL
/// lines carry them even with -DMOBILE_CONGEST_OBS=OFF.
struct TransportStats {
  bool present = false;
  std::uint64_t segmentsSent = 0;     ///< perfect-link DATA segments sent
  std::uint64_t retransmits = 0;      ///< timer-driven resends
  std::uint64_t dupsDropped = 0;      ///< receiver-side dedup hits
  std::uint64_t lossyDropped = 0;     ///< LossyChannel drop injections
  std::uint64_t lossyDuplicated = 0;  ///< LossyChannel duplicate injections
  std::uint64_t lossyReordered = 0;   ///< LossyChannel reorder injections
  std::uint64_t barrierWaitUs = 0;    ///< round-barrier wait (summed, us)
};

/// Per-engine trial accounting handed to MessagePlane::mergeTrial.  The
/// caller fills every field from its own run (vectors full-length, with
/// only the locally-driven slices meaningful); the plane merges the other
/// engines' slices in (or ships the local slices out) and the owner gets
/// the globally-exact values back.
struct TrialMerge {
  /// outputs[v] for every node; remote slices are overwritten by the merge.
  std::vector<std::uint64_t> outputs;
  /// Per-out-arc traffic counts (index = CSR arc id).
  std::vector<long> arcTraffic;
  long messages = 0;
  std::size_t maxWords = 0;
  long corruptions = 0;
  /// Filled by the plane itself during the merge (callers leave default).
  TransportStats transport;
};

/// Base class AND the in-process arena implementation: storage plus inert
/// hooks.  Subclasses override the virtuals; storage() is shared by every
/// implementation so the node-facing hot path (ArcOutbox / ArcInbox) stays
/// non-virtual.
class MessagePlane {
 public:
  MessagePlane() = default;
  virtual ~MessagePlane() = default;
  MessagePlane(const MessagePlane&) = delete;
  MessagePlane& operator=(const MessagePlane&) = delete;

  /// (Re)shapes the plane for `g` (finalized) with `shardCount` arena
  /// shards.  Subclasses must call the base first, then derive their
  /// ownership ranges.
  virtual void attach(const graph::Graph& g, int shardCount) {
    storage_.attach(g, shardCount);
    localLo_ = 0;
    localHi_ = g.nodeCount();
    remote_ = false;
  }

  [[nodiscard]] ShardedPlane& storage() { return storage_; }
  [[nodiscard]] const ShardedPlane& storage() const { return storage_; }

  /// Node range this engine drives: send/receive run for [localLo,
  /// localHi) only.  The arena plane owns everything.
  [[nodiscard]] graph::NodeId localNodeLo() const { return localLo_; }
  [[nodiscard]] graph::NodeId localNodeHi() const { return localHi_; }
  /// True when other engines drive part of the node set (the in-process
  /// scripted adversary is incompatible with a partitioned plane: its
  /// budget and ledger are global, sequential contracts).
  [[nodiscard]] bool partitioned() const { return remote_; }

  /// Moves cross-engine messages for round `round`: called between the
  /// adversary and receive phases, after which every arc a local node
  /// reads must hold exactly what the sender (local or remote) sent.
  /// Arena: nothing moves.
  virtual void exchange(int round) { (void)round; }

  /// Round-barrier agreement on the all-nodes-done flag, called once per
  /// step (and once at (re)initialization).  Partitioned planes AND the
  /// per-engine flags so every engine stops at the same round; the arena
  /// plane already sees all nodes.
  [[nodiscard]] virtual bool resolveAllDone(bool localAllDone) {
    return localAllDone;
  }

  /// Post-run merge of per-engine accounting.  Returns true when this
  /// engine owns the merged result (the arena plane always does; a
  /// partitioned plane's rank 0): `m` then holds globally-exact values.
  /// Returns false on replica engines, whose local slices were shipped to
  /// the owner and whose TrialResult must not be recorded.
  [[nodiscard]] virtual bool mergeTrial(TrialMerge& m) {
    (void)m;
    return true;
  }

 protected:
  void setLocalRange(graph::NodeId lo, graph::NodeId hi, bool remote) {
    localLo_ = lo;
    localHi_ = hi;
    remote_ = remote;
  }

 private:
  ShardedPlane storage_;
  graph::NodeId localLo_ = 0;
  graph::NodeId localHi_ = 0;
  bool remote_ = false;
};

}  // namespace mobile::sim
