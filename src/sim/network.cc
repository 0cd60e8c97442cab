#include "sim/network.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace mobile::sim {

const std::array<const char*, Network::kPhaseCount> Network::kPhaseNames = {
    "clear", "send", "account", "adversary", "exchange", "receive"};

namespace {

/// Engine metric ids, registered once at first observed use (the slow
/// registration path never runs on the obs-off path).
struct EngineMetricIds {
  obs::CounterId rounds;
  obs::CounterId messages;
  obs::CounterId sendWords;
  obs::CounterId corruptions;
  obs::HistogramId msgWords;
};

const EngineMetricIds& engineMetricIds() {
  static const EngineMetricIds ids = [] {
    EngineMetricIds m;
    obs::Registry& r = obs::registry();
    m.rounds = r.counter("engine.rounds");
    m.messages = r.counter("engine.messages");
    m.sendWords = r.counter("engine.send_words");
    m.corruptions = r.counter("adv.corruptions");
    m.msgWords = r.histogram("engine.msg_words");
    return m;
  }();
  return ids;
}

}  // namespace

Network::Network(const graph::Graph& g, const Algorithm& algo,
                 std::uint64_t seed, adv::Adversary* adversary,
                 NetworkOptions opts,
                 std::shared_ptr<adv::CorruptionLedger> ledger)
    : g_(g),
      algo_(algo),
      opts_(std::move(opts)),
      adversary_(adversary),
      ledger_(ledger ? std::move(ledger)
                     : std::make_shared<adv::CorruptionLedger>()),
      arcTraffic_(static_cast<std::size_t>(g.arcCount()), 0),
      nodeMsgs_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeMaxWords_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeWords_(static_cast<std::size_t>(g.nodeCount()), 0),
      wake_(static_cast<std::size_t>(g.nodeCount()), 1),
      mail_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeDone_(static_cast<std::size_t>(g.nodeCount())) {
  g_.finalize();  // lock the CSR layout before any parallel phase reads it
  plane_ = opts_.planeImpl ? opts_.planeImpl : std::make_shared<MessagePlane>();
  plane_->attach(g_,
                 opts_.numShards > 0 ? opts_.numShards : opts_.numThreads);
  if (adversary_ != nullptr && plane_->partitioned())
    throw std::logic_error(
        "in-process adversary is incompatible with a partitioned plane "
        "(its budget and ledger are global); use net::LossyChannel");
  if (opts_.numThreads > 1)
    pool_ = std::make_unique<util::ThreadPool>(opts_.numThreads);
  // Nodes receive independently split, private randomness streams, so the
  // stream node v observes does not depend on which engine drives it.
  // Every node is due in round 1 (wake_); nothing has mail yet.
  util::Rng master(seed);
  nodes_.reserve(static_cast<std::size_t>(g_.nodeCount()));
  for (graph::NodeId v = 0; v < g_.nodeCount(); ++v)
    nodes_.push_back(
        algo_.makeNode(v, g_, master.split(static_cast<std::uint64_t>(v))));
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v) {
    const bool d = nodes_[static_cast<std::size_t>(v)]->done();
    nodeDone_[static_cast<std::size_t>(v)] = d ? 1 : 0;
    if (!d) ++notDone_;
  }
  // Resolve across engines even here: every rank must agree whether the
  // run starts at all.
  allDone_ = plane_->resolveAllDone(notDone_ == 0);
}

Network::~Network() = default;

void Network::forEachNode(const std::vector<graph::NodeId>& nodes,
                          const std::function<void(graph::NodeId)>& fn) {
  const std::size_t n = nodes.size();
  if (pool_) {
    // Chunk so a lane claims a contiguous block of nodes per atomic fetch;
    // per-node work is small, so amortize the cursor traffic.
    const std::size_t grain = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(pool_->size()) * 4));
    pool_->parallelFor(n, [&](std::size_t i) { fn(nodes[i]); }, grain);
  } else {
    for (const graph::NodeId v : nodes) fn(v);
  }
}

void Network::clearPhase() {
  // Per shard: epoch bump invalidates every header, slab cursors rewind in
  // place.  No frees, and after warm-up no allocations either.  Shards are
  // independent arenas, so the clears fan out across the pool.  ALL shards
  // are cleared even on a partitioned plane -- remote arcs' headers must
  // be invalidated before the exchange installs this round's content.
  ShardedPlane& storage = plane_->storage();
  const std::size_t shards = storage.shardCount();
  if (pool_ && shards > 1) {
    pool_->parallelFor(shards,
                       [&](std::size_t s) { storage.beginRoundShard(s); });
  } else {
    storage.beginRound();
  }
}

void Network::sendPhase() {
  // Safe to parallelize: node v appends only into its own slab inside its
  // own shard and writes only the out-arc headers keyed by sender v
  // (ArcOutbox), and mutates only its own state/RNG.  The
  // bandwidth/congestion tallies fold into this same pass: each node scans
  // its own out-arcs -- the contiguous CSR range starting at the row's
  // firstArc(), all local to its shard -- and deposits its message count /
  // widest message in per-node slots that accountPhase reduces
  // sequentially.  Only nodes whose wake round is due send: the wake
  // contract guarantees the others would send nothing.
  due_.clear();
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v)
    if (wake_[static_cast<std::size_t>(v)] <= round_) due_.push_back(v);
  ShardedPlane& storage = plane_->storage();
  forEachNode(due_, [&](graph::NodeId v) {
    ArcOutbox out(g_, v, storage);
    nodes_[static_cast<std::size_t>(v)]->send(round_, out);
    const std::size_t shard = storage.shardOfNode(v);
    const ArcBuffer& buf = storage.shard(shard);
    const graph::ArcId base = storage.arcBase(shard);
    const auto nbs = g_.neighbors(v);
    long sent = 0;
    std::size_t widest = 0;
    std::size_t wordSum = 0;
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const graph::ArcId a = nbs.firstArc() + static_cast<graph::ArcId>(i);
      const graph::ArcId local = a - base;
      if (!buf.present(local)) continue;
      const std::size_t sz = buf.size(local);
      ++sent;
      widest = std::max(widest, sz);
      wordSum += sz;
      ++arcTraffic_[static_cast<std::size_t>(a)];
    }
    nodeMsgs_[static_cast<std::size_t>(v)] = sent;
    nodeMaxWords_[static_cast<std::size_t>(v)] = widest;
    // No obs hooks in this lambda, by measurement: even a dead
    // `if (obs::enabled())` branch here bloats the closure enough to cost
    // double-digit percent on the MST round-throughput probe.  The word
    // tally rides the existing per-node deposit slots instead, and
    // accountPhase folds it into the registry off the parallel path.
    nodeWords_[static_cast<std::size_t>(v)] = wordSum;
  });
}

void Network::accountPhase() {
  // O(senders) reduction of the per-node tallies the send pass deposited
  // (only nodes that ran have fresh slots).  Bandwidth enforcement happens
  // here, before the adversary acts, exactly as the per-arc scan used to.
  // Senders that sent also stamp mail on their receivers -- sequentially,
  // since a receiver's stamp has many writers.
  std::size_t widest = 0;
  for (const graph::NodeId v : due_) {
    const auto i = static_cast<std::size_t>(v);
    messagesSent_ += nodeMsgs_[i];
    widest = std::max(widest, nodeMaxWords_[i]);
    if (nodeMsgs_[i] != 0) markOutMail(v);
  }
  if (widest > opts_.maxWordsPerMsg)
    throw std::logic_error("message exceeds bandwidth cap");
  maxWords_ = std::max(maxWords_, widest);
  if (obs::enabled()) accountObserved();
}

void Network::markOutMail(graph::NodeId v) {
  const ShardedPlane& storage = plane_->storage();
  const std::size_t shard = storage.shardOfNode(v);
  const ArcBuffer& buf = storage.shard(shard);
  const graph::ArcId local = g_.firstOutArc(v) - storage.arcBase(shard);
  const auto nbs = g_.neighbors(v);
  for (std::size_t i = 0; i < nbs.size(); ++i)
    if (buf.present(local + static_cast<graph::ArcId>(i)))
      mail_[static_cast<std::size_t>(nbs[i].node)] = round_;
}

void Network::accountObserved() {
  // Sequential second scan of the per-node deposit slots: registry
  // traffic stays out of the parallel send lambda (see sendPhase) and --
  // because this body is outlined and cold -- out of accountPhase's fast
  // path when obs is disabled or compiled out.
  const EngineMetricIds& m = engineMetricIds();
  obs::Registry& reg = obs::registry();
  std::uint64_t msgs = 0;
  std::uint64_t words = 0;
  for (const graph::NodeId v : due_) {
    const auto i = static_cast<std::size_t>(v);
    if (nodeMsgs_[i] == 0) continue;
    msgs += static_cast<std::uint64_t>(nodeMsgs_[i]);
    words += nodeWords_[i];
    reg.observe(m.msgWords, nodeMaxWords_[i]);
  }
  if (msgs != 0) {
    reg.add(m.messages, msgs);
    reg.add(m.sendWords, words);
  }
}

void Network::adversaryPhase() {
  // Strictly sequential: the TamperView budget enforcement and the
  // copy-on-touch diff into the CorruptionLedger are order-sensitive
  // contracts.  Cost is O(touched edges): only edges the adversary charged
  // have pre-images, and untouched arcs are unreachable from the view.
  ledger_->beginRound(round_);
  if (adversary_ == nullptr) return;
  ShardedPlane& storage = plane_->storage();
  adv::TamperView view(g_, adversary_->spec(), round_, storage,
                       ledger_->total(), tamperScratch_);
  adversary_->act(view);
  // Mail: the adversary may have injected on either arc of any edge it
  // touched, so both ends run this round's receive.
  for (const graph::EdgeId e : view.touched()) {
    const graph::Edge& ed = g_.edge(e);
    mail_[static_cast<std::size_t>(ed.u)] = round_;
    mail_[static_cast<std::size_t>(ed.v)] = round_;
  }
  // Ground truth: which touched edges actually changed (a rewrite that
  // reproduces the original message is charged but not a corruption).
  // preImages() is sorted ascending by edge, matching the old full-plane
  // scan (and the old std::map iteration) for deterministic record order.
  const std::uint64_t* arena = view.snapshotArena();
  const bool obsOn = obs::enabled();
  const bool obsTracing = obs::tracing();
  std::uint64_t corrupted = 0;
  for (const auto& p : view.preImages()) {
    if (!sameContent(storage.view(g_.arcOfEdge(p.edge, 0)), p.uvPresent,
                     arena + p.uvOff, p.uvLen) ||
        !sameContent(storage.view(g_.arcOfEdge(p.edge, 1)), p.vuPresent,
                     arena + p.vuOff, p.vuLen)) {
      ledger_->record(p.edge);
      ++corrupted;
      if (obsTracing) {
        // Adversary event trace: one instant per corrupted edge, fed from
        // the same diff that feeds the CorruptionLedger, with the pre-image
        // footprint (words snapshotted for this edge) as context.
        const graph::Edge& ed = g_.edge(p.edge);
        const obs::TraceArg args[] = {
            {"edge", static_cast<std::int64_t>(p.edge)},
            {"u", static_cast<std::int64_t>(ed.u)},
            {"v", static_cast<std::int64_t>(ed.v)},
            {"pre_words", static_cast<std::int64_t>(p.uvLen + p.vuLen)}};
        obs::tracer().instant("adv", "corrupt", args, 4);
      }
    }
  }
  if (obsOn && corrupted != 0)
    obs::registry().add(engineMetricIds().corruptions, corrupted);
  snapshotWords_ += view.snapshotWordsCopied();
}

void Network::exchangePhase() {
  // Cross-engine message movement (arena: no-op).  After this, every arc a
  // local node reads holds exactly what its sender sent this round; the
  // arcs that arrived from other engines stamp mail on their heads.
  plane_->exchange(round_);
  ShardedPlane& storage = plane_->storage();
  for (const graph::ArcId a : storage.remoteArcs())
    mail_[static_cast<std::size_t>(g_.arcTarget(a))] = round_;
  storage.clearRemoteArcs();
}

void Network::receivePhase() {
  // Safe to parallelize: receives read the (frozen) arena and mutate only
  // per-node state (including the node's own wake_/nodeDone_ slots).
  // Nodes that are due or have mail run; doneness is tracked as a count
  // folded in here, so run() never needs a full-graph scan.
  running_.clear();
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (wake_[i] <= round_ || mail_[i] == round_) running_.push_back(v);
  }
  nodeRuns_ += running_.size();
  std::atomic<long> doneDelta{0};
  forEachNode(running_, [&](graph::NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    ArcInbox in(g_, v, plane_->storage());
    NodeState& node = *nodes_[i];
    node.receive(round_, in);
    wake_[i] = node.nextWake(round_);
    const std::uint8_t d = node.done() ? 1 : 0;
    if (d != nodeDone_[i]) {
      nodeDone_[i] = d;
      doneDelta.fetch_add(d != 0 ? -1 : 1, std::memory_order_relaxed);
    }
  });
  notDone_ += doneDelta.load(std::memory_order_relaxed);
  // The plane resolves across engines (arena: identity) so every rank
  // stops at the same round -- called unconditionally to keep partitioned
  // engines' barrier counts aligned.
  allDone_ = plane_->resolveAllDone(notDone_ == 0);
}

void Network::step() {
  ++round_;
  if (obs::enabled()) {
    // One relaxed load + branch decides the whole round: the fast path
    // below carries zero instrumentation (and with the obs build OFF the
    // branch itself folds away).
    stepObserved();
    return;
  }
  clearPhase();
  sendPhase();
  accountPhase();
  adversaryPhase();
  exchangePhase();
  receivePhase();
}

void Network::stepObserved() {
  obs::registry().add(engineMetricIds().rounds, 1);
  const obs::TraceArg roundArg[] = {{"round", round_}};
  const obs::Span roundSpan("engine", "round", roundArg, 1);
  std::size_t idx = 0;
  // Wall time per phase accumulates whenever obs is enabled; the nested
  // Span additionally lands a per-phase 'X' event when a tracer is live.
  const auto timed = [&](const char* name, auto&& phase) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      const obs::Span s("engine", name, roundArg, 1);
      phase();
    }
    phaseMs_[idx++] +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };
  timed("clear", [&] { clearPhase(); });
  timed("send", [&] { sendPhase(); });
  timed("account", [&] { accountPhase(); });
  timed("adversary", [&] { adversaryPhase(); });
  timed("exchange", [&] { exchangePhase(); });
  timed("receive", [&] { receivePhase(); });
}

int Network::run(int maxRounds) {
  int executed = 0;
  while (executed < maxRounds) {
    if (allDone_) break;
    step();
    ++executed;
  }
  return executed;
}

void Network::runExact(int count) {
  for (int i = 0; i < count; ++i) step();
}

std::vector<std::uint64_t> Network::outputs() const {
  std::vector<std::uint64_t> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->output());
  return out;
}

std::uint64_t fingerprintOutputs(const std::vector<std::uint64_t>& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t out : outputs) {
    h ^= out;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  }
  return h;
}

std::uint64_t Network::outputsFingerprint() const {
  return fingerprintOutputs(outputs());
}

long maxEdgeCongestionOf(const graph::Graph& g,
                         const std::vector<long>& arcTraffic) {
  long best = 0;
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const long t = arcTraffic[static_cast<std::size_t>(g.arcOfEdge(e, 0))] +
                   arcTraffic[static_cast<std::size_t>(g.arcOfEdge(e, 1))];
    best = std::max(best, t);
  }
  return best;
}

long Network::maxEdgeCongestion() const {
  return maxEdgeCongestionOf(g_, arcTraffic_);
}

std::uint64_t faultFreeFingerprint(const graph::Graph& g,
                                   const Algorithm& algo, std::uint64_t seed) {
  Network net(g, algo, seed);
  net.run(algo.rounds);
  return net.outputsFingerprint();
}

}  // namespace mobile::sim
