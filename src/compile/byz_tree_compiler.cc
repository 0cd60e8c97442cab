#include "compile/byz_tree_compiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "sketch/l0sampler.h"
#include "sketch/sparse_recovery.h"
#include "util/rng.h"

namespace mobile::compile {

using graph::Graph;
using graph::NodeId;
using sim::Inbox;
using sim::MapInbox;
using sim::MapOutbox;
using sim::Msg;
using sim::MsgView;
using sim::NodeState;
using sim::Outbox;

namespace {

constexpr unsigned kUniverseBits = 60;
constexpr std::uint64_t kAbsentChunk = 1;  // chunk=1 encodes "no message"

std::uint64_t deriveSketchSeed(std::uint64_t treeSeed, int h) {
  std::uint64_t st = treeSeed ^ (std::uint64_t{0xabcdef12345678u} *
                                 static_cast<std::uint64_t>(h + 1));
  return util::splitmix64(st);
}

/// Per-thread sketch scratch.  Every use is confined to a single
/// send/receive call (the references never outlive the call), so the
/// engine's node-parallel lanes can share one set per thread instead of
/// holding ~5-8 KB of sampler state per *node* -- the difference between
/// fitting n=10^6 in single-digit GB and not.  Shape parameters are
/// remembered per cell: nodes from different trials (different f,
/// sparsity, or sketch options) interleave on driver lanes, so a cell is
/// reconstructed whenever the requested shape differs and merely reseeded
/// otherwise (the original per-node reseed idiom, hoisted per thread).
struct SketchScratch {
  std::optional<sketch::SparseRecovery> sparse;
  std::size_t sparseSparsity = 0;
  int sparseRows = 0;
  std::optional<sketch::SparseRecovery> sparseRecv;
  std::size_t recvSparsity = 0;
  int recvRows = 0;
  std::vector<sketch::L0Sampler> sketches;
  int tSketches = 0;
  unsigned levels = 0;
  std::optional<sketch::L0Sampler> l0Recv;
  unsigned l0RecvLevels = 0;
  std::vector<std::uint64_t> tmp;
  sim::Msg bundle;  // the upcast wire message, rebuilt in place per send
};

SketchScratch& scratch() {
  static thread_local SketchScratch s;
  return s;
}

}  // namespace

ByzSchedule ByzSchedule::compute(const PackingKnowledge& pk, int innerRounds,
                                 int f, const ByzOptions& opts) {
  ByzSchedule s;
  const int fEff = std::max(1, f);
  if (opts.correction == CorrectionMode::SparseOneShot) {
    s.z = 1;  // one-shot recovery (Section 1.2.2)
  } else {
    s.z = opts.zIterations > 0
              ? opts.zIterations
              : static_cast<int>(std::ceil(std::log2(2.0 * fEff))) + 2;
  }
  const int dmCap = opts.dmCap > 0 ? opts.dmCap : 2 * fEff + 8;
  const DmCodec codec(pk.k, dmCap, opts.cPP);
  s.chunks = codec.chunks();
  s.sketchSteps = 2 * pk.depthBound + 1;
  s.eccSteps = s.chunks * (pk.depthBound + 1);
  const SlotSchedule slots{pk.eta, opts.engine.effectiveRho()};
  s.roundsPerIteration = slots.blockRounds(s.sketchSteps + s.eccSteps);
  s.roundsPerSimRound = 1 + s.z * s.roundsPerIteration;
  s.totalRounds = innerRounds * s.roundsPerSimRound;
  return s;
}

namespace {

struct Pos {
  int simRound;  // 1-based inner round being simulated
  int offset;    // 0-based offset within the sim-round block
  bool exchange;
  int j;          // iteration, 0-based
  bool inSketch;  // sketch block vs ECC block
  int step;       // 1-based logical step within the block
  int rep;
  int slot;
};

class ByzNode final : public NodeState {
 public:
  ByzNode(NodeId self, const Graph& g, util::Rng rng,
          std::unique_ptr<NodeState> inner, int innerRounds,
          std::shared_ptr<const PackingKnowledge> pk, int f, ByzOptions opts,
          ByzSchedule sched, std::shared_ptr<ByzShared> shared)
      : self_(self),
        g_(g),
        rng_(std::move(rng)),
        inner_(std::move(inner)),
        innerRounds_(innerRounds),
        pk_(std::move(pk)),
        view_(pk_->view(self)),
        f_(std::max(1, f)),
        opts_(opts),
        sched_(sched),
        slots_{pk_->eta, opts.engine.effectiveRho()},
        codec_(pk_->k, opts.dmCap > 0 ? opts.dmCap : 2 * f_ + 8, opts.cPP),
        shared_(std::move(shared)),
        exchCapture_(g, self),
        inbox_(g, self) {
    isRoot_ = (self_ == pk_->root);
    // Fixed-shape stash: one VoteSlot per (neighbor, schedule slot).  A
    // slot stores distinct messages with multiplicities instead of all
    // rho copies (fault-free rounds keep exactly one), rewritten in place
    // each scheduled round -- the compile/baselines.cc no-alloc idiom.
    stash_.resize(g_.degree(self_) * static_cast<std::size_t>(pk_->eta));
    // Exchange-step key tables are adjacency-indexed and fully rewritten
    // by every exchange, so the shape is fixed up front.
    sentKey_.assign(g_.degree(self_), 0);
    estKey_.assign(g_.degree(self_), 0);
    buildSendSlots();
  }

  void send(int round, Outbox& out) override {
    const Pos p = position(round);
    if (p.simRound > innerRounds_) return;
    if (p.exchange) {
      sendExchange(p, out);
      return;
    }
    if (p.inSketch && p.step == 1 && p.rep == 0 && p.slot == 0)
      startIteration(p, round);
    // Per neighbor, the tree scheduled in this slot (by *our* belief).
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const int tree = view_.treeAt(static_cast<int>(i), p.slot);
      if (tree < 0) continue;
      const Msg* m = p.inSketch ? sketchMessage(tree, p, nbs[i].node)
                                : eccMessage(tree, p, nbs[i].node);
      if (m != nullptr) out.to(nbs[i].node, *m);
    }
  }

  void receive(int round, const Inbox& in) override {
    const Pos p = position(round);
    if (p.simRound > innerRounds_) {
      done_ = true;
      return;
    }
    if (p.exchange) {
      receiveExchange(p, in);
      return;
    }
    const int rho = slots_.rho;
    // Votes are stamped with the round of their rep 0; the last rep of a
    // vote that holds a present copy must run even without mail.
    const int voteStamp = round - p.rep * slots_.eta;
    const int lastRep = voteStamp + (rho - 1) * slots_.eta;
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const int tree = view_.treeAt(static_cast<int>(i), p.slot);
      if (tree < 0) continue;
      VoteSlot& vs = stashSlot(i, p.slot);
      const MsgView copy = in.from(nbs[i].node);
      vs.addAt(voteStamp, p.rep, copy);
      if (p.rep < rho - 1) {
        if (copy.present()) noteVoteWake(round, lastRep);
      } else {
        const Msg& maj = vs.winner();
        if (p.inSketch)
          handleSketch(tree, p, nbs[i].node, maj);
        else
          handleEcc(tree, p, nbs[i].node, maj);
      }
    }
    // Block boundaries.
    if (!p.inSketch && p.step == sched_.eccSteps && p.rep == rho - 1 &&
        p.slot == pk_->eta - 1) {
      finishIteration(p, round);
      if (p.j == sched_.z - 1) deliverToInner(p);
    }
  }

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

  /// Due rounds: the exchange, iteration-start and finish rounds (all
  /// nodes), every rep of this node's send slots, and the last rep of any
  /// vote holding a present copy.  Rounds that only receive are woken by
  /// mail.
  [[nodiscard]] int nextWake(int round) const override {
    const int next = round + 1;
    int wake = scheduleWake(next);
    if (voteWakeHi_ >= next) wake = std::min(wake, std::max(next, voteWakeLo_));
    return wake;
  }

 private:
  // --- round arithmetic ----------------------------------------------------

  [[nodiscard]] Pos position(int round) const {
    Pos p{};
    const int g = round - 1;
    p.simRound = g / sched_.roundsPerSimRound + 1;
    p.offset = g % sched_.roundsPerSimRound;
    p.exchange = (p.offset == 0);
    if (p.exchange) return p;
    const int q = p.offset - 1;
    p.j = q / sched_.roundsPerIteration;
    const int r = q % sched_.roundsPerIteration;
    const int sketchRounds = slots_.blockRounds(sched_.sketchSteps);
    if (r < sketchRounds) {
      p.inSketch = true;
      p.step = slots_.stepOf(r) + 1;
      p.rep = slots_.repOf(r);
      p.slot = slots_.slotOf(r);
    } else {
      const int e = r - sketchRounds;
      p.inSketch = false;
      p.step = slots_.stepOf(e) + 1;
      p.rep = slots_.repOf(e);
      p.slot = slots_.slotOf(e);
    }
    return p;
  }

  /// The first round >= `from` at which the schedule needs this node.
  [[nodiscard]] int scheduleWake(int from) const {
    if (from > sched_.totalRounds) return from;
    const int offset = (from - 1) % sched_.roundsPerSimRound;
    if (offset == 0) return from;  // exchange
    const int r = (offset - 1) % sched_.roundsPerIteration;
    if (r == 0) return from;  // iteration start
    const int iterStart = from - r;
    const int finish = iterStart + sched_.roundsPerIteration - 1;
    const int perStep = slots_.roundsPerStep();
    const int sketchRounds = slots_.blockRounds(sched_.sketchSteps);
    const int chunkRounds = (pk_->depthBound + 1) * perStep;
    const int rep = slots_.repOf(r);
    const int slot = slots_.slotOf(r);
    int due = -1;  // round offset within the iteration
    if (r < sketchRounds) {
      int o = firstDue(sketchSlots_, r / perStep, rep, slot);
      if (o >= 0) {
        due = o;
      } else if ((o = firstDue(eccSlots_, 0, 0, 0)) >= 0) {
        due = sketchRounds + o;
      }
    } else {
      const int chunk = (r - sketchRounds) / chunkRounds;
      const int e = (r - sketchRounds) % chunkRounds;
      const int base = sketchRounds + chunk * chunkRounds;
      int o = firstDue(eccSlots_, e / perStep, rep, slot);
      if (o >= 0) {
        due = base + o;
      } else if (chunk + 1 < sched_.chunks &&
                 (o = firstDue(eccSlots_, 0, 0, 0)) >= 0) {
        due = base + chunkRounds + o;
      }
    }
    return due < 0 ? finish : std::min(finish, iterStart + due);
  }

  /// Offset, within a block whose steps `codes` indexes, of the first due
  /// round at or after (step, rep, slot); -1 when none is left in the
  /// block.  A (step, slot) code is due at every rep of its step.
  [[nodiscard]] int firstDue(const std::vector<int>& codes, int step, int rep,
                             int slot) const {
    const int eta = slots_.eta;
    const int perStep = slots_.roundsPerStep();
    const auto it =
        std::lower_bound(codes.begin(), codes.end(), step * eta + slot);
    if (it != codes.end() && *it / eta == step)
      return step * perStep + rep * eta + *it % eta;  // later slot, this rep
    if (rep + 1 < slots_.rho) {
      const auto first =
          std::lower_bound(codes.begin(), codes.end(), step * eta);
      if (first != codes.end() && *first / eta == step)
        return step * perStep + (rep + 1) * eta + *first % eta;  // next rep
    }
    if (it == codes.end()) return -1;
    return *it / eta * perStep + *it % eta;  // rep 0 of a later step
  }

  /// The (step, slot) pairs at which send() may emit on some arc, coded
  /// step * eta + slot, per arc and slot for the tree scheduled there:
  /// sketchSlots_ holds the seed flood at step d+1 towards a child and the
  /// upcast at step 2D+1-d towards the parent; eccSlots_ the forward at
  /// wstep d+1 towards a child, which recurs in every ECC chunk.
  void buildSendSlots() {
    const int D = pk_->depthBound;
    const int eta = slots_.eta;
    const auto& nbs = g_.neighbors(self_);
    sketchSlots_.reserve(2 * nbs.size() * static_cast<std::size_t>(eta));
    eccSlots_.reserve(nbs.size() * static_cast<std::size_t>(eta));
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      for (int slot = 0; slot < eta; ++slot) {
        const int tree = view_.treeAt(static_cast<int>(i), slot);
        if (tree < 0) continue;
        const int d = depthIn(tree);
        if (d < 0) continue;
        if (isChildIn(tree, nbs[i].node)) {
          sketchSlots_.push_back(d * eta + slot);
          if (d <= D) eccSlots_.push_back(d * eta + slot);
        }
        if (d > 0 && nbs[i].node == parentIn(tree))
          sketchSlots_.push_back((2 * D - d) * eta + slot);
      }
    }
    for (std::vector<int>* codes : {&sketchSlots_, &eccSlots_}) {
      std::sort(codes->begin(), codes->end());
      codes->erase(std::unique(codes->begin(), codes->end()), codes->end());
    }
  }

  /// A vote received a present copy at `round`: wake at its last rep.
  void noteVoteWake(int round, int lastRep) {
    if (voteWakeHi_ < round) {
      voteWakeLo_ = voteWakeHi_ = lastRep;
    } else {
      voteWakeLo_ = std::min(voteWakeLo_, lastRep);
      voteWakeHi_ = std::max(voteWakeHi_, lastRep);
    }
  }

  [[nodiscard]] int sketchBlockStartRound(const Pos& p) const {
    return (p.simRound - 1) * sched_.roundsPerSimRound + 2 +
           p.j * sched_.roundsPerIteration;
  }
  [[nodiscard]] int eccBlockStartRound(const Pos& p) const {
    return sketchBlockStartRound(p) + slots_.blockRounds(sched_.sketchSteps);
  }

  /// The vote slot of (neighbor index, schedule slot).
  [[nodiscard]] VoteSlot& stashSlot(std::size_t nbIndex, int slot) {
    return stash_[nbIndex * static_cast<std::size_t>(pk_->eta) +
                  static_cast<std::size_t>(slot)];
  }

  [[nodiscard]] int depthIn(int tree) const { return view_.depth(tree); }
  [[nodiscard]] NodeId parentIn(int tree) const {
    return view_.parent(tree);
  }
  [[nodiscard]] bool isChildIn(int tree, NodeId u) const {
    return view_.hasChild(tree, u);
  }

  // --- exchange step -------------------------------------------------------

  void sendExchange(const Pos& p, Outbox& out) {
    // Reused member capture + adjacency-indexed key tables + one scratch
    // wire message: the exchange step allocates nothing in steady state.
    exchCapture_.begin();
    inner_->send(p.simRound, exchCapture_);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const Msg& cm = exchCapture_.slot(i);
      const bool present = cm.present;
      const std::uint64_t payload = present ? (cm.atOr(0, 0) & kPayloadMask)
                                            : 0;
      const std::uint64_t key = encodeKey(
          self_, nbs[i].node,
          present ? 0u : static_cast<unsigned>(kAbsentChunk), payload);
      sentKey_[i] = key;
      if (shared_) shared_->sentTruth[{self_, nbs[i].node}] = key;
      out.to(nbs[i].node, sim::resetScratch(wireMsg_).push(payload).push(
                              present ? 1u : 0u));
    }
  }

  void receiveExchange(const Pos& p, const Inbox& in) {
    currentSimRound_ = p.simRound;
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const MsgView m = in.from(nbs[i].node);
      const bool present = m.present() && (m.atOr(1, 0) & 1u) != 0;
      const std::uint64_t payload =
          m.present() ? (m.atOr(0, 0) & kPayloadMask) : 0;
      estKey_[i] = encodeKey(
          nbs[i].node, self_,
          present ? 0u : static_cast<unsigned>(kAbsentChunk), payload);
    }
    if (shared_) recordMismatches(0);
  }

  void recordMismatches(int afterIteration) {
    // Instrumentation for Lemma 3.8: count this node's wrong estimates.
    auto& bj = shared_->bj;
    while (static_cast<int>(bj.size()) < currentSimRound_)
      bj.emplace_back(static_cast<std::size_t>(sched_.z + 1), 0);
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const auto truth = shared_->sentTruth.find({nbs[i].node, self_});
      if (truth == shared_->sentTruth.end()) continue;
      if (estKey_[i] != truth->second)
        ++bj[static_cast<std::size_t>(currentSimRound_ - 1)]
            [static_cast<std::size_t>(afterIteration)];
    }
  }

  // --- iteration lifecycle ---------------------------------------------------

  void startIteration(const Pos& p, int round) {
    (void)round;
    currentSimRound_ = p.simRound;
    seed_.clear();
    accum_.clear();
    sparseAccum_.clear();
    recvShares_.assign(
        static_cast<std::size_t>(sched_.chunks),
        std::vector<gf::F16>(static_cast<std::size_t>(pk_->k), gf::F16(0)));
    fwdShare_.clear();
    dmComputed_ = false;
    buildEntries();
    if (shared_) {
      if (self_ == 0) shared_->iterationEntries.clear();  // node 0 resets
      for (const auto& e : entries_) shared_->iterationEntries.push_back(e);
      if (isRoot_) {
        shared_->trueSeeds.clear();
        shared_->trueShares.clear();
        shared_->sketchBlockStart = sketchBlockStartRound(p);
        shared_->eccBlockStart = eccBlockStartRound(p);
      }
    }
    if (isRoot_) {
      treeSeed_.assign(static_cast<std::size_t>(pk_->k), 0);
      for (int t = 0; t < pk_->k; ++t) {
        treeSeed_[static_cast<std::size_t>(t)] = rng_.next();
        if (shared_)
          shared_->trueSeeds[t] = treeSeed_[static_cast<std::size_t>(t)];
      }
      // The root knows its own seeds immediately.
      for (int t = 0; t < pk_->k; ++t)
        seed_[t] = treeSeed_[static_cast<std::size_t>(t)];
    }
  }

  /// Refills entries_ (clear + push, capacity kept) from the exchange key
  /// tables; both tables were fully rewritten by this sim round's exchange
  /// before any iteration starts.
  void buildEntries() {
    entries_.clear();
    const std::size_t deg = g_.degree(self_);
    for (std::size_t i = 0; i < deg; ++i) {
      entries_.push_back({sentKey_[i], +1});
      entries_.push_back({estKey_[i], -1});
    }
  }

  [[nodiscard]] std::size_t sparsity() const {
    return static_cast<std::size_t>(opts_.sparseSlack * 4 * f_);
  }

  // The local-sketch builders reuse per-node scratch objects: every call
  // reseeds the same cells for the requested tree instead of constructing
  // fresh sketches, so steady-state rounds allocate nothing here.  The
  // returned references stay valid until the next call.

  [[nodiscard]] sketch::SparseRecovery& localSparse(std::uint64_t treeSeed) {
    SketchScratch& sc = scratch();
    if (!sc.sparse || sc.sparseSparsity != sparsity() ||
        sc.sparseRows != opts_.sparseRows) {
      sc.sparse.emplace(treeSeed, sparsity(),
                        static_cast<std::size_t>(opts_.sparseRows));
      sc.sparseSparsity = sparsity();
      sc.sparseRows = opts_.sparseRows;
    } else {
      sc.sparse->reseed(treeSeed);
    }
    for (const auto& [key, freq] : entries_) sc.sparse->update(key, freq);
    return *sc.sparse;
  }

  [[nodiscard]] std::vector<sketch::L0Sampler>& localSketches(
      std::uint64_t treeSeed) {
    SketchScratch& sc = scratch();
    const auto tS = static_cast<std::size_t>(opts_.tSketches);
    if (sc.sketches.size() != tS || sc.levels != opts_.sketchLevels) {
      sc.sketches.clear();
      sc.sketches.reserve(tS);
      for (int h = 0; h < opts_.tSketches; ++h)
        sc.sketches.emplace_back(deriveSketchSeed(treeSeed, h), kUniverseBits,
                                 opts_.sketchLevels);
      sc.tSketches = opts_.tSketches;
      sc.levels = opts_.sketchLevels;
    } else {
      for (int h = 0; h < opts_.tSketches; ++h)
        sc.sketches[static_cast<std::size_t>(h)].reseed(
            deriveSketchSeed(treeSeed, h));
    }
    for (auto& s : sc.sketches)
      for (const auto& [key, freq] : entries_) s.update(key, freq);
    return sc.sketches;
  }

  /// Receive-side scratch: a sketch slot reseeded to match an incoming
  /// serialized sketch, filled via loadWords (in-place deserialize).
  [[nodiscard]] sketch::SparseRecovery& recvSparse(std::uint64_t treeSeed) {
    SketchScratch& sc = scratch();
    if (!sc.sparseRecv || sc.recvSparsity != sparsity() ||
        sc.recvRows != opts_.sparseRows) {
      sc.sparseRecv.emplace(treeSeed, sparsity(),
                            static_cast<std::size_t>(opts_.sparseRows));
      sc.recvSparsity = sparsity();
      sc.recvRows = opts_.sparseRows;
    } else {
      sc.sparseRecv->reseed(treeSeed);
    }
    return *sc.sparseRecv;
  }

  [[nodiscard]] sketch::L0Sampler& recvL0(std::uint64_t sketchSeed) {
    SketchScratch& sc = scratch();
    if (!sc.l0Recv || sc.l0RecvLevels != opts_.sketchLevels) {
      sc.l0Recv.emplace(sketchSeed, kUniverseBits, opts_.sketchLevels);
      sc.l0RecvLevels = opts_.sketchLevels;
    } else {
      sc.l0Recv->reseed(sketchSeed);
    }
    return *sc.l0Recv;
  }

  // --- sketch block ----------------------------------------------------------

  // The send builders return the message for `to` in this slot, or
  // nullptr when nothing is sent.  Messages are built in reused buffers
  // (one-word sends in the node's wire scratch, upcast bundles in the
  // per-thread sketch scratch) that stay valid until the next call: the
  // caller hands them straight to the outbox, so no send allocates.

  [[nodiscard]] const Msg* sketchMessage(int tree, const Pos& p, NodeId to) {
    const int d = depthIn(tree);
    const int D = pk_->depthBound;
    if (d < 0) return nullptr;
    if (p.step <= D) {
      // Seed flood: depth step-1 nodes forward to children.
      if (d == p.step - 1 && isChildIn(tree, to)) {
        const auto it = seed_.find(tree);
        if (it != seed_.end())
          return &sim::resetScratch(wireMsg_).push(it->second);
      }
      return nullptr;
    }
    // Upcast: depth d sends at step 2D+1-d to its parent.
    if (d > 0 && p.step == 2 * D + 1 - d && to == parentIn(tree)) {
      const std::uint64_t ts = seed_.count(tree) ? seed_.at(tree) : 0;
      SketchScratch& sc = scratch();
      Msg& bundle = sim::resetScratch(sc.bundle);
      if (opts_.correction == CorrectionMode::SparseOneShot) {
        sketch::SparseRecovery& mine = localSparse(ts);
        const auto acc = sparseAccum_.find(tree);
        if (acc != sparseAccum_.end()) mine.merge(acc->second);
        mine.serializeInto(bundle.words);
        return &bundle;
      }
      std::vector<sketch::L0Sampler>& mine = localSketches(ts);
      const auto acc = accum_.find(tree);
      if (acc != accum_.end()) {
        for (int h = 0; h < opts_.tSketches; ++h)
          mine[static_cast<std::size_t>(h)].merge(
              acc->second[static_cast<std::size_t>(h)]);
      }
      for (const auto& s : mine) {
        s.serializeInto(sc.tmp);
        bundle.words.insert(bundle.words.end(), sc.tmp.begin(), sc.tmp.end());
      }
      return &bundle;
    }
    return nullptr;
  }

  void handleSketch(int tree, const Pos& p, NodeId from, const Msg& m) {
    const int d = depthIn(tree);
    const int D = pk_->depthBound;
    if (d < 0) return;
    if (p.step <= D) {
      if (d == p.step && from == parentIn(tree) && m.present)
        seed_[tree] = m.at(0);
      return;
    }
    // Bundle from a child (it sent at step 2D+1-(d+1)).
    if (!isChildIn(tree, from) || !m.present) return;
    const std::uint64_t ts = seed_.count(tree) ? seed_.at(tree) : 0;
    if (opts_.correction == CorrectionMode::SparseOneShot) {
      sketch::SparseRecovery& got = recvSparse(ts);
      if (m.size() != got.serializedWords()) return;  // malformed: drop
      got.loadWords(m.words.data(), m.size());
      const auto acc = sparseAccum_.find(tree);
      if (acc == sparseAccum_.end())
        sparseAccum_.emplace(tree, got);
      else
        acc->second.merge(got);
      return;
    }
    const std::size_t per =
        recvL0(deriveSketchSeed(ts, 0)).serializedWords();
    if (m.size() != per * static_cast<std::size_t>(opts_.tSketches))
      return;  // malformed (corrupted) bundle: drop
    auto acc = accum_.find(tree);
    const bool firstBundle = acc == accum_.end();
    if (firstBundle)
      acc = accum_.emplace(tree, std::vector<sketch::L0Sampler>{}).first;
    for (int h = 0; h < opts_.tSketches; ++h) {
      sketch::L0Sampler& got = recvL0(deriveSketchSeed(ts, h));
      got.loadWords(m.words.data() + per * static_cast<std::size_t>(h), per);
      if (firstBundle)
        acc->second.push_back(got);
      else
        acc->second[static_cast<std::size_t>(h)].merge(got);
    }
  }

  // --- root: dominating mismatches -------------------------------------------

  void computeDmSparse() {
    dmComputed_ = true;
    // Section 1.2.2: recover the full mismatch support per tree, then take
    // the majority result across trees (most trees are uncorrupted, so the
    // true support wins; no Delta threshold needed).
    std::map<std::vector<std::uint64_t>, int> votes;
    for (int t = 0; t < pk_->k; ++t) {
      sketch::SparseRecovery& merged =
          localSparse(treeSeed_[static_cast<std::size_t>(t)]);
      const auto acc = sparseAccum_.find(t);
      if (acc != sparseAccum_.end()) merged.merge(acc->second);
      std::vector<std::uint64_t> canon;
      const auto rec = merged.recoverAll();
      if (rec.has_value()) {
        for (const auto& e : *rec)
          if (e.frequency > 0) canon.push_back(e.key);
        std::sort(canon.begin(), canon.end());
      } else {
        canon.push_back(~0ULL);  // failure marker
      }
      ++votes[canon];
    }
    std::vector<std::uint64_t> winner;
    int best = 0;
    for (const auto& [canon, count] : votes) {
      if (count > best) {
        best = count;
        winner = canon;
      }
    }
    if (!winner.empty() && winner[0] == ~0ULL) winner.clear();
    if (static_cast<int>(winner.size()) > codec_.dmCap())
      winner.resize(static_cast<std::size_t>(codec_.dmCap()));
    dmKeys_ = winner;
    shares_ = codec_.encode(winner);
    if (shared_) shared_->trueShares = shares_;
  }

  void computeDm(const Pos& p) {
    if (opts_.correction == CorrectionMode::SparseOneShot) {
      computeDmSparse();
      return;
    }
    dmComputed_ = true;
    // Resolve per-tree sketches: own + accumulated children.
    std::map<std::uint64_t, int> supp;
    std::map<std::uint64_t, bool> positive;
    const bool contract =
        opts_.engine.mode == EngineMode::Contract && shared_ && shared_->oracle;
    const int sketchStart = sketchBlockStartRound(p);
    const int sketchEnd = eccBlockStartRound(p) - 1;
    for (int t = 0; t < pk_->k; ++t) {
      std::vector<sketch::L0Sampler>& merged =
          localSketches(treeSeed_[static_cast<std::size_t>(t)]);
      const auto acc = accum_.find(t);
      if (acc != accum_.end())
        for (int h = 0; h < opts_.tSketches; ++h)
          merged[static_cast<std::size_t>(h)].merge(
              acc->second[static_cast<std::size_t>(h)]);
      if (contract &&
          shared_->oracle->survives(t, sketchStart, sketchEnd,
                                    sched_.sketchSteps, opts_.engine.cRS)) {
        // Ideal functionality: the fault-free aggregate.
        merged.clear();
        for (int h = 0; h < opts_.tSketches; ++h) {
          sketch::L0Sampler s(
              deriveSketchSeed(shared_->trueSeeds[t], h), kUniverseBits,
              opts_.sketchLevels);
          for (const auto& [key, freq] : shared_->iterationEntries)
            s.update(key, freq);
          merged.push_back(std::move(s));
        }
      }
      for (const auto& s : merged) {
        const auto r = s.query();
        if (r.has_value()) {
          ++supp[r->key];
          if (r->frequency > 0) positive[r->key] = true;
        }
      }
    }
    // Threshold Delta_j (Eq. 8 with tuned constants; see ByzOptions::theta).
    const double dj = opts_.theta * std::pow(2.0, p.j + 1) *
                      static_cast<double>(pk_->k) * opts_.tSketches /
                      static_cast<double>(f_);
    const int delta = std::max(1, static_cast<int>(std::ceil(dj)));
    std::vector<std::uint64_t> dm;
    for (const auto& [key, s] : supp)
      if (s >= delta && positive.count(key)) dm.push_back(key);
    std::sort(dm.begin(), dm.end());
    if (static_cast<int>(dm.size()) > codec_.dmCap())
      dm.resize(static_cast<std::size_t>(codec_.dmCap()));
    dmKeys_ = dm;
    shares_ = codec_.encode(dm);
    if (shared_) shared_->trueShares = shares_;
  }

  // --- ECC block -------------------------------------------------------------

  [[nodiscard]] const Msg* eccMessage(int tree, const Pos& p, NodeId to) {
    const int D = pk_->depthBound;
    const int chunk = (p.step - 1) / (D + 1);
    const int wstep = (p.step - 1) % (D + 1) + 1;
    const int d = depthIn(tree);
    if (d < 0 || !isChildIn(tree, to)) return nullptr;
    if (isRoot_ && !dmComputed_) computeDm(p);
    if (d != wstep - 1) return nullptr;
    if (isRoot_) {
      return &sim::resetScratch(wireMsg_).push(
          shares_[static_cast<std::size_t>(chunk)]
                 [static_cast<std::size_t>(tree)]
              .value());
    }
    const auto it = fwdShare_.find({tree, chunk});
    if (it == fwdShare_.end()) return nullptr;
    return &sim::resetScratch(wireMsg_).push(it->second);
  }

  void handleEcc(int tree, const Pos& p, NodeId from, const Msg& m) {
    const int D = pk_->depthBound;
    const int chunk = (p.step - 1) / (D + 1);
    const int wstep = (p.step - 1) % (D + 1) + 1;
    const int d = depthIn(tree);
    if (d < 0 || from != parentIn(tree) || d != wstep || !m.present) return;
    const std::uint16_t sym = static_cast<std::uint16_t>(m.at(0));
    fwdShare_[{tree, chunk}] = sym;
    recvShares_[static_cast<std::size_t>(chunk)]
               [static_cast<std::size_t>(tree)] =
        gf::F16(sym);
  }

  void finishIteration(const Pos& p, int round) {
    (void)round;
    std::vector<std::uint64_t> dm;
    if (isRoot_) {
      if (!dmComputed_) computeDm(p);  // degenerate packs with no children
      dm = dmKeys_;
    } else {
      const bool contract = opts_.engine.mode == EngineMode::Contract &&
                            shared_ && shared_->oracle;
      if (contract) {
        const int eccStart = eccBlockStartRound(p);
        const int eccEnd = eccStart + slots_.blockRounds(sched_.eccSteps) - 1;
        for (int t = 0; t < pk_->k; ++t) {
          if (shared_->oracle->survives(t, eccStart, eccEnd, sched_.eccSteps,
                                        opts_.engine.cRS) &&
              !shared_->trueShares.empty()) {
            for (int c = 0; c < sched_.chunks; ++c)
              recvShares_[static_cast<std::size_t>(c)]
                         [static_cast<std::size_t>(t)] =
                  shared_->trueShares[static_cast<std::size_t>(c)]
                                     [static_cast<std::size_t>(t)];
          }
        }
      }
      dm = codec_.decode(recvShares_);
    }
    // Patch estimates (Step 3 of the iteration).
    for (const std::uint64_t key : dm) {
      const DecodedKey dec = decodeKey(key);
      if (dec.receiver != self_) continue;
      if (dec.chunk > kAbsentChunk) continue;
      const std::ptrdiff_t idx = exchCapture_.indexOf(dec.sender);
      if (idx < 0) continue;  // not a neighbor
      estKey_[static_cast<std::size_t>(idx)] =
          encodeKey(dec.sender, self_, dec.chunk, dec.payload);
    }
    if (shared_) recordMismatches(p.j + 1);
  }

  void deliverToInner(const Pos& p) {
    // Redeliver through the reused member inbox: every neighbor slot is
    // rewritten (absent included), so no stale message survives between
    // sim rounds and nothing is allocated after the first delivery.
    const auto& nbs = g_.neighbors(self_);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      Msg& slot = inbox_.slot(nbs[i].node);
      slot.present = false;
      slot.words.clear();
      const DecodedKey dec = decodeKey(estKey_[i]);
      if (dec.chunk == 0) {
        slot.present = true;
        slot.words.push_back(dec.payload);
      }
    }
    inner_->receive(p.simRound, inbox_);
    if (p.simRound >= innerRounds_) done_ = true;
  }

  // --- members ---------------------------------------------------------------

  NodeId self_;
  const Graph& g_;
  util::Rng rng_;
  std::unique_ptr<NodeState> inner_;
  int innerRounds_;
  std::shared_ptr<const PackingKnowledge> pk_;
  NodeTreeView view_;  // value proxy into pk_'s flat arrays
  int f_;
  ByzOptions opts_;
  ByzSchedule sched_;
  SlotSchedule slots_;
  DmCodec codec_;
  std::shared_ptr<ByzShared> shared_;
  bool isRoot_ = false;
  bool done_ = false;
  int currentSimRound_ = 1;

  /// Exchange-step surfaces, adjacency-indexed and rewritten in place each
  /// sim round: the member capture collects the inner algorithm's sends,
  /// the key tables hold my sends / estimated receipts in key form, and
  /// wireMsg_ is the reused buffer of every one- and two-word send.
  sim::FlatCapture exchCapture_;
  Msg wireMsg_;
  std::vector<std::uint64_t> sentKey_;  // [nbIndex] my round-i sends
  std::vector<std::uint64_t> estKey_;   // [nbIndex] estimates of receipts
  std::vector<std::pair<std::uint64_t, std::int64_t>> entries_;

  std::map<int, std::uint64_t> seed_;  // tree -> sketch seed this iteration
  std::vector<std::uint64_t> treeSeed_;  // root only
  std::map<int, std::vector<sketch::L0Sampler>> accum_;  // children merges
  std::map<int, sketch::SparseRecovery> sparseAccum_;    // SparseOneShot mode
  /// Repetition stash, [neighbor slot][schedule slot] flattened; fixed
  /// shape, vote slots rewritten in place (lazily, see VoteSlot::addAt).
  std::vector<VoteSlot> stash_;
  /// The wake schedule: sorted send slots of the sketch block and of one
  /// ECC chunk (buildSendSlots), and the round range holding the last reps
  /// of votes with a present copy.
  std::vector<int> sketchSlots_;
  std::vector<int> eccSlots_;
  int voteWakeLo_ = 0;
  int voteWakeHi_ = 0;

  bool dmComputed_ = false;
  std::vector<std::uint64_t> dmKeys_;
  std::vector<std::vector<gf::F16>> shares_;      // root: [chunk][tree]
  std::vector<std::vector<gf::F16>> recvShares_;  // node: [chunk][tree]
  std::map<std::pair<int, int>, std::uint16_t> fwdShare_;  // (tree,chunk)
  MapInbox inbox_;  // reused delivery surface for the inner algorithm
};

}  // namespace

sim::Algorithm compileByzantineTree(const graph::Graph& g,
                                    const sim::Algorithm& inner,
                                    std::shared_ptr<const PackingKnowledge> pk,
                                    int f, ByzOptions opts,
                                    std::shared_ptr<ByzShared> shared) {
  const ByzSchedule sched = ByzSchedule::compute(*pk, inner.rounds, f, opts);
  if (shared && opts.engine.mode == EngineMode::Contract) {
    assert(shared->ledger && "Contract mode needs the network's ledger");
    shared->oracle = std::make_unique<ContractOracle>(shared->ledger, *pk, g);
  }
  sim::Algorithm out;
  out.rounds = sched.totalRounds;
  out.congestion = 0;
  out.makeNode = [&g, inner, pk, f, opts, sched, shared](
                     NodeId v, const Graph&, util::Rng rng) {
    auto innerNode = inner.makeNode(v, g, rng.split(0xb12));
    return std::make_unique<ByzNode>(v, g, rng.split(0x3a7),
                                     std::move(innerNode), inner.rounds, pk, f,
                                     opts, sched, shared);
  };
  return out;
}

}  // namespace mobile::compile
