// The trial layer: batched, parallel experiment execution.
//
// Every experiment in the paper is a *sweep*: many independent trials over
// seeds x adversary budgets f x graph families.  A TrialSpec captures one
// trial as pure factories (graph, algorithm, adversary) plus a seed, so a
// trial owns everything it touches and trials are embarrassingly parallel.
// The ExperimentDriver fans a grid of specs over a util::ThreadPool --
// trial-level parallelism, the always-safe win -- and returns per-trial
// TrialResults in spec order, so results are identical no matter how many
// threads ran them (the determinism gtest enforces this).
//
// Aggregation groups results by TrialSpec::group into mean/median/stddev
// summaries ready for util::Table display and for the BENCH_*.json
// trajectory (writeSummariesJson / writeTrialsCsv).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adv/adversary.h"
#include "graph/graph.h"
#include "sim/network.h"
#include "util/table.h"

namespace mobile::util {
class ThreadPool;
}

namespace mobile::exp {

struct TrialResult;

/// One independent trial: factories are invoked fresh on the worker that
/// runs the trial (a trial shares nothing mutable with its siblings).
/// Standard idiom: build the graph once in the harness and capture it by
/// value -- `spec.graphFactory = [g] { return g; };`.
struct TrialSpec {
  /// Aggregation key and table label ("n=16,f=2"); trials with equal group
  /// are summarized together.
  std::string group;
  /// Network seed (node-private randomness derives from it).
  std::uint64_t seed = 1;

  std::function<graph::Graph()> graphFactory;
  std::function<sim::Algorithm(const graph::Graph&)> algoFactory;
  /// Optional; null means fault-free.  Called once per trial so stateful
  /// strategies (view logs, budgets) start fresh.
  std::function<std::unique_ptr<adv::Adversary>(const graph::Graph&)>
      adversaryFactory;

  sim::NetworkOptions net;
  /// Optional message-plane factory (e.g. a net::UdpPlane bound to the
  /// process transport); invoked fresh per trial and installed as
  /// net.planeImpl.  Null means the in-process arena plane.
  std::function<std::shared_ptr<sim::MessagePlane>(const graph::Graph&)>
      planeFactory;
  /// Expected outputs fingerprint; when set, TrialResult::ok reports the
  /// comparison (otherwise ok stays true).
  std::optional<std::uint64_t> expect;

  /// Optional post-run hook, invoked on the worker thread that ran the
  /// trial, before the result is returned.  Deposit bench-specific metrics
  /// into TrialResult::extra; do NOT touch state shared across trials.
  /// Only runs on success -- a trial that degrades with a plane error has
  /// no Network to observe.
  std::function<void(const sim::Network&, const adv::Adversary*,
                     TrialResult&)>
      observe;
  /// Optional completion hook, invoked on the worker thread for EVERY
  /// outcome -- success, fingerprint mismatch, or plane-error degradation
  /// -- right before the result is returned.  The campaign runner streams
  /// its JSONL record from here so transport failures still leave a
  /// structured per-trial line.
  std::function<void(TrialResult&)> onComplete;
};

struct TrialResult {
  std::string group;
  std::uint64_t seed = 0;
  int rounds = 0;             // rounds actually executed
  long normalizedRounds = 0;  // rounds x maxWords (honest CONGEST cost)
  long messages = 0;
  long maxCongestion = 0;
  std::size_t maxWords = 0;
  long corruptions = 0;  // CorruptionLedger::total()
  std::uint64_t fingerprint = 0;
  bool ok = true;  // fingerprint == expect (true when expect unset) AND no
                   // plane error
  /// Structured message-plane failure (sim::PlaneError text): transport
  /// retry budget exhausted, round-barrier timeout.  Empty on success.
  /// Campaign JSONL surfaces this as the "error" field.
  std::string error;
  /// False on a partitioned plane's replica ranks: the trial's accounting
  /// was shipped to the owning rank and this result must not be recorded.
  bool record = true;
  double wallMs = 0.0;
  /// Process peak resident set (KB, getrusage ru_maxrss) sampled when the
  /// trial finished -- a process-lifetime high-water mark recorded per
  /// trial so campaign JSONL charts the sweep's memory trajectory.
  long peakRssKb = 0;
  /// World-summed transport tallies from the message plane's merge
  /// (perfect-link retransmit/dedup, lossy injections, barrier wait).
  /// present only on a real multi-process plane; structural -- carried
  /// even when obs is compiled out.
  sim::TransportStats transport;
  /// Bench-specific metrics deposited by TrialSpec::observe, plus -- when
  /// obs::enabled() -- the engine's per-phase wall-time split
  /// ("t_<phase>_ms", see sim::Network::phaseMillis()).
  std::map<std::string, double> extra;
};

/// Runs one trial synchronously on the calling thread.
[[nodiscard]] TrialResult runTrial(const TrialSpec& spec);

struct DriverOptions {
  /// Trial-level lanes.  1 = sequential; results are identical either way.
  int numThreads = 1;
};

/// Fans a grid of specs over a thread pool; results come back in spec
/// order.  The driver owns its pool, so build it once per bench and reuse
/// it across sections.
class ExperimentDriver {
 public:
  explicit ExperimentDriver(DriverOptions opts = {});
  ~ExperimentDriver();

  [[nodiscard]] int numThreads() const { return opts_.numThreads; }

  [[nodiscard]] std::vector<TrialResult> runAll(
      const std::vector<TrialSpec>& specs);

 private:
  DriverOptions opts_;
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Distribution of one metric across a group's trials.
struct MetricSummary {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct GroupSummary {
  std::string group;
  std::size_t trials = 0;
  std::size_t okCount = 0;  // trials whose fingerprint matched expect
  MetricSummary rounds;
  MetricSummary normalizedRounds;
  MetricSummary messages;
  MetricSummary maxCongestion;
  MetricSummary corruptions;
  MetricSummary wallMs;
  /// Observe-hook metrics, summarized per key over the trials that
  /// reported that key.
  std::map<std::string, MetricSummary> extra;
};

[[nodiscard]] MetricSummary summarizeMetric(std::vector<double> xs);

/// Groups results by TrialSpec::group (first-seen order preserved).
[[nodiscard]] std::vector<GroupSummary> aggregate(
    const std::vector<TrialResult>& results);

/// "group | trials | ok | rounds (mean+-sd) | norm rounds | messages |
///  congestion | corruptions | ms/trial" -- the standard sweep table.
[[nodiscard]] util::Table summaryTable(const std::vector<GroupSummary>& groups);

/// One CSV row per trial (header included): the raw sweep record.
void writeTrialsCsv(std::ostream& os, const std::vector<TrialResult>& results);

/// JSON object {"bench": ..., "groups": [...]} feeding the BENCH_*.json
/// perf trajectory.
void writeSummariesJson(std::ostream& os, const std::string& bench,
                        const std::vector<GroupSummary>& groups);

}  // namespace mobile::exp
