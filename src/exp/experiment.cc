#include "exp/experiment.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace mobile::exp {

namespace {

/// Process peak RSS in KB (getrusage; Linux reports ru_maxrss in KB).
long peakRssKb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

}  // namespace

TrialResult runTrial(const TrialSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const obs::TraceArg trialArgs[] = {
      {"seed", static_cast<std::int64_t>(spec.seed)}};
  const obs::Span span("exp", "trial", trialArgs, 1);

  TrialResult r;
  r.group = spec.group;
  r.seed = spec.seed;
  // A sim::PlaneError anywhere in the trial -- transport retry budget
  // exhausted, round-barrier timeout -- degrades to a structured error
  // record instead of taking down the sweep.  Anything else (logic_error
  // on a bandwidth violation, bad_alloc) still propagates: those are bugs,
  // not environment faults.
  try {
    const graph::Graph g = spec.graphFactory();
    const sim::Algorithm algo = spec.algoFactory(g);
    std::unique_ptr<adv::Adversary> adversary;
    if (spec.adversaryFactory) adversary = spec.adversaryFactory(g);

    sim::NetworkOptions netOpts = spec.net;
    if (spec.planeFactory) netOpts.planeImpl = spec.planeFactory(g);
    sim::Network net(g, algo, spec.seed, adversary.get(), netOpts);
    net.run(algo.rounds);

    r.rounds = net.roundsExecuted();
    // Merge per-engine accounting through the plane: identity on the arena
    // plane, a cross-rank splice on a partitioned one.  Replica ranks come
    // back record=false -- their numbers went to the owning rank.
    sim::TrialMerge merge;
    merge.outputs = net.outputs();
    merge.arcTraffic = net.arcTraffic();
    merge.messages = net.messagesSent();
    merge.maxWords = net.maxWordsObserved();
    merge.corruptions = net.ledger().total();
    r.record = net.plane().mergeTrial(merge);
    r.transport = merge.transport;
    r.maxWords = merge.maxWords;
    r.normalizedRounds =
        static_cast<long>(r.rounds) * static_cast<long>(std::max<std::size_t>(
                                          1, r.maxWords));
    r.messages = merge.messages;
    r.maxCongestion = sim::maxEdgeCongestionOf(g, merge.arcTraffic);
    r.corruptions = merge.corruptions;
    r.fingerprint = sim::fingerprintOutputs(merge.outputs);
    r.ok = !spec.expect || r.fingerprint == *spec.expect;
    if (obs::enabled()) {
      // Per-trial metric snapshot: the engine's phase wall-time split and
      // the share of node-rounds that ran (the wake schedule's activity)
      // ride TrialResult::extra into the campaign JSONL line.
      const auto& ms = net.phaseMillis();
      for (std::size_t i = 0; i < sim::Network::kPhaseCount; ++i)
        r.extra[std::string("t_") + sim::Network::kPhaseNames[i] + "_ms"] =
            ms[i];
      const double nodeRounds =
          static_cast<double>(net.plane().localNodeHi() -
                              net.plane().localNodeLo()) *
          static_cast<double>(r.rounds);
      r.extra["node_wake_share"] =
          nodeRounds > 0.0 ? static_cast<double>(net.nodeRuns()) / nodeRounds
                           : 0.0;
    }
    if (spec.observe) spec.observe(net, adversary.get(), r);
  } catch (const sim::PlaneError& e) {
    r.ok = false;
    r.error = e.what();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.peakRssKb = peakRssKb();
  if (spec.onComplete) spec.onComplete(r);
  return r;
}

ExperimentDriver::ExperimentDriver(DriverOptions opts) : opts_(opts) {
  opts_.numThreads = std::max(1, opts_.numThreads);
  if (opts_.numThreads > 1)
    pool_ = std::make_unique<util::ThreadPool>(opts_.numThreads);
}

ExperimentDriver::~ExperimentDriver() = default;

std::vector<TrialResult> ExperimentDriver::runAll(
    const std::vector<TrialSpec>& specs) {
  std::vector<TrialResult> results(specs.size());
  const auto runOne = [&](std::size_t i) { results[i] = runTrial(specs[i]); };
  if (pool_)
    pool_->parallelFor(specs.size(), runOne, /*grain=*/1);
  else
    for (std::size_t i = 0; i < specs.size(); ++i) runOne(i);
  return results;
}

MetricSummary summarizeMetric(std::vector<double> xs) {
  MetricSummary m;
  if (xs.empty()) return m;
  std::sort(xs.begin(), xs.end());
  m.min = xs.front();
  m.max = xs.back();
  const std::size_t n = xs.size();
  m.median = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  double sum = 0.0;
  for (const double x : xs) sum += x;
  m.mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (const double x : xs) var += (x - m.mean) * (x - m.mean);
  m.stddev = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  return m;
}

std::vector<GroupSummary> aggregate(const std::vector<TrialResult>& results) {
  std::vector<std::string> order;
  std::map<std::string, std::vector<const TrialResult*>> byGroup;
  for (const auto& r : results) {
    auto [it, fresh] = byGroup.try_emplace(r.group);
    if (fresh) order.push_back(r.group);
    it->second.push_back(&r);
  }

  std::vector<GroupSummary> out;
  out.reserve(order.size());
  for (const auto& group : order) {
    const auto& trials = byGroup[group];
    GroupSummary s;
    s.group = group;
    s.trials = trials.size();
    const auto collect = [&](auto proj) {
      std::vector<double> xs;
      xs.reserve(trials.size());
      for (const TrialResult* t : trials)
        xs.push_back(static_cast<double>(proj(*t)));
      return summarizeMetric(std::move(xs));
    };
    for (const TrialResult* t : trials)
      if (t->ok) ++s.okCount;
    s.rounds = collect([](const TrialResult& t) { return t.rounds; });
    s.normalizedRounds =
        collect([](const TrialResult& t) { return t.normalizedRounds; });
    s.messages = collect([](const TrialResult& t) { return t.messages; });
    s.maxCongestion =
        collect([](const TrialResult& t) { return t.maxCongestion; });
    s.corruptions =
        collect([](const TrialResult& t) { return t.corruptions; });
    s.wallMs = collect([](const TrialResult& t) { return t.wallMs; });
    for (const TrialResult* t : trials)
      for (const auto& [key, value] : t->extra) {
        (void)value;
        if (s.extra.count(key)) continue;
        std::vector<double> xs;
        for (const TrialResult* u : trials) {
          const auto it = u->extra.find(key);
          if (it != u->extra.end()) xs.push_back(it->second);
        }
        s.extra.emplace(key, summarizeMetric(std::move(xs)));
      }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {
std::string meanSd(const MetricSummary& m) {
  if (m.stddev == 0.0) return util::Table::fixed(m.mean, 1);
  return util::Table::fixed(m.mean, 1) + " +-" +
         util::Table::fixed(m.stddev, 1);
}
}  // namespace

util::Table summaryTable(const std::vector<GroupSummary>& groups) {
  util::Table table({"group", "trials", "ok", "rounds", "norm rounds",
                     "messages", "max cong", "corruptions", "ms/trial"});
  for (const auto& s : groups) {
    table.addRow({s.group,
                  util::Table::num(static_cast<std::uint64_t>(s.trials)),
                  util::Table::num(static_cast<std::uint64_t>(s.okCount)) +
                      "/" +
                      util::Table::num(static_cast<std::uint64_t>(s.trials)),
                  meanSd(s.rounds), meanSd(s.normalizedRounds),
                  meanSd(s.messages), meanSd(s.maxCongestion),
                  meanSd(s.corruptions), util::Table::fixed(s.wallMs.mean, 2)});
  }
  return table;
}

void writeTrialsCsv(std::ostream& os, const std::vector<TrialResult>& results) {
  os << "group,seed,rounds,normalized_rounds,messages,max_congestion,"
        "max_words,corruptions,fingerprint,ok,wall_ms,extra\n";
  for (const auto& r : results) {
    os << '"' << r.group << "\"," << r.seed << ',' << r.rounds << ','
       << r.normalizedRounds << ',' << r.messages << ',' << r.maxCongestion
       << ',' << r.maxWords << ',' << r.corruptions << ',' << r.fingerprint
       << ',' << (r.ok ? 1 : 0) << ',' << r.wallMs << ",\"";
    bool first = true;
    for (const auto& [key, value] : r.extra) {
      if (!first) os << ';';
      first = false;
      os << key << '=' << value;
    }
    os << "\"\n";
  }
}

namespace {
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void writeMetric(std::ostream& os, const char* name, const MetricSummary& m,
                 bool trailingComma = true) {
  os << "      \"" << name << "\": {\"mean\": " << m.mean
     << ", \"median\": " << m.median << ", \"stddev\": " << m.stddev
     << ", \"min\": " << m.min << ", \"max\": " << m.max << "}"
     << (trailingComma ? "," : "") << "\n";
}
}  // namespace

void writeSummariesJson(std::ostream& os, const std::string& bench,
                        const std::vector<GroupSummary>& groups) {
  os << "{\n  \"bench\": \"" << jsonEscape(bench) << "\",\n";
  if (groups.empty()) {
    // Be explicit that this report carries no trial metrics (the bench ran
    // but is not — or not yet — wired through the ExperimentDriver), so
    // the BENCH_*.json trajectory never mistakes "listed" for "measured".
    os << "  \"note\": \"no trial-level metrics recorded\",\n";
  }
  os << "  \"groups\": [\n";
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& s = groups[i];
    os << "    {\n      \"group\": \"" << jsonEscape(s.group) << "\",\n"
       << "      \"trials\": " << s.trials << ",\n"
       << "      \"ok\": " << s.okCount << ",\n";
    writeMetric(os, "rounds", s.rounds);
    writeMetric(os, "normalized_rounds", s.normalizedRounds);
    writeMetric(os, "messages", s.messages);
    writeMetric(os, "max_congestion", s.maxCongestion);
    writeMetric(os, "corruptions", s.corruptions);
    writeMetric(os, "wall_ms", s.wallMs, /*trailingComma=*/!s.extra.empty());
    if (!s.extra.empty()) {
      os << "      \"extra\": {";
      bool first = true;
      for (const auto& [key, m] : s.extra) {
        if (!first) os << ", ";
        first = false;
        os << "\"" << jsonEscape(key) << "\": {\"mean\": " << m.mean
           << ", \"median\": " << m.median << ", \"stddev\": " << m.stddev
           << ", \"min\": " << m.min << ", \"max\": " << m.max << "}";
      }
      os << "}\n";
    }
    os << "    }" << (i + 1 < groups.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace mobile::exp
