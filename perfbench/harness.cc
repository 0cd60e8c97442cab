// perfbench_harness: one workload run of the mobile-congest benchmark, in
// its own process.
//
//   perfbench_harness --lanes N [--trace] [--corrupt-reference] < points
//
// stdin holds the workload's concrete campaign points, one
// "key=value ..." line each, as perfbench/run.py generated them from its
// seed.  The harness drives them through the library's public layer
// entry points and times every call from the outside:
//
//   set-up  scn::TrialBuilder::build per point (the graphs() and
//           compilers() registry factories are wrapped to time the graph
//           and compile layers inside it), the benchmark's own reference
//           (the uncompiled payload run fault-free through
//           sim::faultFreeFingerprint on the same generated graph), and
//           one sim::Network construction per point;
//   trials  exp::ExperimentDriver::runAll over N trial lanes, each trial
//           judged against the benchmark's reference, never the
//           program's own expectation.
//
// --trace turns on the obs layer (metrics, per-phase engine timing and
// the span tracer), snapshots the obs registry just before and just after
// the trial phase so its counts cover the trials alone, and replays two
// kernels at the fixed shapes below.
// --corrupt-reference flips a bit of every reference; the outputs check
// must then report every trial failed (perfbench/selftest.py).
//
// The result is one JSON object on stdout.  The process exits 0 whenever
// it printed one; outcome and correctness are in the object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/ecc_broadcast.h"
#include "compile/keypool.h"
#include "exp/experiment.h"
#include "exp/precompute_cache.h"
#include "gf/slab.h"
#include "obs/obs.h"
#include "scn/registry.h"
#include "scn/scenario.h"
#include "sim/network.h"
#include "util/rng.h"

using namespace mobile;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Current resident set in MB (/proc/self/statm), for construction deltas.
double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

long peakRssKb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

/// Nanoseconds spent inside wrapped registry factories.  Atomic because
/// trial lanes call the compile factory concurrently.
std::atomic<std::int64_t> g_graphNs{0};
std::atomic<std::int64_t> g_compileNs{0};
std::atomic<std::int64_t> g_graphArcs{0};

std::int64_t nsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Replaces every graph and compiler factory with a timing wrapper around
/// the original, so the layers are timed at their public boundary.
void wrapRegistries() {
  auto& graphs = scn::graphs();
  const auto graphEntries = graphs.entries();
  for (const auto& entry : graphEntries) {
    graphs.add(entry.name, entry.help,
               [fn = entry.fn](const scn::Params& p) {
                 const auto t0 = Clock::now();
                 graph::Graph g = fn(p);
                 g_graphNs += nsSince(t0);
                 g_graphArcs += static_cast<std::int64_t>(g.arcCount());
                 return g;
               });
  }
  auto& compilers = scn::compilers();
  const auto compilerEntries = compilers.entries();
  for (const auto& entry : compilerEntries) {
    compilers.add(entry.name, entry.help,
                  [fn = entry.fn](const graph::Graph& g,
                                  const sim::Algorithm& inner,
                                  const scn::Params& p) {
                    const auto t0 = Clock::now();
                    sim::Algorithm a = fn(g, inner, p);
                    g_compileNs += nsSince(t0);
                    return a;
                  });
  }
}

/// One JSON object, written key by key, numbers at full precision.
class JsonOut {
 public:
  JsonOut() {
    os_ << std::setprecision(std::numeric_limits<double>::max_digits10);
  }
  void num(const char* key, double v) {
    sep();
    os_ << '"' << key << "\": " << v;
  }
  void str(const char* key, const std::string& v) {
    sep();
    os_ << '"' << key << "\": \"";
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }
  void boolean(const char* key, bool v) {
    sep();
    os_ << '"' << key << "\": " << (v ? "true" : "false");
  }
  void list(const char* key, const std::vector<double>& xs) {
    sep();
    os_ << '"' << key << "\": [";
    for (std::size_t i = 0; i < xs.size(); ++i)
      os_ << (i ? ", " : "") << xs[i];
    os_ << ']';
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void sep() {
    os_ << (first_ ? "{" : ", ");
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// Kernel replay shapes, the same on every workload and seed so their
// times compare across runs.  ECC: byz_attack's DmCodec chunk shape (k=16
// trees, dmcap 2f+8=12 keys, f=2 corrupted shares per chunk), 1000 calls.
// KeyPool: eaves_keypool's sum payload (r=21 simulated rounds, t=r, 2
// words per round), one extract per directed arc of its n=1000 d=8 graph.
constexpr int kEccTrees = 16;
constexpr int kEccDmCap = 12;
constexpr int kEccCorrupted = 2;
constexpr int kEccCalls = 1000;
constexpr int kPoolRounds = 21;
constexpr int kPoolT = 21;
constexpr int kPoolWords = 2;
constexpr int kPoolCalls = 8000;

struct EccReplay {
  double encodeMs = 0.0;
  double decodeMs = 0.0;
  bool ok = true;
};

/// DmCodec round trips at a fixed chunk shape: `calls` encodes, then
/// `calls` decodes of the same codeword with `f` shares of every chunk
/// corrupted.  Every decode must recover the keys.
EccReplay replayEcc(int k, int dmCap, int f, int calls) {
  const compile::DmCodec codec(k, dmCap);
  util::Rng rng(1);
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(dmCap));
  for (auto& key : keys) key = rng.next() & ((1ULL << 61) - 1);

  EccReplay r;
  std::vector<std::vector<gf::F16>> shares;
  auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) shares = codec.encode(keys);
  r.encodeMs = msSince(t0);

  for (auto& chunk : shares) {
    const std::size_t first = rng.next() % chunk.size();
    for (int j = 0; j < f; ++j) {
      auto& s = chunk[(first + static_cast<std::size_t>(j)) % chunk.size()];
      s = gf::F16(static_cast<std::uint16_t>(s.value() ^ 0x5a5a));
    }
  }
  t0 = Clock::now();
  for (int i = 0; i < calls; ++i)
    if (codec.decode(shares) != keys) r.ok = false;
  r.decodeMs = msSince(t0);
  return r;
}

struct KeyPoolReplay {
  double extractMs = 0.0;
  bool ok = true;
};

/// `calls` KeyPool::extract calls on fresh (r+t)*w-word inputs.  The
/// extractor is linear over GF(2^16), whose addition is xor, so
/// extract(a ^ b) == extract(a) ^ extract(b) checks the outputs.
KeyPoolReplay replayKeyPool(int r, int t, int w, int calls) {
  const compile::KeyPool pool(r, t, w);
  util::Rng rng(1);
  const auto len = static_cast<std::size_t>((r + t) * w);
  std::vector<std::vector<std::uint64_t>> inputs(
      static_cast<std::size_t>(calls), std::vector<std::uint64_t>(len));
  for (auto& in : inputs)
    for (auto& word : in) word = rng.next();

  KeyPoolReplay out;
  std::vector<std::vector<std::uint64_t>> keys(inputs.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    keys[i] = pool.extract(inputs[i]);
  out.extractMs = msSince(t0);

  if (inputs.size() >= 2) {
    std::vector<std::uint64_t> sum(len);
    for (std::size_t j = 0; j < len; ++j) sum[j] = inputs[0][j] ^ inputs[1][j];
    const auto keySum = pool.extract(sum);
    for (std::size_t j = 0; j < keySum.size(); ++j)
      if (keySum[j] != (keys[0][j] ^ keys[1][j])) out.ok = false;
  }
  return out;
}

std::uint64_t counterOf(const obs::RegistrySnapshot& s, const char* name) {
  for (const auto& m : s.counters)
    if (m.name == name) return m.value;
  return 0;
}

std::uint64_t gaugeOf(const obs::RegistrySnapshot& s, const char* name) {
  for (const auto& m : s.gauges)
    if (m.name == name) return m.value;
  return 0;
}

int run(int argc, char** argv) {
  int lanes = 1;
  bool trace = false;
  bool corruptReference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--lanes" && hasValue) {
      lanes = std::stoi(argv[++i]);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--corrupt-reference") {
      corruptReference = true;
    } else {
      std::cerr << "perfbench_harness: unknown argument '" << a << "'\n";
      return 2;
    }
  }

  std::vector<scn::Params> points;
  for (std::string line; std::getline(std::cin, line);)
    if (line.find('=') != std::string::npos)
      points.push_back(scn::Params::fromTokens(line));
  if (points.empty()) {
    std::cerr << "perfbench_harness: no points on stdin\n";
    return 2;
  }

  wrapRegistries();
  if (trace) {
    obs::setEnabled(true);
    obs::tracer().start(obs::kDefaultTraceEvents);
  }

  // ---- set-up --------------------------------------------------------------
  const auto tWall = Clock::now();
  scn::TrialBuilder builder;
  std::vector<exp::TrialSpec> specs;
  std::vector<std::uint64_t> references;
  std::vector<double> nodes;
  std::vector<double> arcs;
  double buildMs = 0.0;
  double compileMs = 0.0;
  double expectMs = 0.0;
  double constructMs = 0.0;
  double constructRssMb = 0.0;
  for (const auto& point : points) {
    const std::int64_t compileNs0 = g_compileNs.load();
    auto t0 = Clock::now();
    exp::TrialSpec spec = builder.build(point, point.canonical());
    buildMs += msSince(t0);
    compileMs += static_cast<double>(g_compileNs.load() - compileNs0) / 1e6;

    const graph::Graph g = spec.graphFactory();
    scn::Params payloadParams = point;
    t0 = Clock::now();
    const sim::Algorithm payload = scn::algos().get(payloadParams.str(
        "algo", "gossip"))(g, payloadParams);
    std::uint64_t reference = sim::faultFreeFingerprint(g, payload, 1);
    expectMs += msSince(t0);
    if (corruptReference) reference ^= 1;

    const sim::Algorithm compiled = spec.algoFactory(g);
    const double rss0 = currentRssMb();
    t0 = Clock::now();
    {
      const sim::Network probe(g, compiled, spec.seed, nullptr, spec.net);
      constructMs += msSince(t0);
      constructRssMb += currentRssMb() - rss0;
    }

    spec.expect = reference;
    spec.observe = [](const sim::Network& net, const adv::Adversary*,
                      exp::TrialResult& r) {
      r.extra["snapshot_words"] =
          static_cast<double>(net.adversarySnapshotWords());
    };
    specs.push_back(std::move(spec));
    references.push_back(reference);
    nodes.push_back(static_cast<double>(g.nodeCount()));
    arcs.push_back(static_cast<double>(g.arcCount()));
  }
  const double setupMs = msSince(tWall);
  const obs::RegistrySnapshot before = obs::registry().snapshot();

  // ---- trials --------------------------------------------------------------
  exp::ExperimentDriver driver(exp::DriverOptions{lanes});
  const auto tTrials = Clock::now();
  const std::vector<exp::TrialResult> results = driver.runAll(specs);
  const double trialsMs = msSince(tTrials);
  const double wallMs = msSince(tWall);
  const obs::RegistrySnapshot after = obs::registry().snapshot();

  long failed = 0;
  double compiledRounds = 0.0;
  double maxCongestion = 0.0;
  double messages = 0.0;
  double nodeRounds = 0.0;
  double arcRounds = 0.0;
  double maxWords = 0.0;
  double corruptions = 0.0;
  double snapshotWords = 0.0;
  std::vector<double> trialMs;
  std::map<std::string, double> phaseMs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::TrialResult& r = results[i];
    if (!r.ok || !r.error.empty() || r.fingerprint != references[i]) ++failed;
    compiledRounds += r.rounds;
    maxCongestion =
        std::max(maxCongestion, static_cast<double>(r.maxCongestion));
    messages += static_cast<double>(r.messages);
    nodeRounds += nodes[i] * r.rounds;
    arcRounds += arcs[i] * r.rounds;
    maxWords = std::max(maxWords, static_cast<double>(r.maxWords));
    corruptions += static_cast<double>(r.corruptions);
    trialMs.push_back(r.wallMs);
    for (const auto& [key, value] : r.extra)
      if (key == "snapshot_words")
        snapshotWords += value;
      else
        phaseMs[key] += value;
  }

  JsonOut out;
  out.num("attempted", static_cast<double>(results.size()));
  out.num("failed", static_cast<double>(failed));
  out.num("setup_ms", setupMs);
  out.num("trials_ms", trialsMs);
  out.num("wall_ms", wallMs);
  out.list("trial_ms", trialMs);
  out.num("lanes", driver.numThreads());
  out.num("node_rounds", nodeRounds);
  out.num("arc_rounds", arcRounds);
  out.num("compiled_rounds", compiledRounds);
  out.num("max_congestion", maxCongestion);
  out.num("messages", messages);
  out.num("max_words", maxWords);
  out.num("corruptions", corruptions);
  out.num("snapshot_words", snapshotWords);
  out.num("peak_rss_kb", static_cast<double>(peakRssKb()));
  out.num("scn_build_ms", buildMs);
  out.num("graph_build_ms", static_cast<double>(g_graphNs.load()) / 1e6);
  out.num("graph_arcs", static_cast<double>(g_graphArcs.load()));
  out.num("compile_factory_ms", compileMs);
  out.num("expect_ms", expectMs);
  out.num("expect_cache_hits",
          static_cast<double>(builder.expectCacheHits()));
  out.num("preprocess_misses",
          static_cast<double>(exp::PrecomputeCache::global().misses()));
  out.num("construct_ms", constructMs);
  out.num("construct_rss_mb", constructRssMb);
  for (const auto& [key, value] : phaseMs) out.num(key.c_str(), value);

  bool replaysOk = true;
  if (trace) {
    // Registry counts scoped to the trial phase: the set-up's reference
    // runs and construction probes are outside the two snapshots.
    out.num("registry_rounds", static_cast<double>(
                                   counterOf(after, "engine.rounds") -
                                   counterOf(before, "engine.rounds")));
    out.num("registry_messages", static_cast<double>(
                                     counterOf(after, "engine.messages") -
                                     counterOf(before, "engine.messages")));
    out.num("pk_bytes",
            static_cast<double>(gaugeOf(after, "compile.pk_bytes")));
    const EccReplay ecc =
        replayEcc(kEccTrees, kEccDmCap, kEccCorrupted, kEccCalls);
    out.num("ecc_encode_ms", ecc.encodeMs);
    out.num("ecc_decode_ms", ecc.decodeMs);
    const KeyPoolReplay pool =
        replayKeyPool(kPoolRounds, kPoolT, kPoolWords, kPoolCalls);
    out.num("keypool_extract_ms", pool.extractMs);
    replaysOk = ecc.ok && pool.ok;
    obs::tracer().stop();
  }
  out.boolean("replays_ok", replaysOk);

#if defined(MOBILE_CONGEST_OBS_BUILD)
  out.boolean("obs_compiled", true);
#else
  out.boolean("obs_compiled", false);
#endif
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("slab_tier", gf::slabTierName(gf::slabTier()));
  const char* forceScalar = std::getenv("MOBILE_CONGEST_FORCE_SCALAR");
  out.str("force_scalar", forceScalar != nullptr ? forceScalar : "");
  out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
}
