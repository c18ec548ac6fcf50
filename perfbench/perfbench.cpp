// Repository benchmark: one process runs one workload end to end and prints
// its metrics, then one JSON line {"correct","attempted","failed","metrics"}.
//
//   perfbench --workload construct|serve_zipf|serve_churn --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--toy]
//
// Every workload runs the same pipeline on its own graph, so every workload
// reports every end-to-end metric; the workloads differ in which stage
// dominates (see README.md for the parameters and the reasons):
//
//   setup     generate G, Algorithm 1, snapshot store + query engine +
//             supervisor with a durability directory (x3, median = setup_s)
//   build     warm build_regular_spanner repetitions          -> build_s
//   certify   alpha, matching beta, general beta (Algorithm 2) -> certify_s
//   serve     closed loop of 64 outstanding submit()s          -> qps, p50/p99
//   churn     SpannerSupervisor::step waves, WAL + checkpoints -> wave_ms
//   recover   crash, then SpannerSupervisor::recover per copy  -> recover_s
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same pipeline
// inside an obs::Trace session, wraps each public call in a benchmark span,
// folds those and the library's own DCS_TRACE_SPANs into per-layer self
// times, and prints the per-layer metrics instead.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/regular_spanner.hpp"
#include "core/router.hpp"
#include "core/verifier.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "resilience/churn_engine.hpp"
#include "resilience/supervisor.hpp"
#include "routing/shortest_paths.hpp"
#include "routing/workloads.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

#ifndef DCS_BENCH_BUILD_TYPE
#define DCS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dcs;
namespace fs = std::filesystem;
using serve::Query;
using serve::QueryEngine;
using serve::QueryKind;
using serve::QueryOutcome;
using serve::QueryResult;

// ---------------------------------------------------------------------------
// Workload parameters

struct Workload {
  const char* name;
  // The default --seed, and the seed of the deployment: G =
  // random_regular(n, delta) and the served spanner are fixed per workload,
  // while --seed drives everything random in the measured stages (build
  // repetitions, certification problems, queries, churn). Drawing a new G
  // per run added seed-to-seed spread without measuring anything the
  // workload is about.
  std::uint64_t fixed_seed;
  std::size_t n;
  std::size_t delta;
  // Build, certify and (read-only workloads) serve run interleaved in
  // `rounds` rounds, so each timed metric samples the whole run: on a shared
  // host, speed drifts over seconds.
  std::size_t rounds;
  // build: repetitions for build_share * seconds in total.
  double build_share;
  // certify stage: fixed pass count; each pass certifies alpha once, beta
  // on `matchings` random matchings, and beta on one of `base_routings`
  // routings of n random pairs on G (passes cycle over them with fresh
  // router seeds, since routing on G costs more than certifying).
  std::size_t cert_passes;
  std::size_t base_routings;
  std::size_t matchings;
  // serve: Zipf(1.0) or uniform BFS endpoints, 25% route queries. Rates and
  // latency percentiles are medians over slices of the stream: one slice
  // per round, or with concurrent churn one per inter-wave interval.
  bool zipf;
  double serve_share;  // time-based, in total; 0 = paced by churn waves
  // churn stage: waves (concurrent with serving when serve_share == 0).
  std::size_t waves;
  std::size_t checkpoint_interval;
  double edge_churn;
  double vertex_churn;
  std::size_t queries_per_wave;  // pacing of concurrent churn
  std::size_t recover_copies;
};

// The three workloads at full size, and at toy size for the smoke run.
Workload workload_by_name(const std::string& name, bool toy) {
  static const Workload kFull[] = {
      {"construct", 1, 4096, 256, 8, 0.25, 16, 8, 8, false, 0.25, 11, 5,
       0.0002, 0.00002, 0, 5},
      {"serve_zipf", 2, 2048, 162, 12, 0.15, 12, 12, 16, true, 0.60, 9, 4,
       0.0005, 0.00005, 0, 5},
      {"serve_churn", 3, 4096, 16, 8, 0.10, 16, 4, 16, false, 0.0, 34, 16,
       0.02, 0.002, 1600, 9},
  };
  static const Workload kToy[] = {
      {"construct", 1, 256, 40, 2, 0.05, 2, 1, 2, false, 0.05, 3, 2, 0.002,
       0.0002, 0, 2},
      {"serve_zipf", 2, 256, 40, 2, 0.05, 2, 1, 2, true, 0.10, 3, 2, 0.002,
       0.0002, 0, 2},
      {"serve_churn", 3, 256, 8, 2, 0.05, 2, 1, 2, false, 0.0, 6, 4, 0.02,
       0.002, 200, 2},
  };
  for (const Workload& w : toy ? kToy : kFull) {
    if (name == w.name) return w;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

constexpr std::size_t kOutstanding = 64;  // closed-loop virtual clients
constexpr double kRouteFraction = 0.25;
constexpr std::size_t kSetupReps = 3;
constexpr double kWarmupShare = 0.05;  // of --seconds, per engine
constexpr std::size_t kCheckEvery = 8;  // sampled answer checks (uniform)

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::uintmax_t dir_bytes(const fs::path& dir, const std::string& prefix) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

std::uintmax_t newest_bytes(const fs::path& dir, const std::string& prefix) {
  std::string newest;
  std::uintmax_t size = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name > newest) {
      newest = name;
      size = entry.file_size();
    }
  }
  return size;
}

// ---------------------------------------------------------------------------
// Results and gates

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Tracing: the session accumulates events across on/off toggles (a fresh
// obs::Trace::start() clears), and folds them into per-name self times.

class TraceLog {
 public:
  explicit TraceLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void on() {
    if (enabled_ && !obs::Trace::active()) obs::Trace::start();
  }
  void off() {
    if (!enabled_ || !obs::Trace::active()) return;
    obs::Trace::stop();
    const auto events = obs::Trace::events();
    events_.insert(events_.end(), events.begin(), events.end());
  }
  double now_us() const { return obs::Trace::now_us(); }

  using Window = std::pair<double, double>;  // [from_us, to_us)

  /// Self time (span duration minus what its direct children on the same
  /// thread cover), summed per span name, over spans that start inside one
  /// of `windows`. Request exemplar chains (req*) are recorded after the
  /// fact on another thread's timeline and are left out.
  std::map<std::string, double> self_ms(
      const std::vector<Window>& windows) const {
    std::vector<obs::TraceEvent> ev;
    for (const auto& e : events_) {
      const bool inside = std::any_of(
          windows.begin(), windows.end(), [&](const Window& win) {
            return e.ts_us >= win.first && e.ts_us < win.second;
          });
      if (inside && std::strncmp(e.name, "req", 3) != 0) ev.push_back(e);
    }
    std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
      return a.dur_us > b.dur_us;
    });
    std::vector<double> child(ev.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      while (!stack.empty()) {
        const auto& top = ev[stack.back()];
        if (top.tid == ev[i].tid && ev[i].ts_us < top.ts_us + top.dur_us) {
          break;
        }
        stack.pop_back();
      }
      if (!stack.empty()) child[stack.back()] += ev[i].dur_us;
      stack.push_back(i);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      out[ev[i].name] += std::max(0.0, ev[i].dur_us - child[i]) / 1e3;
    }
    return out;
  }

 private:
  bool enabled_;
  std::vector<obs::TraceEvent> events_;
};

double get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// The deployment: everything setup builds. Members are destroyed in reverse
// order, so the engine stops before the store it serves from goes away.

struct Deployment {
  Graph g;
  RegularSpannerResult built;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<persist::DurabilityManager> durability;
  std::unique_ptr<SpannerSupervisor> supervisor;
  std::unique_ptr<QueryEngine> engine;
};

SupervisorOptions supervisor_options(const Workload& w) {
  SupervisorOptions options;
  options.checkpoint_interval = w.checkpoint_interval;
  return options;
}

RegularSpannerOptions spanner_options(std::uint64_t seed) {
  RegularSpannerOptions options;
  options.seed = seed;
  return options;
}

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
  double checkpoint_ms = 0.0;
};

std::unique_ptr<Deployment> set_up(const Workload& w, std::uint64_t seed,
                                   const fs::path& state_dir, bool exemplars,
                                   SetupTimes& times) {
  Timer total;
  auto d = std::make_unique<Deployment>();
  {
    DCS_TRACE_SPAN("bench.generate");
    Timer t;
    d->g = random_regular(w.n, w.delta, mix64(w.fixed_seed, 1));
    times.generate_s = t.seconds();
  }
  {
    DCS_TRACE_SPAN("bench.setup_build");
    d->built =
        build_regular_spanner(d->g, spanner_options(mix64(w.fixed_seed, 2)));
  }
  DCS_TRACE_SPAN("bench.serving_state");
  const Graph& h = d->built.spanner.h;
  d->store = std::make_unique<serve::SnapshotStore>(d->g, h);
  fs::remove_all(state_dir);
  d->durability =
      std::make_unique<persist::DurabilityManager>(state_dir.string());
  d->supervisor =
      std::make_unique<SpannerSupervisor>(d->g, h, supervisor_options(w));
  d->supervisor->attach_snapshots(d->store.get());
  d->supervisor->attach_durability(d->durability.get());
  Timer ckpt;
  const bool checkpointed = d->supervisor->checkpoint_now();
  times.checkpoint_ms = ckpt.millis();
  if (!checkpointed) {
    std::fprintf(stderr, "genesis checkpoint failed: %s\n",
                 d->durability->last_error().c_str());
    std::exit(1);
  }
  serve::ServeOptions options;
  options.seed = mix64(seed, 3);
  options.trace.exemplars = exemplars;
  d->engine = std::make_unique<QueryEngine>(*d->store, options);
  d->engine->start();
  times.total_s = total.seconds();
  return d;
}

// ---------------------------------------------------------------------------
// Query generation and the closed loop

class QueryGen {
 public:
  /// `hot_seed` fixes which vertices are hot (shared by every stream of a
  /// run); `stream_seed` draws the queries.
  QueryGen(const Workload& w, std::uint64_t hot_seed, std::uint64_t stream_seed)
      : n_(w.n), rng_(stream_seed) {
    if (!w.zipf) return;
    // Zipf(s = 1.0) ranks over a seeded permutation of the vertices.
    perm_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) perm_[i] = static_cast<Vertex>(i);
    Rng perm_rng(hot_seed);
    perm_rng.shuffle(perm_);
    cdf_.resize(n_);
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  /// The BFS endpoint (u of a distance query, v of a route query) is the
  /// Zipf or uniform draw; the other endpoint is uniform and distinct.
  Query next() {
    Query q;
    const bool route = rng_.bernoulli(kRouteFraction);
    q.kind = route ? QueryKind::kRoute : QueryKind::kDistance;
    Vertex hot = 0;
    if (perm_.empty()) {
      hot = static_cast<Vertex>(rng_.uniform(n_));
    } else {
      const double x = rng_.uniform_double();
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
      hot = perm_[std::min<std::size_t>(it - cdf_.begin(), n_ - 1)];
    }
    Vertex other = hot;
    while (other == hot) other = static_cast<Vertex>(rng_.uniform(n_));
    q.u = route ? other : hot;
    q.v = route ? hot : other;
    return q;
  }

 private:
  std::size_t n_;
  Rng rng_;
  std::vector<Vertex> perm_;
  std::vector<double> cdf_;
};

struct LoopResult {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  double seconds = 0.0;
  // Per completed query, in completion order.
  std::vector<double> latency_us;
  std::vector<double> done_s;  // completion time since the loop started
  std::vector<std::uint8_t> served_flag;
  // Per served query.
  std::vector<double> execute_us;
  std::vector<double> row_fill_us;  // route queries
  std::vector<double> queue_us;
  std::vector<double> dispatch_us;
};

using Observer = std::function<void(const Query&, const QueryResult&)>;

/// One generator thread keeping kOutstanding submit()s in flight. `stop`
/// is asked before each new submit; `on_result` sees every completed query
/// with its result. Latency runs from just before submit() to the moment
/// the generator holds the result.
LoopResult closed_loop(
    QueryEngine& engine, QueryGen& gen,
    const std::function<bool(std::uint64_t completed, double elapsed)>& stop,
    const Observer& on_result) {
  using Clock = std::chrono::steady_clock;
  struct Slot {
    Query query;
    Clock::time_point t0;
    std::future<QueryResult> result;
  };
  LoopResult out;
  std::vector<Slot> slots(kOutstanding);
  const auto start = Clock::now();
  auto submit = [&](Slot& slot) {
    slot.query = gen.next();
    slot.t0 = Clock::now();
    slot.result = engine.submit(slot.query);
    ++out.submitted;
  };
  for (Slot& slot : slots) submit(slot);
  std::uint64_t completed = 0;
  std::size_t live = slots.size();
  for (std::size_t i = 0; live > 0; i = (i + 1) % slots.size()) {
    Slot& slot = slots[i];
    if (!slot.result.valid()) continue;
    const QueryResult r = slot.result.get();
    const auto t1 = Clock::now();
    ++completed;
    out.latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - slot.t0).count());
    const double elapsed =
        std::chrono::duration<double>(t1 - start).count();
    out.done_s.push_back(elapsed);
    out.served_flag.push_back(r.outcome == QueryOutcome::kServed);
    if (r.outcome == QueryOutcome::kServed) {
      ++out.served;
      out.execute_us.push_back(r.breakdown.execute_us);
      out.queue_us.push_back(r.breakdown.queue_us);
      out.dispatch_us.push_back(r.breakdown.dispatch_us);
      if (slot.query.kind == QueryKind::kRoute) {
        out.row_fill_us.push_back(r.breakdown.row_fill_us);
      }
    }
    on_result(slot.query, r);
    if (stop(completed, elapsed)) {
      --live;
    } else {
      submit(slot);
    }
  }
  out.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

/// Brings an engine to steady state before timing. On a read-only workload
/// one route query to every destination first fills every lazy route row
/// (rows live until the epoch changes, so without this the timed window
/// would ramp up as they fill); then a window of the workload's own
/// queries warms the distance-row cache.
void warm_up(QueryEngine& engine, const Workload& w, QueryGen& gen,
             double seconds, const Observer& observe) {
  if (w.serve_share > 0.0) {
    std::vector<Query> queries;
    std::vector<std::future<QueryResult>> results;
    for (std::size_t v = 0; v < w.n; ++v) {
      Query q;
      q.kind = QueryKind::kRoute;
      q.u = static_cast<Vertex>((v + 1) % w.n);
      q.v = static_cast<Vertex>(v);
      queries.push_back(q);
      results.push_back(engine.submit(q));
      if (results.size() == kOutstanding || v + 1 == w.n) {
        for (std::size_t i = 0; i < results.size(); ++i) {
          observe(queries[i], results[i].get());
        }
        queries.clear();
        results.clear();
      }
    }
  }
  closed_loop(
      engine, gen,
      [&](std::uint64_t, double elapsed) { return elapsed >= seconds; },
      observe);
}

struct SliceStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Served rate and latency percentiles of completions [begin, end).
SliceStats slice_stats(const LoopResult& r, std::size_t begin,
                       std::size_t end) {
  const double t0 = begin == 0 ? 0.0 : r.done_s[begin - 1];
  const double span = r.done_s[end - 1] - t0;
  const std::vector<double> lat(r.latency_us.begin() + begin,
                                r.latency_us.begin() + end);
  double served = 0.0;
  for (std::size_t i = begin; i < end; ++i) served += r.served_flag[i];
  return {span > 0.0 ? served / span : 0.0, percentile(lat, 0.50),
          percentile(lat, 0.99)};
}

/// Appends the per-served-query breakdowns of `from` to `into`.
void append(LoopResult& into, const LoopResult& from) {
  into.submitted += from.submitted;
  into.served += from.served;
  for (auto field : {&LoopResult::execute_us, &LoopResult::row_fill_us,
                     &LoopResult::queue_us, &LoopResult::dispatch_us}) {
    (into.*field).insert((into.*field).end(), (from.*field).begin(),
                         (from.*field).end());
  }
}

// ---------------------------------------------------------------------------
// Answer checking: a served distance must equal BFS on the spanner of the
// epoch the result carries; a served route must be a path of that spanner
// from u to v whose length is that distance.

class AnswerChecker {
 public:
  /// Spanners by epoch; the churn writer pins each epoch it publishes.
  void pin(std::uint64_t epoch, serve::SnapshotRef snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    epochs_[epoch] = std::move(snapshot);
  }

  /// Precomputes every BFS row of one static spanner so that each answer
  /// is checked as it arrives (the read-only workloads).
  void precompute_rows(const Graph& h) {
    rows_.assign(h.num_vertices(), {});
    std::vector<Vertex> all(h.num_vertices());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Vertex>(i);
    batch_bfs(h, all, [&](Vertex s, const std::vector<Dist>& dist) {
      rows_[s] = dist;
    });
    static_h_ = &h;
  }

  /// Checks now (precomputed rows) or keeps a sample for check_samples().
  void observe(const Query& q, const QueryResult& r) {
    if (r.outcome != QueryOutcome::kServed) return;
    if (static_h_ != nullptr) {
      ++checked_;
      const Vertex src = q.kind == QueryKind::kDistance ? q.u : q.v;
      const Vertex dst = q.kind == QueryKind::kDistance ? q.v : q.u;
      if (!consistent(*static_h_, q, r, rows_[src][dst])) ++wrong_;
      return;
    }
    if (++seen_ % kCheckEvery == 0) samples_.push_back({q, r});
  }

  /// Verifies the kept samples against BFS on their epoch's spanner.
  void check_samples() {
    std::sort(samples_.begin(), samples_.end(),
              [](const auto& a, const auto& b) {
                return std::make_pair(a.second.epoch, bfs_source(a.first)) <
                       std::make_pair(b.second.epoch, bfs_source(b.first));
              });
    std::vector<Dist> row;
    std::uint64_t row_epoch = 0;
    Vertex row_source = kInvalidVertex;
    for (const auto& [q, r] : samples_) {
      ++checked_;
      const auto it = epochs_.find(r.epoch);
      if (it == epochs_.end()) {
        ++wrong_;  // served under an epoch nobody published
        continue;
      }
      const Graph& h = it->second->spanner;
      if (r.epoch != row_epoch || bfs_source(q) != row_source) {
        row = bfs_distances(h, bfs_source(q));
        row_epoch = r.epoch;
        row_source = bfs_source(q);
      }
      const Vertex other = q.kind == QueryKind::kDistance ? q.v : q.u;
      if (!consistent(h, q, r, row[other])) ++wrong_;
    }
    samples_.clear();
  }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t wrong() const { return wrong_; }

 private:
  static Vertex bfs_source(const Query& q) {
    return q.kind == QueryKind::kDistance ? q.u : q.v;
  }

  static bool consistent(const Graph& h, const Query& q, const QueryResult& r,
                         Dist expected) {
    if (r.distance != expected) return false;
    if (q.kind == QueryKind::kDistance) return true;
    if (expected == kUnreachable) return r.path.empty();
    if (r.path.empty() || r.path.front() != q.u || r.path.back() != q.v) {
      return false;
    }
    if (path_length(r.path) != expected) return false;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (!h.has_edge(r.path[i], r.path[i + 1])) return false;
    }
    return true;
  }

  std::mutex mutex_;
  std::map<std::uint64_t, serve::SnapshotRef> epochs_;
  const Graph* static_h_ = nullptr;
  std::vector<std::vector<Dist>> rows_;
  std::vector<std::pair<Query, QueryResult>> samples_;
  std::uint64_t seen_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t wrong_ = 0;
};

// ---------------------------------------------------------------------------
// Stages

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  fs::path workdir = ".bench_build/perfbench-run";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      o.seed_given = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--toy") {
      o.toy = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--workdir DIR] [--toy]\n");
    std::exit(2);
  }
  return o;
}

int run(const Options& opt) {
  const Workload w = workload_by_name(opt.workload, opt.toy);
  const std::uint64_t seed = opt.seed_given ? opt.seed : w.fixed_seed;
  const double S = opt.seconds;
  Report rep;
  TraceLog trace(opt.trace);
  fs::create_directories(opt.workdir);
  const fs::path state_dir = opt.workdir / "state";

  std::printf("host {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
              "\"simd\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), DCS_BENCH_BUILD_TYPE,
              simd::tier_name(simd::active_tier()));
  std::printf("workload %s seed %llu seconds %g trace %d n %zu delta %zu\n",
              w.name, static_cast<unsigned long long>(seed), S,
              opt.trace ? 1 : 0, w.n, w.delta);
  std::fflush(stdout);

  // --- setup (x kSetupReps; the last deployment is kept) -------------------
  std::vector<double> setup_s, generate_s, checkpoint_ms;
  std::unique_ptr<Deployment> d;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    d.reset();
    SetupTimes times;
    d = set_up(w, seed, state_dir, opt.trace, times);
    setup_s.push_back(times.total_s);
    generate_s.push_back(times.generate_s);
    checkpoint_ms.push_back(times.checkpoint_ms);
  }
  const Graph& g = d->g;
  const Graph& h = d->built.spanner.h;
  QueryEngine& engine = *d->engine;

  AnswerChecker checker;
  checker.pin(d->store->current_epoch(), d->store->pin());
  if (w.zipf) checker.precompute_rows(h);

  // --- warm-up: one untimed build and one untimed window of queries ---------
  (void)build_regular_spanner(g, spanner_options(mix64(seed, 4)));
  const Observer observe = [&](const Query& q, const QueryResult& r) {
    checker.observe(q, r);
  };
  {
    QueryGen warm_gen(w, mix64(seed, 7), mix64(seed, 5));
    warm_up(engine, w, warm_gen, kWarmupShare * S, observe);
  }
  const serve::ServeStats warm_stats = engine.stats();

  // --- build, certify and (read-only workloads) serve, in rounds -----------
  using Window = TraceLog::Window;
  std::vector<Window> build_windows, cert_windows, serve_windows;
  std::vector<double> build_s, build_traced_s, edge_ratio;
  std::vector<double> certify_s, alpha_ms, matching_ms, general_ms,
      base_routing_s;
  double max_stretch = 0.0, matching_sum = 0.0, ch_sum = 0.0, cg_sum = 0.0;
  std::size_t matching_count = 0;
  std::vector<SliceStats> slices;
  LoopResult served_all;
  const bool concurrent_churn = w.serve_share == 0.0;

  trace.on();
  const DetourRouter router(h, d->built.sampled);
  // Certification input, not certification: the routings on G that
  // Algorithm 2 substitutes.
  std::vector<Routing> bases;
  for (std::size_t b = 0; b < w.base_routings; ++b) {
    Timer tb;
    DCS_TRACE_SPAN("bench.base_routing");
    const RoutingProblem pairs =
        random_pairs_problem(w.n, w.n, mix64(seed, 200 + b));
    bases.push_back(shortest_path_routing(g, pairs, mix64(seed, 300 + b)));
    base_routing_s.push_back(tb.seconds());
  }

  auto build_once = [&](std::size_t r) {
    // In the traced run even repetitions are traced and odd ones are not,
    // so the pair of medians gives the tracing overhead.
    const bool traced = !trace.enabled() || r % 2 == 0;
    if (!traced) trace.off();
    const double t0 = trace.now_us();
    Timer t;
    RegularSpannerResult b;
    {
      DCS_TRACE_SPAN("bench.build");
      b = build_regular_spanner(g, spanner_options(mix64(seed, 100 + r)));
    }
    const double s = t.seconds();
    if (trace.enabled() && traced) {
      build_traced_s.push_back(s);
      build_windows.push_back({t0, trace.now_us()});
    } else {
      build_s.push_back(s);
    }
    trace.on();
    edge_ratio.push_back(static_cast<double>(b.spanner.h.num_edges()) /
                         static_cast<double>(g.num_edges()));
    rep.gate(b.spanner.h.num_edges() > 0 &&
                 b.spanner.h.num_edges() <= g.num_edges(),
             "build produced an empty or oversized spanner");
  };

  auto certify_once = [&](std::size_t p) {
    const Routing& base = bases[p % bases.size()];
    const double t0 = trace.now_us();
    Timer pass;
    Timer ta;
    DistanceStretchReport stretch;
    {
      DCS_TRACE_SPAN("bench.certify_alpha");
      stretch = measure_distance_stretch(g, h);
    }
    alpha_ms.push_back(ta.millis());
    rep.gate(stretch.satisfies(3.0) && stretch.unreachable == 0,
             "distance stretch above 3 or unreachable edges");
    max_stretch = std::max(max_stretch, stretch.max_stretch);

    Timer tm;
    {
      DCS_TRACE_SPAN("bench.certify_matching");
      for (std::size_t k = 0; k < w.matchings; ++k) {
        const std::uint64_t s = mix64(seed, 400 + p * 64 + k);
        const RoutingProblem m = random_matching_problem(g, s);
        matching_sum +=
            measure_matching_congestion(g, h, m, router, mix64(s, 1))
                .congestion_stretch();
        ++matching_count;
      }
    }
    matching_ms.push_back(tm.millis());

    Timer tg;
    {
      DCS_TRACE_SPAN("bench.certify_general");
      const CongestionReport c =
          measure_general_congestion(g, h, base, router, mix64(seed, 500 + p));
      ch_sum += static_cast<double>(c.spanner_congestion);
      cg_sum += static_cast<double>(c.base_congestion);
    }
    general_ms.push_back(tg.millis());
    certify_s.push_back(pass.seconds());
    cert_windows.push_back({t0, trace.now_us()});
  };

  const serve::ServeStats before = engine.stats();
  QueryGen gen(w, mix64(seed, 7), mix64(seed, 8));
  std::size_t builds = 0, passes = 0;
  for (std::size_t round = 0; round < w.rounds; ++round) {
    Timer stage;
    do {
      build_once(builds++);
    } while (stage.seconds() < w.build_share * S / w.rounds);
    for (; passes < (round + 1) * w.cert_passes / w.rounds; ++passes) {
      certify_once(passes);
    }
    if (!concurrent_churn) {
      const double t0 = trace.now_us();
      const LoopResult slice = closed_loop(
          engine, gen,
          [&](std::uint64_t, double elapsed) {
            return elapsed >= w.serve_share * S / w.rounds;
          },
          observe);
      serve_windows.push_back({t0, trace.now_us()});
      slices.push_back(slice_stats(slice, 0, slice.latency_us.size()));
      append(served_all, slice);
    }
  }

  // --- churn: beside serving on serve_churn, after it otherwise -------------
  const SupervisorOptions sup_options = supervisor_options(w);
  ChurnEngineOptions churn;
  churn.seed = mix64(seed, 6);
  churn.edge_churn_rate = w.edge_churn;
  churn.vertex_churn_rate = w.vertex_churn;
  churn.recovery_rate = 0.3;
  ChurnEngine churn_engine(g, churn);

  std::vector<double> wave_ms, events_per_wave, debt;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> abandon_waves{false};  // the serving loop failed
  std::exception_ptr writer_error;
  auto step_waves = [&](bool paced) {
    try {
      for (std::size_t wave = 0; wave < w.waves; ++wave) {
        if (paced) {
          while (completed.load() < (wave + 1) * w.queries_per_wave) {
            if (abandon_waves.load()) return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        const auto events = churn_engine.advance();
        Timer t;
        SupervisorReport r;
        {
          DCS_TRACE_SPAN("bench.supervisor_step");
          r = d->supervisor->step(events);
        }
        wave_ms.push_back(t.millis());
        events_per_wave.push_back(static_cast<double>(r.events_applied));
        debt.push_back(static_cast<double>(r.debt));
        if (r.epoch != 0) checker.pin(r.epoch, d->store->pin());
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
    writer_done.store(true);
  };

  if (concurrent_churn) {
    const double t0 = trace.now_us();
    LoopResult loop;
    {
      std::jthread writer(step_waves, true);
      const std::uint64_t target = (w.waves + 1) * w.queries_per_wave;
      try {
        loop = closed_loop(
            engine, gen,
            [&](std::uint64_t done, double) {
              return done >= target && writer_done.load();
            },
            [&](const Query& q, const QueryResult& r) {
              completed.fetch_add(1);
              observe(q, r);
            });
      } catch (...) {
        abandon_waves.store(true);
        throw;
      }
    }
    if (writer_error) std::rethrow_exception(writer_error);
    serve_windows.push_back({t0, trace.now_us()});
    // One slice per inter-wave interval.
    const std::size_t total = loop.latency_us.size();
    const std::size_t per = total / (w.waves + 1);
    for (std::size_t c = 0; c <= w.waves; ++c) {
      slices.push_back(
          slice_stats(loop, c * per, c == w.waves ? total : (c + 1) * per));
    }
    append(served_all, loop);
  }
  const serve::ServeStats after = engine.stats();

  // Tracing overhead on serving: two fresh engines on the same store, one
  // traced (session on, request exemplars on) and one not, get the same
  // warm-up and then serve alternating read-only windows.
  std::vector<double> qps_traced, qps_plain;
  if (trace.enabled()) {
    serve::ServeOptions options;
    options.seed = mix64(seed, 3);
    QueryEngine plain(*d->store, options);
    options.trace.exemplars = true;
    QueryEngine traced(*d->store, options);
    plain.start();
    traced.start();
    QueryGen gen(w, mix64(seed, 7), mix64(seed, 9));
    for (QueryEngine* e : {&plain, &traced}) {
      warm_up(*e, w, gen, kWarmupShare * S, observe);
    }
    const double window = std::max(0.2, 0.05 * S);
    for (int k = 0; k < 6; ++k) {
      const bool on = k % 2 == 0;
      if (on) trace.on(); else trace.off();
      const LoopResult lr = closed_loop(
          on ? traced : plain, gen,
          [&](std::uint64_t, double elapsed) { return elapsed >= window; },
          observe);
      (on ? qps_traced : qps_plain)
          .push_back(static_cast<double>(lr.served) / lr.seconds);
    }
    traced.stop();
    plain.stop();
    trace.on();
  }

  engine.stop();
  const serve::ServeStats final_stats = engine.stats();
  checker.check_samples();

  const double churn_t0 = trace.now_us();
  if (!concurrent_churn) {
    step_waves(false);
    if (writer_error) std::rethrow_exception(writer_error);
  }
  const double churn_t1 = trace.now_us();

  // --- crash, then recover one fresh copy of the directory per repetition ---
  const Graph pre_crash_spanner = d->supervisor->spanner();
  const std::size_t pre_crash_debt = d->supervisor->repair_debt();
  const std::size_t repairs = d->supervisor->repairs();
  const std::size_t rebuilds = d->supervisor->rebuilds();
  const double checkpoint_bytes =
      static_cast<double>(newest_bytes(state_dir, "checkpoint-"));
  const double wal_bytes = static_cast<double>(dir_bytes(state_dir, "wal-"));
  d->engine.reset();
  d->supervisor.reset();  // crash: no flush, no final checkpoint
  d->durability.reset();

  std::vector<double> recover_s, load_s, replay_s, recheck_s, replayed;
  for (std::size_t c = 0; c < w.recover_copies; ++c) {
    const fs::path copy = opt.workdir / ("recover-" + std::to_string(c));
    fs::remove_all(copy);
    fs::copy(state_dir, copy, fs::copy_options::recursive);
    Timer t;
    SupervisorRecovery report;
    std::unique_ptr<SpannerSupervisor> recovered;
    {
      DCS_TRACE_SPAN("bench.recover");
      persist::DurabilityManager durability(copy.string());
      recovered = SpannerSupervisor::recover(g, durability, sup_options, report);
    }
    recover_s.push_back(t.seconds());
    load_s.push_back(report.load_seconds);
    replay_s.push_back(report.replay_seconds);
    recheck_s.push_back(report.recheck_seconds);
    replayed.push_back(static_cast<double>(report.wal_waves_replayed));
    rep.gate(recovered != nullptr, "recovery failed closed: " + report.error);
    rep.gate(recovered != nullptr &&
                 recovered->spanner() == pre_crash_spanner &&
                 recovered->repair_debt() == pre_crash_debt,
             "recovered spanner or repair debt differs from the pre-crash one");
    recovered.reset();
    fs::remove_all(copy);
  }
  trace.off();
  fs::remove_all(state_dir);

  // --- gates over the serving stream ------------------------------------------
  const std::uint64_t shed = final_stats.shed_admission +
                             final_stats.shed_deadline +
                             final_stats.shed_degraded +
                             final_stats.shed_shutdown;
  rep.gate(final_stats.served + shed == final_stats.queries,
           "conservation: served + shed != submitted");
  rep.attempted += served_all.submitted;
  rep.failed += served_all.submitted - served_all.served;
  rep.attempted += checker.checked();
  rep.failed += checker.wrong();
  if (checker.wrong() > 0) {
    rep.failures.push_back(std::to_string(checker.wrong()) +
                           " served answers disagree with BFS on their epoch");
  }
  rep.gate(checker.checked() > 0, "no served answer was checked");
  rep.gate(wave_ms.size() == w.waves, "not every churn wave ran");

  // --- metrics ----------------------------------------------------------------
  const double served_q = static_cast<double>(after.served - before.served);
  const double queries_q = static_cast<double>(after.queries - before.queries);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double sources =
      static_cast<double>(after.coalesced_sources - before.coalesced_sources);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double rows_filled = static_cast<double>(after.route_rows_filled -
                                                 before.route_rows_filled);

  if (!opt.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("build_s", median(build_s), "s");
    rep.add("certify_s", median(certify_s), "s");
    rep.add("edge_ratio", median(edge_ratio), "ratio");
    rep.add("distance_stretch", max_stretch, "ratio");
    rep.add("matching_congestion",
            matching_sum / static_cast<double>(matching_count), "ratio");
    rep.add("congestion_stretch", ch_sum / cg_sum, "ratio");
    auto slice_median = [&](double SliceStats::*field) {
      std::vector<double> v;
      for (const SliceStats& sl : slices) v.push_back(sl.*field);
      return median(v);
    };
    rep.add("throughput_qps", slice_median(&SliceStats::qps), "1/s");
    rep.add("latency_p50_us", slice_median(&SliceStats::p50_us), "us");
    rep.add("latency_p99_us", slice_median(&SliceStats::p99_us), "us");
    rep.add("served_frac",
            static_cast<double>(served_all.served) /
                static_cast<double>(served_all.submitted),
            "ratio");
    rep.add("wave_ms", median(wave_ms), "ms");
    rep.add("recover_s", median(recover_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    const auto build_self = trace.self_ms(build_windows);
    const auto cert_self = trace.self_ms(cert_windows);
    const auto serve_self = trace.self_ms(serve_windows);
    const auto churn_self = trace.self_ms(
        concurrent_churn ? serve_windows
                         : std::vector<Window>{{churn_t0, churn_t1}});
    const double traced_builds = static_cast<double>(build_traced_s.size());
    const double waves = static_cast<double>(w.waves);
    const auto& stats = d->built.spanner.stats;

    rep.add("graph.generate_s", median(generate_s), "s");
    rep.add("core.sample_ms", get(build_self, "sample") / traced_builds, "ms");
    rep.add("core.support_reinsert_ms",
            get(build_self, "support_reinsert_loop") / traced_builds, "ms");
    rep.add("core.assemble_ms", get(build_self, "assemble") / traced_builds,
            "ms");
    rep.add("core.sampled_edges", static_cast<double>(stats.sampled_edges),
            "count");
    rep.add("core.reinserted_undetoured",
            static_cast<double>(d->built.reinserted_undetoured), "count");
    rep.add("core.reinserted_unsupported",
            static_cast<double>(d->built.reinserted_unsupported), "count");
    rep.add("core.certify_alpha_ms", median(alpha_ms), "ms");
    rep.add("core.certify_matching_ms", median(matching_ms), "ms");
    rep.add("core.certify_general_ms", median(general_ms), "ms");
    rep.add("core.decomposition_self_ms",
            get(cert_self, "matching_decomposition") / static_cast<double>(passes), "ms");
    rep.add("core.decomposition_levels_ms",
            (get(cert_self, "level_assignment") +
             get(cert_self, "level_subgraph")) /
                static_cast<double>(passes),
            "ms");
    rep.add("core.decomposition_reassembly_ms",
            get(cert_self, "reassembly") / static_cast<double>(passes), "ms");
    rep.add("routing.base_routing_s", median(base_routing_s), "s");
    rep.add("routing.rows_filled_per_kq",
            queries_q > 0 ? 1000.0 * rows_filled / queries_q : 0.0, "count");
    rep.add("routing.row_fill_us_p50", percentile(served_all.row_fill_us, 0.50),
            "us");
    rep.add("routing.row_fill_us_p99", percentile(served_all.row_fill_us, 0.99),
            "us");
    rep.add("serve.queries_per_batch", batches > 0 ? served_q / batches : 0.0,
            "count");
    rep.add("serve.sources_per_batch", batches > 0 ? sources / batches : 0.0,
            "count");
    rep.add("serve.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.add("serve.execute_us_p50", percentile(served_all.execute_us, 0.50), "us");
    rep.add("serve.execute_us_p99", percentile(served_all.execute_us, 0.99), "us");
    rep.add("serve.queue_us_p50", percentile(served_all.queue_us, 0.50), "us");
    rep.add("serve.queue_us_p99", percentile(served_all.queue_us, 0.99), "us");
    rep.add("serve.dispatch_us_p50", percentile(served_all.dispatch_us, 0.50), "us");
    rep.add("serve.dispatch_us_p99", percentile(served_all.dispatch_us, 0.99), "us");
    rep.add("serve.batch_self_ms",
            batches > 0 ? get(serve_self, "serve_batch") / batches : 0.0, "ms");
    rep.add("serve.epochs_adopted",
            static_cast<double>(after.epochs_adopted - warm_stats.epochs_adopted),
            "count");
    rep.add("serve.shed_admission",
            static_cast<double>(final_stats.shed_admission), "count");
    rep.add("serve.shed_deadline",
            static_cast<double>(final_stats.shed_deadline), "count");
    rep.add("serve.shed_degraded",
            static_cast<double>(final_stats.shed_degraded), "count");
    rep.add("serve.shed_shutdown",
            static_cast<double>(final_stats.shed_shutdown), "count");
    rep.add("resilience.step_ms_p50", median(wave_ms), "ms");
    rep.add("resilience.step_ms_max", max_of(wave_ms), "ms");
    rep.add("resilience.repairs", static_cast<double>(repairs), "count");
    rep.add("resilience.rebuilds", static_cast<double>(rebuilds), "count");
    rep.add("resilience.debt_max", max_of(debt), "count");
    rep.add("resilience.events_per_wave", median(events_per_wave), "count");
    rep.add("resilience.screen_ms", get(churn_self, "screen") / waves, "ms");
    rep.add("resilience.detour_patch_ms",
            get(churn_self, "detour_patch") / waves, "ms");
    rep.add("resilience.matching_patch_ms",
            get(churn_self, "matching_patch") / waves, "ms");
    rep.add("resilience.rebuild_ms", get(churn_self, "rebuild") / waves, "ms");
    rep.add("resilience.step_self_ms",
            (get(churn_self, "supervisor_step") +
             get(churn_self, "spanner_repair")) / waves,
            "ms");
    rep.add("persist.checkpoint_ms", median(checkpoint_ms), "ms");
    rep.add("persist.checkpoint_bytes", checkpoint_bytes, "B");
    rep.add("persist.wal_bytes", wal_bytes, "B");
    rep.add("persist.recover_load_s", median(load_s), "s");
    rep.add("persist.recover_replay_s", median(replay_s), "s");
    rep.add("persist.recover_recheck_s", median(recheck_s), "s");
    rep.add("persist.wal_waves_replayed", median(replayed), "count");
    rep.add("obs.trace_overhead_build",
            median(build_traced_s) / median(build_s), "ratio");
    rep.add("obs.trace_overhead_serve",
            median(qps_plain) / median(qps_traced), "ratio");
  }

  // --- print ------------------------------------------------------------------
  for (const Metric& m : rep.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : rep.failures) {
    std::printf("FAIL: %s\n", f.c_str());
  }
  const bool correct = rep.failed == 0 && rep.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rep.metrics[i].name.c_str(),
                rep.metrics[i].value, rep.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
