// bench_e2e: the end-to-end performance ledger. Runs one named workload
// (workloads.cc) as its own process on one persistent Cluster and prints
// every metric by name with its unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   bench_e2e --workload cliques_orkut --seed 1 --seconds 10 --trace 0
//
// Phases of an untraced run (--trace 0, every end-to-end metric):
//   1. set-up, repeated (median reported as setup_s):
//      graph generation + GraphBuilder::Build, cluster (and scheduler)
//      start, and 2 warm-up queries;
//   2. the measured closed loop: `clients` closed-loop clients for
//      --seconds, and at least WorkloadShape::min_queries queries;
//   3. verification: every query's result against the oracle, computed
//      after the measured phase so neither setup_s nor peak_rss_mb pays
//      for it; a mismatch, a non-OK status or a refused submission fails
//      the query.
//
// The traced run (--trace 1, every per-layer metric) alternates untraced
// and traced windows of the closed loop. Traced windows arm the sampling
// profiler and the bench-owned spans; the p50 ratio between the two kinds
// of window is the tracing overhead. It then runs the single-thread COST
// line, the schedule-independence check of the exact counters, an empty
// RunStep dispatch timing and an uncached canonicalization timing.
//
// No tracing is added to the system under test: layers are read from the
// public result structs (StepTelemetry), the metrics registry, bench-owned
// spans around public calls, and the existing obs::Profiler.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "obs/metrics.h"
#include "pattern/canonical.h"
#include "util/strings.h"

namespace fractal {
namespace e2e {
namespace {

/// Set-up repeats until both floors are met; setup_s is their median.
/// The time floor gives the cheap set-ups (keyword_wikidata: ~25 ms) enough
/// repeats for a steady median.
constexpr size_t kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 2.0;
constexpr int kWarmupQueries = 2;
constexpr int kProfileHz = 1000;
/// The traced run alternates untraced and traced windows of the closed
/// loop, so both kinds see the same host conditions; 40% of its time is
/// traced.
constexpr double kUntracedWindowSeconds = 0.6;
constexpr double kTracedWindowSeconds = 0.4;
/// Share of --seconds the traced run spends in its closed loop; the rest
/// bounds the single-thread, dispatch and canonicalization extras.
constexpr double kTracedLoopShare = 0.6;
constexpr uint32_t kSingleThreadQueries = 8;
constexpr int kDispatchRuns = 1000;
constexpr int kCanonicalizeRuns = 2000;
/// Simulated cost of one external steal in work units, as in
/// bench_fig16_worksteal (BalanceEfficiency's makespan model).
constexpr uint64_t kExternalStealCost = 200;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
  RetryPolicy::Mode retry_mode = RetryPolicy::Mode::kFromScratch;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR] [--retry-mode scratch|salvage]\nworkloads:",
               message);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value().c_str());
      if (!(options.seconds >= 0 && options.seconds <= 600)) {
        Usage("--seconds must be in [0, 600]");
      }
    } else if (flag == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") Usage("--trace must be 0 or 1");
      options.trace = trace == "1";
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value();
    } else if (flag == "--retry-mode") {
      const std::string mode = value();
      if (mode == "salvage") {
        options.retry_mode = RetryPolicy::Mode::kSalvage;
      } else if (mode != "scratch") {
        Usage("--retry-mode must be scratch or salvage");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

// --- Statistics ---------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Registry readings bracketing a phase: the counters and histograms the
/// per-layer split reads as deltas.
struct RegistryReading {
  uint64_t intersections = 0;
  uint64_t galloped = 0;
  uint64_t scratch_hits = 0;
  uint64_t scratch_misses = 0;
  std::vector<uint64_t> batch, steal_rtt, encode, decode;

  static std::vector<uint64_t> Buckets(const obs::Histogram& histogram) {
    std::vector<uint64_t> buckets(obs::Histogram::kNumBuckets);
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] = histogram.BucketCount(i);
    }
    return buckets;
  }

  static RegistryReading Take() {
    RegistryReading r;
    r.intersections = obs::IntersectionKernelsCounter().Value();
    r.galloped = obs::GallopedKernelsCounter().Value();
    r.scratch_hits = obs::ScratchHitsCounter().Value();
    r.scratch_misses = obs::ScratchMissesCounter().Value();
    r.batch = Buckets(obs::ExtensionBatchHistogram());
    r.steal_rtt = Buckets(obs::StealRttHistogram());
    r.encode = Buckets(obs::EncodeTimeHistogram());
    r.decode = Buckets(obs::DecodeTimeHistogram());
    return r;
  }
};

/// p50 of the samples a histogram gained between two readings,
/// interpolated linearly inside the power-of-two bucket; 0 when empty.
double DeltaP50(const std::vector<uint64_t>& before,
                const std::vector<uint64_t>& after) {
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  if (total == 0) return 0;
  const double target = 0.5 * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double count = static_cast<double>(after[i] - before[i]);
    if (count > 0 && seen + count >= target) {
      const double lo = static_cast<double>(obs::Histogram::BucketLowerBound(i));
      const double hi =
          static_cast<double>(obs::Histogram::BucketUpperBound(i)) + 1;
      return lo + (hi - lo) * (target - seen) / count;
    }
    seen += count;
  }
  return 0;
}

// --- Metrics output -----------------------------------------------------------

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
  }

  void PrintTable() const {
    for (const auto& [name, value, unit] : metrics_) {
      std::printf("  %-32s %18.9g %s\n", name.c_str(), value, unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
    }
    return out + "}";
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

// --- The run --------------------------------------------------------------------

struct Sample {
  double latency_s = 0;
  bool traced = false;
  QueryOutcome outcome;
};

/// The exact work counters of one pool entry, as first observed. Both are
/// schedule-independent (checked on 1x1, 1x4 and 2x2 by the traced run);
/// peak_state_bytes is not (it depends on which partial aggregations are
/// alive at once), so it is a per-layer metric.
struct Counts {
  uint64_t work_units = 0;
  uint64_t extension_tests = 0;

  static Counts Of(const QueryOutcome& outcome) {
    return {outcome.work_units, outcome.extension_tests};
  }
  bool operator==(const Counts&) const = default;
};

/// Sums of the per-step telemetry over a set of queries.
struct StepTotals {
  uint64_t steps = 0;
  double step_wall_s = 0;
  double busy_s = 0;
  double thread_s = 0;  // threads x step wall
  double balance_sum = 0;
  uint64_t internal_steals = 0;
  uint64_t external_steals = 0;
  uint64_t steal_failures = 0;
  uint64_t steal_timeouts = 0;
  uint64_t bytes_shipped = 0;

  void Add(const StepTelemetry& step) {
    ++steps;
    step_wall_s += step.wall_seconds;
    thread_s += step.wall_seconds * static_cast<double>(step.threads.size());
    balance_sum += step.BalanceEfficiency(kExternalStealCost);
    for (const ThreadStats& thread : step.threads) {
      busy_s += thread.busy_seconds;
      internal_steals += thread.internal_steals;
      external_steals += thread.external_steals;
      steal_failures += thread.steal_failures;
      steal_timeouts += thread.steal_timeouts;
      bytes_shipped += thread.bytes_shipped;
    }
  }
};

class EmptyStepTask : public StepTask {
 public:
  void DrainRoots(ThreadContext&, std::vector<uint32_t>) override {}
  void ProcessStolen(ThreadContext&,
                     const SubgraphEnumerator::StolenWork&) override {}
  void FinishThread(ThreadContext&) override {}
};

class Bench {
 public:
  Bench(const Options& options, std::unique_ptr<Workload> workload)
      : options_(options),
        workload_(std::move(workload)),
        shape_(workload_->shape()),
        spans_(false) {}

  int Run();

 private:
  void SetUp();
  void StartCluster(const ClusterOptions& cluster_options);
  void StopCluster();
  QueryEnv Env(SpanRecorder* spans) const;
  /// One closed-loop window: runs until `seconds` passed and at least
  /// `min_queries` queries were started, then waits for in-flight ones.
  std::vector<Sample> RunWindow(double seconds, uint64_t min_queries,
                                bool traced);
  Sample RunOne(uint64_t index, const QueryEnv& base, bool traced);
  void Verify(const std::vector<Sample>& samples);
  /// Runs `queries` queries on a fresh cluster of the given shape and
  /// checks their counters against the main topology's; returns the
  /// median latency.
  double CheckTopology(const ClusterOptions& cluster_options,
                       uint32_t queries, double budget_seconds,
                       const char* label);
  void ReportUntraced(const std::vector<Sample>& samples, double wall_s,
                      double cpu_s, double peak_rss_mb);
  void RunTraced();

  const Options options_;
  std::unique_ptr<Workload> workload_;
  const WorkloadShape shape_;
  SpanRecorder spans_;

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<QueryScheduler> scheduler_;
  std::atomic<uint64_t> next_index_{0};
  std::atomic<uint64_t> next_query_id_{1};

  std::vector<double> setup_s_;
  std::map<uint64_t, Counts> counts_;  // pool entry -> counts (main topology)
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool counts_exact_ = true;
  MetricSink metrics_;
};

void Bench::StartCluster(const ClusterOptions& cluster_options) {
  StatusOr<std::unique_ptr<Cluster>> cluster = Cluster::Create(cluster_options);
  FRACTAL_CHECK(cluster.ok()) << cluster.status();
  cluster_ = std::move(*cluster);
  if (shape_.scheduler_max_active > 0) {
    QuerySchedulerOptions scheduler_options;
    scheduler_options.max_active = shape_.scheduler_max_active;
    scheduler_options.max_queued = shape_.scheduler_max_queued;
    scheduler_ =
        std::make_unique<QueryScheduler>(cluster_.get(), scheduler_options);
  }
}

void Bench::StopCluster() {
  scheduler_.reset();
  cluster_.reset();
}

QueryEnv Bench::Env(SpanRecorder* spans) const {
  QueryEnv env;
  env.config.cluster = cluster_.get();
  env.config.retry.mode = options_.retry_mode;
  env.scheduler = scheduler_.get();
  env.spans = spans;
  return env;
}

void Bench::SetUp() {
  const bool once = options_.trace || options_.smoke;
  WallTimer total;
  while (setup_s_.empty() ||
         (!once && (setup_s_.size() < kSetupMinRepeats ||
                    total.ElapsedSeconds() < kSetupMinSeconds))) {
    StopCluster();
    WallTimer timer;
    {
      ScopedSpan span(&spans_, "setup");
      workload_->BuildInputs(options_.seed, &spans_);
      StartCluster(shape_.cluster);
      const QueryEnv env = Env(nullptr);
      for (int w = 0; w < kWarmupQueries; ++w) {
        const QueryOutcome outcome = workload_->RunQuery(w, env);
        FRACTAL_CHECK(outcome.status.ok())
            << "warm-up query failed: " << outcome.status;
      }
    }
    setup_s_.push_back(timer.ElapsedSeconds());
  }
}

Sample Bench::RunOne(uint64_t index, const QueryEnv& base, bool traced) {
  QueryEnv env = base;
  env.query_id = next_query_id_.fetch_add(1);
  Sample sample;
  sample.traced = traced;
  WallTimer timer;
  {
    ScopedSpan span(env.spans, "query", env.query_id);
    env.parent_span = span.id();
    sample.outcome = workload_->RunQuery(index, env);
  }
  sample.latency_s = timer.ElapsedSeconds();
  return sample;
}

std::vector<Sample> Bench::RunWindow(double seconds, uint64_t min_queries,
                                     bool traced) {
  const QueryEnv env = Env(traced ? &spans_ : nullptr);
  WallTimer window;
  std::atomic<uint64_t> started{0};
  auto client = [&](std::vector<Sample>* out) {
    while (true) {
      const uint64_t n = started.fetch_add(1);
      if (n >= min_queries && window.ElapsedSeconds() >= seconds) return;
      out->push_back(RunOne(next_index_.fetch_add(1), env, traced));
    }
  };
  std::vector<std::vector<Sample>> per_client(shape_.clients);
  if (shape_.clients == 1) {
    // The main thread is the client: it is the profiler's "driver" thread.
    client(&per_client[0]);
  } else {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < shape_.clients; ++c) {
      threads.emplace_back(client, &per_client[c]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::vector<Sample> samples;
  for (std::vector<Sample>& part : per_client) {
    for (Sample& sample : part) samples.push_back(std::move(sample));
  }
  return samples;
}

void Bench::Verify(const std::vector<Sample>& samples) {
  std::map<uint64_t, std::string> oracle;
  ExecutionConfig config;
  config.cluster = cluster_.get();
  int reported = 0;
  for (const Sample& sample : samples) {
    const QueryOutcome& outcome = sample.outcome;
    ++attempted_;
    std::string error;
    if (!outcome.status.ok()) {
      error = outcome.status.ToString();
    } else {
      auto it = oracle.find(outcome.key);
      if (it == oracle.end()) {
        it = oracle.emplace(outcome.key, workload_->Oracle(outcome.key, config))
                 .first;
      }
      if (outcome.result != it->second) {
        error = "result differs from the oracle:\n  got:      " +
                outcome.result + "\n  expected: " + it->second;
      }
      const Counts counts = Counts::Of(outcome);
      const auto [known, inserted] = counts_.emplace(outcome.key, counts);
      if (!inserted && !(known->second == counts)) {
        if (counts_exact_) {
          std::fprintf(stderr,
                       "counts of pool entry %" PRIu64 " vary: work_units %" PRIu64
                       " vs %" PRIu64 ", extension_tests %" PRIu64 " vs %" PRIu64
                       "\n",
                       outcome.key, counts.work_units, known->second.work_units,
                       counts.extension_tests, known->second.extension_tests);
        }
        counts_exact_ = false;
      }
    }
    if (!error.empty()) {
      ++failed_;
      if (reported++ < 5) {
        std::fprintf(stderr, "query %" PRIu64 " failed: %s\n", outcome.key,
                     error.c_str());
      }
    }
  }
}

double Bench::CheckTopology(const ClusterOptions& cluster_options,
                            uint32_t queries, double budget_seconds,
                            const char* label) {
  Cluster cluster(cluster_options);
  QueryEnv env;
  env.config.cluster = &cluster;
  env.config.retry.mode = options_.retry_mode;
  std::vector<double> latencies;
  WallTimer budget;
  for (uint32_t q = 0; q < queries; ++q) {
    if (q > 0 && budget.ElapsedSeconds() > budget_seconds) break;
    const Sample sample = RunOne(q, env, false);
    latencies.push_back(sample.latency_s);
    const auto known = counts_.find(sample.outcome.key);
    if (!sample.outcome.status.ok()) {
      std::fprintf(stderr, "%s query failed: %s\n", label,
                   sample.outcome.status.ToString().c_str());
      ++failed_;
    } else if (known != counts_.end() &&
               !(known->second == Counts::Of(sample.outcome))) {
      const Counts& main = known->second;
      const Counts other = Counts::Of(sample.outcome);
      std::fprintf(stderr,
                   "schedule dependence on %s: work_units %" PRIu64
                   " vs %" PRIu64 ", extension_tests %" PRIu64 " vs %" PRIu64
                   "\n",
                   label, other.work_units, main.work_units,
                   other.extension_tests, main.extension_tests);
      counts_exact_ = false;
    }
  }
  return Median(latencies);
}

void Bench::ReportUntraced(const std::vector<Sample>& samples, double wall_s,
                           double cpu_s, double peak_rss_mb) {
  std::vector<double> latencies;
  for (const Sample& sample : samples) latencies.push_back(sample.latency_s);
  const double n = static_cast<double>(samples.size());
  // Counters are per pool entry, so every distinct query weighs the same
  // however often the closed loop happened to run it.
  double work_units = 0, extension_tests = 0;
  for (const auto& [key, counts] : counts_) {
    work_units += static_cast<double>(counts.work_units);
    extension_tests += static_cast<double>(counts.extension_tests);
  }
  const double keys = std::max<double>(1, counts_.size());
  metrics_.Add("query_p50_s", Percentile(latencies, 50), "s");
  metrics_.Add("query_p90_s", Percentile(latencies, 90), "s");
  metrics_.Add("throughput_qps", n / wall_s, "queries/s");
  metrics_.Add("cpu_per_query_s", cpu_s / n, "s");
  metrics_.Add("setup_s", Median(setup_s_), "s");
  metrics_.Add("peak_rss_mb", peak_rss_mb, "MB");
  metrics_.Add("work_units_per_query", work_units / keys, "count");
  metrics_.Add("extension_tests_per_query", extension_tests / keys, "count");
  std::printf("%s seed=%" PRIu64 ": %zu queries in %.3f s (%zu beyond p90), "
              "%zu distinct, set-up runs %zu\n",
              workload_->name(), options_.seed, samples.size(), wall_s,
              samples.size() - static_cast<size_t>(0.9 * n) - 1,
              counts_.size(), setup_s_.size());
}

void Bench::RunTraced() {
  // Alternating untraced / traced windows of the closed loop.
  const RegistryReading before = RegistryReading::Take();
  std::vector<Sample> untraced, traced;
  LayerProfile layers;
  obs::ProfileSnapshot merged;
  double traced_wall_s = 0;
  double untraced_wall_s = 0;
  double expected_samples = 0;
  const double loop_seconds = options_.seconds * kTracedLoopShare;
  WallTimer loop;
  for (int w = 0; loop.ElapsedSeconds() < loop_seconds || traced.empty() ||
                  untraced.empty();
       ++w) {
    const bool trace = (w % 2) == 1;
    if (!trace) {
      WallTimer window;
      std::vector<Sample> part = RunWindow(kUntracedWindowSeconds, 1, false);
      untraced_wall_s += window.ElapsedSeconds();
      for (Sample& s : part) untraced.push_back(std::move(s));
      continue;
    }
    spans_.set_enabled(true);
    const std::vector<uint64_t> marks = obs::Profiler::Get().Marks();
    FRACTAL_CHECK_OK(obs::Profiler::Get().Start(kProfileHz));
    WallTimer window;
    std::vector<Sample> part = RunWindow(kTracedWindowSeconds, 1, true);
    const double wall = window.ElapsedSeconds();
    obs::Profiler::Get().Stop();
    spans_.set_enabled(false);
    obs::ProfileSnapshot snapshot = obs::Profiler::Get().Snapshot(&marks);
    uint32_t live = 0;
    for (const obs::ThreadProfile& thread : snapshot.threads) {
      if (thread.live) ++live;
    }
    expected_samples += live * wall * kProfileHz;
    traced_wall_s += wall;
    layers.Add(snapshot);
    for (obs::ThreadProfile& thread : snapshot.threads) {
      merged.threads.push_back(std::move(thread));
    }
    for (Sample& s : part) traced.push_back(std::move(s));
  }
  const RegistryReading after = RegistryReading::Take();
  std::vector<Sample> all = untraced;
  for (const Sample& s : traced) all.push_back(s);
  Verify(all);

  std::vector<double> untraced_latency, traced_latency;
  for (const Sample& s : untraced) untraced_latency.push_back(s.latency_s);
  for (const Sample& s : traced) traced_latency.push_back(s.latency_s);
  const double untraced_p50 = Median(untraced_latency);
  const double traced_p50 = Median(traced_latency);
  const double queries = static_cast<double>(all.size());
  const double traced_queries = static_cast<double>(traced.size());

  // graph
  const std::vector<std::string> buckets = LayerBuckets();
  auto bucket_s = [&](const std::string& name) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == name) {
        return static_cast<double>(layers.samples()[i]) / kProfileHz /
               traced_queries;
      }
    }
    FRACTAL_CHECK(false) << "no bucket " << name;
    return 0.0;
  };
  const double intersections =
      static_cast<double>(after.intersections - before.intersections);
  const double galloped = static_cast<double>(after.galloped - before.galloped);
  metrics_.Add("graph.kernels_s", bucket_s("graph.kernels_s"), "s/query");
  metrics_.Add("graph.intersections", intersections / queries, "count");
  metrics_.Add("graph.gallop_ratio",
               intersections > 0 ? galloped / intersections : 0, "ratio");
  metrics_.Add("graph.build_s", spans_.TotalSeconds("build_graph"), "s");
  metrics_.Add("graph.reduce_s", spans_.TotalSeconds("reduce") / traced_queries,
               "s/query");
  metrics_.Add("graph.index_s", spans_.TotalSeconds("index") / traced_queries,
               "s/query");

  // enumerate
  const double hits = static_cast<double>(after.scratch_hits - before.scratch_hits);
  const double misses =
      static_cast<double>(after.scratch_misses - before.scratch_misses);
  metrics_.Add("enumerate.strategy_s", bucket_s("enumerate.strategy_s"),
               "s/query");
  metrics_.Add("enumerate.claim_s", bucket_s("enumerate.claim_s"), "s/query");
  metrics_.Add("enumerate.scratch_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  metrics_.Add("enumerate.batch_p50", DeltaP50(before.batch, after.batch),
               "count");

  // pattern
  std::vector<double> canonicalize_us;
  const std::vector<Pattern> patterns = workload_->ResultPatterns();
  for (int r = 0; r < kCanonicalizeRuns; ++r) {
    for (const Pattern& pattern : patterns) {
      WallTimer timer;
      const CanonicalResult canonical = CanonicalForm(pattern);
      canonicalize_us.push_back(timer.ElapsedNanos() / 1000.0);
      FRACTAL_CHECK(canonical.pattern.NumVertices() == pattern.NumVertices());
    }
  }
  metrics_.Add("pattern.canonical_s", bucket_s("pattern.canonical_s"),
               "s/query");
  metrics_.Add("pattern.canonicalize_us", Median(canonicalize_us), "us");

  // core and apps
  StepTotals totals;
  double outside_steps_s = 0;
  for (const Sample& s : all) {
    double step_wall = 0;
    for (const StepTelemetry& step : s.outcome.steps) {
      totals.Add(step);
      step_wall += step.wall_seconds;
    }
    outside_steps_s += s.latency_s - step_wall;
  }
  metrics_.Add("core.aggregate_s", bucket_s("core.aggregate_s"), "s/query");
  metrics_.Add("core.task_s", bucket_s("core.task_s"), "s/query");
  metrics_.Add("core.driver_s", bucket_s("core.driver_s"), "s/query");
  metrics_.Add("core.outside_steps_s", outside_steps_s / queries, "s/query");
  double peak_state_bytes = 0;
  for (const Sample& s : all) {
    peak_state_bytes += static_cast<double>(s.outcome.peak_state_bytes);
  }
  metrics_.Add("core.peak_state_bytes", peak_state_bytes / queries, "bytes");

  // The single-thread COST line and the schedule-independence check: the
  // same queries on a 1x1 cluster, and on the other multi-thread shape.
  ClusterOptions single = shape_.cluster;
  single.num_workers = 1;
  single.threads_per_worker = 1;
  single.external_work_stealing = false;
  const double budget = options_.seconds * (1 - kTracedLoopShare) / 3;
  const double single_p50 =
      CheckTopology(single, kSingleThreadQueries, budget, "1x1");
  ClusterOptions other = shape_.cluster;
  other.num_workers = shape_.cluster.num_workers == 2 ? 1 : 2;
  other.threads_per_worker = shape_.cluster.num_workers == 2 ? 4 : 2;
  other.external_work_stealing = other.num_workers > 1;
  CheckTopology(other, 2, budget, other.num_workers == 2 ? "2x2" : "1x4");
  std::vector<double> tuned;
  for (int r = 0; r < 3; ++r) tuned.push_back(workload_->RunTunedBaseline());
  const double tuned_s = Median(tuned);
  metrics_.Add("core.single_thread_s", single_p50, "s");
  metrics_.Add("core.cost_ratio", tuned_s > 0 ? single_p50 / tuned_s : 0,
               "ratio");

  // runtime
  std::vector<double> dispatch_us;
  {
    EmptyStepTask task;
    Cluster::StepOptions step_options;
    step_options.num_levels = 1;
    for (int r = 0; r < kDispatchRuns; ++r) {
      WallTimer timer;
      const Cluster::StepResult result = cluster_->RunStep(task, {}, step_options);
      dispatch_us.push_back(timer.ElapsedNanos() / 1000.0);
      FRACTAL_CHECK(result.ok() && !result.cancelled);
    }
  }
  const uint64_t steals = totals.internal_steals + totals.external_steals;
  metrics_.Add("runtime.codec_s", bucket_s("runtime.codec_s"), "s/query");
  metrics_.Add("runtime.bus_s", bucket_s("runtime.bus_s"), "s/query");
  metrics_.Add("runtime.dispatch_s", bucket_s("runtime.dispatch_s"), "s/query");
  metrics_.Add("runtime.idle_s", bucket_s("runtime.idle_s"), "s/query");
  metrics_.Add("runtime.gate_wait_s", bucket_s("runtime.gate_wait_s"),
               "s/query");
  metrics_.Add("runtime.step_wall_s", totals.step_wall_s / queries, "s/query");
  metrics_.Add("runtime.steps", static_cast<double>(totals.steps) / queries,
               "count");
  metrics_.Add("runtime.busy_frac",
               totals.thread_s > 0 ? totals.busy_s / totals.thread_s : 0,
               "ratio");
  metrics_.Add("runtime.idle_thread_s",
               (totals.thread_s - totals.busy_s) / queries, "s/query");
  metrics_.Add("runtime.balance_eff",
               totals.steps > 0 ? totals.balance_sum / totals.steps : 0,
               "ratio");
  metrics_.Add("runtime.internal_steals",
               static_cast<double>(totals.internal_steals) / queries, "count");
  metrics_.Add("runtime.external_steals",
               static_cast<double>(totals.external_steals) / queries, "count");
  metrics_.Add("runtime.steal_failures",
               static_cast<double>(totals.steal_failures) / queries, "count");
  metrics_.Add("runtime.steal_success_ratio",
               steals + totals.steal_failures > 0
                   ? static_cast<double>(steals) /
                         static_cast<double>(steals + totals.steal_failures)
                   : 0,
               "ratio");
  metrics_.Add("runtime.steal_timeouts",
               static_cast<double>(totals.steal_timeouts) / queries, "count");
  metrics_.Add("runtime.bytes_shipped",
               static_cast<double>(totals.bytes_shipped) / queries, "bytes");
  metrics_.Add("runtime.steal_rtt_p50_us",
               DeltaP50(before.steal_rtt, after.steal_rtt), "us");
  metrics_.Add("runtime.codec_encode_ns_p50",
               DeltaP50(before.encode, after.encode), "ns");
  metrics_.Add("runtime.codec_decode_ns_p50",
               DeltaP50(before.decode, after.decode), "ns");
  metrics_.Add("runtime.step_dispatch_us", Median(dispatch_us), "us");
  metrics_.Add("runtime.queries_rejected",
               scheduler_ ? static_cast<double>(scheduler_->stats().rejected) : 0,
               "count");
  // Over the service time (wall per query), not the p50: with several
  // clients the p50 also holds the wait behind the other queries.
  metrics_.Add("runtime.speedup_4t",
               single_p50 * static_cast<double>(untraced.size()) /
                   untraced_wall_s,
               "ratio");

  // obs and baselines
  metrics_.Add("libc_s", bucket_s("libc_s"), "s/query");
  metrics_.Add("other_s", bucket_s("other_s"), "s/query");
  metrics_.Add("obs.trace_overhead",
               untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "ratio");
  metrics_.Add("obs.sample_coverage",
               expected_samples > 0 ? layers.total() / expected_samples : 0,
               "ratio");
  metrics_.Add("baselines.tuned_s", tuned_s, "s");

  std::printf("%s seed=%" PRIu64 " traced: %zu untraced + %zu traced queries, "
              "%" PRIu64 " profiler samples over %.3f s\n",
              workload_->name(), options_.seed, untraced.size(), traced.size(),
              layers.total(), traced_wall_s);
  if (!options_.out_dir.empty()) {
    const std::string trace_path = options_.out_dir + "/trace.json";
    const Status status = spans_.WriteChromeTrace(trace_path);
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    const std::string profile_path = options_.out_dir + "/profile.collapsed";
    if (std::FILE* file = std::fopen(profile_path.c_str(), "w")) {
      const std::string text = obs::Profiler::CollapsedStacks(merged);
      std::fwrite(text.data(), 1, text.size(), file);
      std::fclose(file);
    }
  }
}

int Bench::Run() {
  spans_.set_enabled(options_.trace);
  SetUp();
  spans_.set_enabled(false);
  if (options_.trace) {
    RunTraced();
  } else {
    const uint64_t min_queries = options_.smoke ? 5 : shape_.min_queries;
    const double seconds = options_.smoke ? 0 : options_.seconds;
    const double cpu_before = CpuSeconds();
    WallTimer wall;
    const std::vector<Sample> samples = RunWindow(seconds, min_queries, false);
    const double wall_s = wall.ElapsedSeconds();
    const double cpu_s = CpuSeconds() - cpu_before;
    const double peak_rss_mb = PeakRssMb();
    Verify(samples);
    if (options_.smoke) {
      ClusterOptions single = shape_.cluster;
      single.num_workers = 1;
      single.threads_per_worker = 1;
      single.external_work_stealing = false;
      CheckTopology(single, 1, 0, "1x1");
    }
    ReportUntraced(samples, wall_s, cpu_s, peak_rss_mb);
  }
  StopCluster();
  if (!counts_exact_) {
    std::fprintf(stderr, "work counters are not schedule-independent\n");
  }
  const bool correct = failed_ == 0 && counts_exact_;
  metrics_.PrintTable();
  // error_rate reads 0 on every accepted run, so it stays out of the JSON
  // metrics; "attempted" and "failed" carry it.
  std::printf("  %-32s %18.9g %s\n", "error_rate",
              attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0,
              "fraction");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted_, failed_,
              metrics_.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace fractal

int main(int argc, char** argv) {
  using namespace fractal::e2e;
  const Options options = ParseOptions(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) Usage(("unknown workload " + options.workload).c_str());
  Bench bench(options, std::move(workload));
  return bench.Run();
}
