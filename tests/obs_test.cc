// Tests for the observability layer (src/obs/): trace ring buffers, the
// Chrome trace_event exporter, the metrics registry, and step-progress
// sampling. The exporter test runs a real 2x2 cluster execution with
// external stealing so the trace carries spans from every runtime layer —
// that same execution doubles as a concurrency test under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/motifs.h"
#include "core/computation.h"
#include "core/context.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "util/mutex.h"

namespace fractal {
namespace {

// --- Minimal Chrome-trace JSON scanning -----------------------------------
// The exporter emits one event object per line; these helpers pull typed
// fields out of a single object without a JSON library.

struct ParsedEvent {
  std::string name;
  std::string ph;
  double ts = 0;
  int pid = -1;
  int tid = -1;
};

std::string StringField(const std::string& obj, const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const size_t start = obj.find(marker);
  if (start == std::string::npos) return "";
  const size_t begin = start + marker.size();
  const size_t end = obj.find('"', begin);
  return obj.substr(begin, end - begin);
}

double NumberField(const std::string& obj, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const size_t start = obj.find(marker);
  if (start == std::string::npos) return -1;
  return std::atof(obj.c_str() + start + marker.size());
}

std::vector<ParsedEvent> ParseTraceEvents(const std::string& json) {
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  std::vector<ParsedEvent> events;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] != '{') continue;
    if (line.find("\"ph\":") == std::string::npos) continue;
    ParsedEvent event;
    event.name = StringField(line, "name");
    event.ph = StringField(line, "ph");
    event.ts = NumberField(line, "ts");
    event.pid = static_cast<int>(NumberField(line, "pid"));
    event.tid = static_cast<int>(NumberField(line, "tid"));
    EXPECT_FALSE(event.ph.empty()) << line;
    events.push_back(std::move(event));
  }
  return events;
}

uint64_t TotalEvents(const obs::TraceSnapshot& snapshot) {
  uint64_t total = 0;
  for (const obs::ThreadTrace& t : snapshot.threads) total += t.events.size();
  return total;
}

// --- Tracer ----------------------------------------------------------------

TEST(TracerTest, DisabledTracingRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(64);  // fresh session to clear earlier tests' rings
  tracer.Disable();
  const uint64_t before = TotalEvents(tracer.Snapshot());
  for (int i = 0; i < 100; ++i) {
    FRACTAL_TRACE_SPAN("test/disabled_span");
    FRACTAL_TRACE_INSTANT("test/disabled_instant", i);
  }
  EXPECT_EQ(TotalEvents(tracer.Snapshot()), before);
}

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(/*events_per_thread=*/8);
  const uint32_t name_id = tracer.InternName("test/wrap");
  for (uint64_t i = 0; i < 20; ++i) tracer.RecordInstant(name_id, i);
  tracer.Disable();

  const obs::TraceSnapshot snapshot = tracer.Snapshot();
  const obs::ThreadTrace* mine = nullptr;
  for (const obs::ThreadTrace& t : snapshot.threads) {
    if (!t.events.empty()) {
      ASSERT_EQ(mine, nullptr) << "only this thread should have recorded";
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 8u);
  EXPECT_EQ(mine->dropped, 12u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(mine->events[i].arg, 12 + i) << "newest events must survive";
    EXPECT_EQ(snapshot.names[mine->events[i].name_id], "test/wrap");
    if (i > 0) {
      EXPECT_GE(mine->events[i].ts_nanos, mine->events[i - 1].ts_nanos);
    }
  }
}

// Exited threads return their rings for reuse, so thread churn (ephemeral
// clusters spawn fresh workers per execution) must not grow the registry —
// while the dead threads' events stay exportable.
TEST(TracerTest, ThreadChurnReusesRingsAndKeepsEvents) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(/*events_per_thread=*/256);
  const size_t threads_before = tracer.Snapshot().threads.size();
  const uint32_t name_id = tracer.InternName("test/churn");
  for (uint64_t i = 0; i < 16; ++i) {
    std::thread t([&tracer, name_id, i] { tracer.RecordInstant(name_id, i); });
    t.join();  // thread_local slot released here; the next thread reuses it
  }
  tracer.Disable();

  const obs::TraceSnapshot snapshot = tracer.Snapshot();
  EXPECT_LE(snapshot.threads.size(), threads_before + 1)
      << "sequential short-lived threads must share one ring";
  uint64_t churn_events = 0;
  for (const obs::ThreadTrace& t : snapshot.threads) {
    for (const obs::TraceEvent& event : t.events) {
      if (event.name_id == name_id) ++churn_events;
    }
  }
  EXPECT_EQ(churn_events, 16u) << "reuse must not discard dead threads' events";
}

TEST(TracerTest, SpanOpenAcrossDisableStaysBalanced) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(64);
  {
    FRACTAL_TRACE_SPAN("test/cross_disable");
    tracer.Disable();
  }  // end must still record so the pair stays balanced
  const std::vector<ParsedEvent> events =
      ParseTraceEvents(tracer.ToChromeTraceJson());
  int begins = 0, ends = 0;
  for (const ParsedEvent& event : events) {
    if (event.name != "test/cross_disable") continue;
    if (event.ph == "B") ++begins;
    if (event.ph == "E") ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// End-to-end: a real cluster execution (2 workers x 2 threads, WS_ext on)
// must export valid JSON whose spans cover the runtime layers and whose
// begin/end pairs are balanced per thread despite any ring wraparound.
TEST(TracerTest, ClusterExecutionExportsLayeredBalancedTrace) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Enable(/*events_per_thread=*/1u << 12);

  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.external_work_stealing = true;
  config.network.latency_micros = 0;
  PowerLawParams params;
  params.num_vertices = 300;
  params.edges_per_vertex = 5;
  params.triangle_closure = 0.4;
  params.seed = 7;
  FractalContext fctx(config);
  FractalGraph graph = fctx.FromGraph(GeneratePowerLaw(params));
  const MotifsResult result = CountMotifs(graph, 3, config);
  EXPECT_GT(result.total, 0u);

  tracer.Disable();
  const std::string json = tracer.ToChromeTraceJson();
  const std::vector<ParsedEvent> events = ParseTraceEvents(json);
  ASSERT_FALSE(events.empty());

  std::map<std::pair<int, int>, double> last_ts;
  std::map<std::pair<int, int>, std::vector<std::string>> open;
  std::set<std::string> layers;
  for (const ParsedEvent& event : events) {
    if (event.ph == "M") continue;  // metadata carries no timestamp
    const std::pair<int, int> key{event.pid, event.tid};
    // Timestamps non-decreasing within each thread track.
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(event.ts, it->second);
    }
    last_ts[key] = event.ts;
    if (event.ph == "B") {
      open[key].push_back(event.name);
      const size_t slash = event.name.find('/');
      ASSERT_NE(slash, std::string::npos) << event.name;
      layers.insert(event.name.substr(0, slash));
    } else if (event.ph == "E") {
      // LIFO pairing with matching names: RAII spans nest properly.
      ASSERT_FALSE(open[key].empty())
          << "unbalanced E for " << event.name;
      EXPECT_EQ(open[key].back(), event.name);
      open[key].pop_back();
    } else {
      EXPECT_EQ(event.ph, "i");
    }
  }
  for (const auto& [key, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B on pid " << key.first;
  }

  // Spans from at least four distinct runtime layers (acceptance criterion).
  const std::set<std::string> runtime_layers = {"executor", "worker",
                                                "cluster", "enumerate", "bus"};
  int seen = 0;
  for (const std::string& layer : runtime_layers) {
    if (layers.count(layer)) ++seen;
  }
  EXPECT_GE(seen, 4) << "layers seen: " << layers.size();
  EXPECT_TRUE(layers.count("executor"));
  EXPECT_TRUE(layers.count("worker"));
  EXPECT_TRUE(layers.count("cluster"));
  EXPECT_TRUE(layers.count("enumerate"));
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);

  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i);
  }
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(4), 8u);
  EXPECT_EQ(Histogram::BucketUpperBound(4), 15u);
}

TEST(HistogramTest, RecordAndStats) {
  obs::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 11u);
  EXPECT_DOUBLE_EQ(h.Mean(), 11.0 / 4.0);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.ApproxPercentile(100), 4u);  // lower bound of bucket [4,7]
}

// Pins ApproxPercentile exactly at bucket boundaries: with 90 samples of 1
// and 10 of 1000, the 90th percentile is the last sample of the low bucket
// and the 91st the first of the high one — the estimate must flip between
// the two bucket lower bounds precisely there (DumpText/DumpPrometheus
// report these estimates as p50/p90/p99).
TEST(HistogramTest, ApproxPercentileAtBucketBoundaries) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);     // bucket [1,1], lb 1
  for (int i = 0; i < 10; ++i) h.Record(1000);  // bucket [512,1023], lb 512
  EXPECT_EQ(h.ApproxPercentile(50), 1u);
  EXPECT_EQ(h.ApproxPercentile(90), 1u);    // target 90 == cumulative 90
  EXPECT_EQ(h.ApproxPercentile(90.1), 512u);
  EXPECT_EQ(h.ApproxPercentile(99), 512u);
  EXPECT_EQ(h.ApproxPercentile(100), 512u);

  obs::Histogram empty;
  EXPECT_EQ(empty.ApproxPercentile(99), 0u);

  obs::Histogram one;
  one.Record(42);  // bucket [32,63]
  for (const double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(one.ApproxPercentile(p), 32u) << "p=" << p;
  }
}

// /profilez reads `seconds` and `hz` with Request::IntParam: the whole
// value must be a decimal int (no atoi prefix parse, no overflow), and an
// in-range value is clamped as before.
TEST(ExpositionParamTest, IntParamParsesWholeTokensOnly) {
  const auto param = [](const std::string& query) {
    obs::ExpositionServer::Request request;
    request.path = "/profilez";
    request.query = query;
    return request.IntParam("hz", 7, 1, 100);
  };
  EXPECT_EQ(param("").value(), 7);
  EXPECT_EQ(param("hz=").value(), 7);
  EXPECT_EQ(param("hz=42").value(), 42);
  EXPECT_EQ(param("seconds=3&hz=5").value(), 5);
  EXPECT_EQ(param("hz=100000").value(), 100);
  EXPECT_EQ(param("hz=-3").value(), 1);
  for (const char* bad :
       {"hz=abc", "hz=12abc", "hz= 12", "hz=1.5", "hz=+", "hz=-",
        "hz=2147483648", "hz=99999999999999999999", "hz=-2147483649"}) {
    SCOPED_TRACE(bad);
    const StatusOr<int> parsed = param(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MetricsTest, DumpTextReportsAllThreePercentiles) {
  obs::MetricsRegistry::Get().GetHistogram("test.dump_pcts").Record(100);
  const std::string text = obs::MetricsRegistry::Get().DumpText();
  const size_t line = text.find("test.dump_pcts");
  ASSERT_NE(line, std::string::npos);
  const std::string tail = text.substr(line, text.find('\n', line) - line);
  EXPECT_NE(tail.find("p50~"), std::string::npos) << tail;
  EXPECT_NE(tail.find("p90~"), std::string::npos) << tail;
  EXPECT_NE(tail.find("p99~"), std::string::npos) << tail;
}

// --- Metrics registry ------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIncrements) {
  obs::Counter& counter =
      obs::MetricsRegistry::Get().GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  const uint64_t before = counter.Value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (int j = 0; j < kIncrements; ++j) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value() - before,
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter& a = registry.GetCounter("test.stable");
  obs::Counter& b = registry.GetCounter("test.stable");
  EXPECT_EQ(&a, &b);
  registry.GetGauge("test.gauge").Set(-42);
  EXPECT_EQ(registry.GetGauge("test.gauge").Value(), -42);
}

TEST(MetricsTest, DumpsContainRecordedMetrics) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("test.dump_counter").Add(3);
  registry.GetHistogram("test.dump_histogram").Record(6);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("test.dump_counter"), std::string::npos);
  EXPECT_NE(text.find("test.dump_histogram"), std::string::npos);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"test.dump_counter\":3"), std::string::npos);
  // Value 6 lands in the bucket with lower bound 4.
  EXPECT_NE(json.find("\"test.dump_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"4\":1"), std::string::npos);
}

// --- Step progress ---------------------------------------------------------

TEST(ProgressTest, SamplerSeesWorkerDeltasBeforeTheBarrier) {
  // Two workers of one thread each, every thread holding more than four
  // publish batches of roots: a live sampler must see each worker's units
  // arrive batch by batch while the step runs, not all at the barrier. The
  // sleepy filter stretches the step so samples land mid-step; the step's
  // own progress ticks sample alongside without disturbing this sampler.
  constexpr uint32_t kWorkers = 2;
  constexpr uint32_t kRootsPerThread =
      4 * obs::HotMetrics::kPublishBatch + 512;
  ClusterOptions options;
  options.num_workers = kWorkers;
  options.threads_per_worker = 1;
  options.external_work_stealing = false;
  options.progress_interval_ms = 50;
  Cluster cluster(options);
  FractalContext fctx;
  const FractalGraph graph =
      fctx.FromGraph(testgraphs::Path(kWorkers * kRootsPerThread));
  LocalFilterFn sleepy = [](const Subgraph&, Computation&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return true;
  };
  ExecutionConfig config;
  config.cluster = &cluster;
  obs::ProgressSampler sampler([&cluster](std::vector<uint64_t>* out) {
    cluster.SampleWorkerUnits(out);
  });

  std::atomic<bool> done{false};
  uint64_t count = 0;
  std::thread driver([&] {
    count = graph.VFractoid().Expand(1).Filter(sleepy).CountSubgraphs(config);
    done.store(true);
  });
  // Per worker: samples that saw its units grow while the step was still
  // in flight (the step-active gauge drops only after the barrier).
  std::vector<uint32_t> live_samples(kWorkers, 0);
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const obs::ProgressSnapshot snapshot = sampler.Sample();
    if (obs::StepActiveGauge().Value() != 1) continue;
    ASSERT_EQ(snapshot.worker_units_delta.size(), kWorkers);
    for (uint32_t w = 0; w < kWorkers; ++w) {
      if (snapshot.worker_units_delta[w] > 0) ++live_samples[w];
    }
  }
  driver.join();
  EXPECT_EQ(count, uint64_t{kWorkers} * kRootsPerThread);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    // At least two distinct arrivals: a thread's final publish when it
    // leaves the step is one, so any more come from mid-step batches.
    EXPECT_GE(live_samples[w], 2u) << "worker " << w;
  }
}

size_t ProcessThreadCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

TEST(ProgressTest, BarrierWaitTicksWithoutAReporterThread) {
  // The step's progress log is driven by the submitting thread's barrier
  // wait: the step runs on exactly the threads that existed before it, and
  // the units-per-second gauge moves mid-step although nothing but the
  // step itself samples it.
  ClusterOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 2;
  options.progress_interval_ms = 5;
  Cluster cluster(options);
  FractalContext fctx;
  // Several publish batches per thread, so several ticks see units move.
  constexpr uint32_t kSubgraphs = 8 * obs::HotMetrics::kPublishBatch;
  const FractalGraph graph = fctx.FromGraph(testgraphs::Path(kSubgraphs));
  LocalFilterFn sleepy = [](const Subgraph&, Computation&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return true;
  };
  ExecutionConfig config;
  config.cluster = &cluster;
  obs::UnitsPerSecGauge().Set(0);

  std::atomic<bool> done{false};
  size_t min_threads = SIZE_MAX;
  size_t max_threads = 0;
  bool units_per_sec_moved = false;
  std::thread monitor([&] {
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (obs::StepActiveGauge().Value() != 1) continue;
      const size_t threads = ProcessThreadCount();
      min_threads = std::min(min_threads, threads);
      max_threads = std::max(max_threads, threads);
      if (obs::UnitsPerSecGauge().Value() > 0) units_per_sec_moved = true;
    }
  });
  // Counted with the monitor running: it and the test thread are the only
  // threads outside the cluster.
  const size_t threads_before = ProcessThreadCount();
  const uint64_t count =
      graph.VFractoid().Expand(1).Filter(sleepy).CountSubgraphs(config);
  done.store(true);
  monitor.join();
  EXPECT_EQ(count, kSubgraphs);
  ASSERT_GT(max_threads, 0u) << "the monitor never saw the step in flight";
  EXPECT_EQ(min_threads, threads_before);
  EXPECT_EQ(max_threads, threads_before);
  EXPECT_TRUE(units_per_sec_moved);
}

TEST(ProgressTest, CondVarWaitForTimesOut) {
  Mutex mu("test.waitfor");
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, /*timeout_ms=*/5));  // nobody notifies
}

}  // namespace
}  // namespace fractal
