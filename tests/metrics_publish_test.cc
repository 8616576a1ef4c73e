// Exactness of the thread-owned hot-path accounting (obs::HotMetrics,
// DESIGN.md §6): execution threads count work units, kernel calls, scratch
// hits and extension batch sizes into their own blocks and publish them in
// batches, so the registry must still be exact at every step barrier — on
// any cluster shape, through a crash unwind and a cancellation — and counts
// made on threads outside the runtime must arrive when the thread exits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/cliques.h"
#include "apps/motifs.h"
#include "core/context.h"
#include "enumerate/extension.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/query.h"

namespace fractal {
namespace {

using Buckets = std::array<uint64_t, obs::Histogram::kNumBuckets>;

/// The registry values the hot path feeds, read at one instant.
struct Reading {
  uint64_t work_units = 0;
  uint64_t intersections = 0;
  uint64_t galloped = 0;
  uint64_t scratch_hits = 0;
  uint64_t batch_count = 0;
  uint64_t batch_sum = 0;
  Buckets batch_buckets{};

  static Reading Take() {
    Reading r;
    r.work_units = obs::WorkUnitsCounter().Value();
    r.intersections = obs::IntersectionKernelsCounter().Value();
    r.galloped = obs::GallopedKernelsCounter().Value();
    r.scratch_hits = obs::ScratchHitsCounter().Value();
    const obs::Histogram& batches = obs::ExtensionBatchHistogram();
    r.batch_count = batches.Count();
    r.batch_sum = batches.Sum();
    for (size_t i = 0; i < r.batch_buckets.size(); ++i) {
      r.batch_buckets[i] = batches.BucketCount(i);
    }
    return r;
  }

  Reading operator-(const Reading& before) const {
    Reading d;
    d.work_units = work_units - before.work_units;
    d.intersections = intersections - before.intersections;
    d.galloped = galloped - before.galloped;
    d.scratch_hits = scratch_hits - before.scratch_hits;
    d.batch_count = batch_count - before.batch_count;
    d.batch_sum = batch_sum - before.batch_sum;
    for (size_t i = 0; i < d.batch_buckets.size(); ++i) {
      d.batch_buckets[i] = batch_buckets[i] - before.batch_buckets[i];
    }
    return d;
  }
};

Graph SkewedGraph() {
  PowerLawParams params;
  params.num_vertices = 600;
  params.edges_per_vertex = 4;
  params.seed = 7;
  return GeneratePowerLaw(params);
}

ClusterOptions Shape(uint32_t workers, uint32_t threads) {
  ClusterOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.external_work_stealing = workers > 1;
  options.network.latency_micros = 1;
  return options;
}

struct ShapeRun {
  uint32_t threads = 0;
  uint64_t telemetry_units = 0;
  Reading delta;
};

// Every cluster shape enumerates the same DFS nodes, so the kernel counts
// and the per-node batch sizes agree exactly. The one shape-dependent term
// is the root partition: each thread refills its frame 0 once with its
// slice of the roots (every thread gets a non-empty slice here), so the
// batch count differs by the thread count while the batch sum — every root
// once, plus every node's extensions — does not.
template <typename RunFn>
void ExpectExactAcrossShapes(RunFn run) {
  std::vector<ShapeRun> runs;
  for (const auto& [workers, threads] :
       {std::pair{1u, 1u}, std::pair{1u, 4u}, std::pair{2u, 2u}}) {
    // A persistent cluster: its threads outlive the execution, so the
    // deltas below are what the step barriers published, not what thread
    // exit flushed.
    Cluster cluster(Shape(workers, threads));
    ExecutionConfig config;
    config.cluster = &cluster;
    const Reading before = Reading::Take();
    const ExecutionResult result = run(config);
    ShapeRun shape;
    shape.delta = Reading::Take() - before;
    ASSERT_TRUE(result.status.ok()) << result.status;
    shape.threads = workers * threads;
    shape.telemetry_units = result.telemetry.TotalWorkUnits();
    runs.push_back(shape);
  }
  for (const ShapeRun& shape : runs) {
    SCOPED_TRACE(testing::Message() << shape.threads << " threads");
    // Big enough that the threads published mid-step, not only on exit.
    EXPECT_GT(shape.telemetry_units,
              shape.threads * obs::HotMetrics::kPublishBatch);
    EXPECT_EQ(shape.delta.work_units, shape.telemetry_units);
    EXPECT_EQ(shape.telemetry_units, runs[0].telemetry_units);
    EXPECT_EQ(shape.delta.intersections, runs[0].delta.intersections);
    EXPECT_EQ(shape.delta.galloped, runs[0].delta.galloped);
    EXPECT_EQ(shape.delta.batch_sum, runs[0].delta.batch_sum);
    EXPECT_EQ(shape.delta.batch_count - shape.threads,
              runs[0].delta.batch_count - runs[0].threads);
  }
  EXPECT_GT(runs[0].delta.intersections, 0u);
}

TEST(HotMetricsExactnessTest, MotifsAreExactOnEveryShape) {
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(SkewedGraph());
  ExpectExactAcrossShapes([&](const ExecutionConfig& config) {
    return CountMotifs(graph, 3, config).execution;
  });
}

TEST(HotMetricsExactnessTest, TrianglesAreExactOnEveryShape) {
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(SkewedGraph());
  ExpectExactAcrossShapes([&](const ExecutionConfig& config) {
    return CliquesFractoid(graph, 3).Execute(config);
  });
}

/// Consumes one work unit per root; the query (if any) is cancelled once
/// `cancel_at` units have been consumed across all threads.
class CountingTask : public StepTask {
 public:
  CountingTask(QueryControl* query, uint64_t cancel_at)
      : query_(query), cancel_at_(cancel_at) {}

  void DrainRoots(ThreadContext& t, std::vector<uint32_t> roots) override {
    for (size_t i = 0; i < roots.size(); ++i) {
      if (query_ != nullptr &&
          consumed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
              cancel_at_) {
        query_->RequestCancel();
      }
      if (!t.ConsumeWorkUnit()) return;
    }
  }
  void ProcessStolen(ThreadContext&,
                     const SubgraphEnumerator::StolenWork&) override {}
  void FinishThread(ThreadContext&) override {}

 private:
  QueryControl* query_;
  uint64_t cancel_at_;
  std::atomic<uint64_t> consumed_{0};
};

std::vector<uint32_t> Roots(uint32_t n) {
  std::vector<uint32_t> roots(n);
  for (uint32_t i = 0; i < n; ++i) roots[i] = i;
  return roots;
}

uint64_t Sum(const std::vector<uint64_t>& values) {
  uint64_t total = 0;
  for (const uint64_t v : values) total += v;
  return total;
}

/// Registry and per-worker deltas of one step must equal the units its
/// ThreadStats report, worker by worker.
void ExpectStepPublishedExactly(Cluster& cluster, CountingTask& task,
                                const Cluster::StepOptions& options,
                                uint32_t num_roots,
                                Cluster::StepResult* result) {
  std::vector<uint64_t> workers_before;
  cluster.SampleWorkerUnits(&workers_before);
  const uint64_t before = obs::WorkUnitsCounter().Value();
  *result = cluster.RunStep(task, Roots(num_roots), options);
  const uint64_t published = obs::WorkUnitsCounter().Value() - before;
  std::vector<uint64_t> workers_after;
  cluster.SampleWorkerUnits(&workers_after);

  const uint64_t units = result->telemetry.TotalWorkUnits();
  EXPECT_GT(units, 0u);
  EXPECT_LT(units, num_roots);  // the step really was cut short
  EXPECT_EQ(published, units);
  std::vector<uint64_t> per_worker(workers_after.size(), 0);
  for (const ThreadStats& t : result->telemetry.threads) {
    per_worker[t.worker_id] += t.work_units;
  }
  for (size_t w = 0; w < per_worker.size(); ++w) {
    EXPECT_EQ(workers_after[w] - workers_before[w], per_worker[w])
        << "worker " << w;
  }
  EXPECT_EQ(Sum(workers_after) - Sum(workers_before), units);
}

TEST(HotMetricsExactnessTest, CrashUnwindPublishesExactlyItsUnits) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  Cluster cluster(options);
  CountingTask task(nullptr, 0);
  Cluster::StepOptions step_options;
  step_options.num_levels = 1;
  // Worker 1 crashes after 3000 of its 10000 units: its threads unwind
  // mid-batch, worker 0 drains to the end.
  step_options.fault_injector = std::make_shared<FaultInjector>(
      FaultPlan().CrashWorker(1, 3000));
  Cluster::StepResult result;
  ExpectStepPublishedExactly(cluster, task, step_options, 20000, &result);
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->worker, 1);
}

TEST(HotMetricsExactnessTest, CancelledStepPublishesExactlyItsUnits) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  Cluster cluster(options);
  QueryControl query;
  CountingTask task(&query, 7000);
  Cluster::StepOptions step_options;
  step_options.num_levels = 1;
  step_options.query = &query;
  Cluster::StepResult result;
  ExpectStepPublishedExactly(cluster, task, step_options, 20000, &result);
  EXPECT_TRUE(result.cancelled);
}

TEST(HotMetricsExactnessTest, KernelCallOffTheRuntimeArrivesAtThreadExit) {
  const std::vector<uint32_t> a = {1, 3, 5, 7, 9};
  const std::vector<uint32_t> b = {3, 4, 5, 6};
  const uint64_t before = obs::IntersectionKernelsCounter().Value();
  uint64_t seen_inside = 0;
  std::thread caller([&] {
    std::vector<uint32_t> out;
    adjacency::Intersect(a, b, &out);
    adjacency::Difference(a, b, &out);
    // Still thread-owned: nothing is published per call.
    seen_inside = obs::IntersectionKernelsCounter().Value() - before;
  });
  caller.join();
  EXPECT_EQ(seen_inside, 0u);
  EXPECT_EQ(obs::IntersectionKernelsCounter().Value() - before, 2u);
}

/// Serial model of what a one-thread motif step records: Refill's batch
/// sizes for the root partition and for every expanded DFS node (empty ones
/// included), and FractoidStepTask's enumerator-state accounting.
struct ModelStep {
  Buckets batches{};
  uint64_t batch_count = 0;
  uint64_t empty_nodes = 0;
  uint64_t peak_state_bytes = 0;
};

ModelStep ModelMotifStep(const Graph& graph, uint32_t k) {
  ModelStep model;
  const VertexInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  std::vector<uint64_t> frame_bytes(k, 0);
  uint64_t state_bytes = 0;
  auto record = [&](uint64_t size) {
    ++model.batches[obs::Histogram::BucketIndex(size)];
    ++model.batch_count;
  };
  auto expand = [&](auto&& self) -> void {
    const uint32_t depth = subgraph.Depth();
    if (depth == k) return;
    std::vector<uint32_t> extensions;
    std::vector<EdgeId> rows;
    strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, &rows);
    state_bytes -= frame_bytes[depth];
    frame_bytes[depth] = extensions.size() * sizeof(uint32_t) +
                         rows.size() * sizeof(EdgeId) +
                         subgraph.NumVertices() * sizeof(VertexId) +
                         subgraph.NumEdges() * sizeof(EdgeId);
    state_bytes += frame_bytes[depth];
    model.peak_state_bytes = std::max(model.peak_state_bytes, state_bytes);
    record(extensions.size());
    if (extensions.empty()) ++model.empty_nodes;
    const size_t width =
        extensions.empty() ? 0 : rows.size() / extensions.size();
    for (size_t i = 0; i < extensions.size(); ++i) {
      strategy.Apply(graph, extensions[i],
                     std::span<const EdgeId>(rows.data() + i * width, width),
                     &subgraph);
      self(self);
      strategy.Undo(graph, &subgraph);
    }
  };
  std::vector<uint32_t> roots;
  strategy.ComputeExtensions(graph, subgraph, ctx, &roots, nullptr);
  record(roots.size());
  for (const uint32_t root : roots) {
    strategy.Apply(graph, root, {}, &subgraph);
    expand(expand);
    strategy.Undo(graph, &subgraph);
  }
  return model;
}

TEST(HotMetricsExactnessTest, EmptyFrameSkipKeepsStateBytesAndBatchSizes) {
  FractalContext fctx;
  const Graph g = SkewedGraph();
  const ModelStep model = ModelMotifStep(g, 3);
  // The skip must actually be exercised.
  ASSERT_GT(model.empty_nodes, 0u);
  ASSERT_EQ(model.batches[0], model.empty_nodes);

  const FractalGraph graph = fctx.FromGraph(Graph(g));
  const Reading before = Reading::Take();
  Cluster cluster(Shape(1, 1));
  ExecutionConfig config;
  config.cluster = &cluster;
  const MotifsResult result = CountMotifs(graph, 3, config);
  const Reading delta = Reading::Take() - before;
  ASSERT_TRUE(result.execution.status.ok()) << result.execution.status;
  EXPECT_EQ(delta.batch_count, model.batch_count);
  EXPECT_EQ(delta.batch_buckets, model.batches);
  EXPECT_EQ(result.execution.peak_state_bytes, model.peak_state_bytes);
}

}  // namespace
}  // namespace fractal
