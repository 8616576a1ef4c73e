// Multi-tenant query scheduler tests (DESIGN.md §12): concurrent fractoid
// executions on one shared Cluster with weighted-fair step admission,
// cooperative cancellation, deadlines and admission control.
//
// Suites:
//   SchedulerTest         — runtime-level ScheduledQuery/QueryScheduler
//   AsyncExecutorTest     — core-level ExecuteFractoidAsync / QueryHandle
//   ExecutorContractTest  — same-fractoid-concurrently guard
//   SchedulerChaosTest    — fault injection × concurrent queries (the ci.sh
//                           scheduler stage runs this filter separately)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/executor.h"
#include "core/fractoid.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/cluster.h"
#include "runtime/fault.h"
#include "runtime/query_scheduler.h"
#include "util/status.h"
#include "util/strings.h"

namespace fractal {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;
using std::chrono::steady_clock;

ClusterOptions SharedClusterOptions(uint32_t workers = 1,
                                    uint32_t threads = 4) {
  ClusterOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.external_work_stealing = workers > 1;
  options.network.latency_micros = workers > 1 ? 1 : 0;
  return options;
}

/// A local filter that passes everything but sleeps per subgraph — makes a
/// query's steps take long enough to observe interleaving / cancel mid-step.
LocalFilterFn SleepyFilter(int micros) {
  return [micros](const Subgraph&, Computation&) {
    if (micros > 0) std::this_thread::sleep_for(microseconds(micros));
    return true;
  };
}

/// Builds a fresh `1 + rounds`-step workflow over `graph`: every round adds
/// an aggregation sync point (step boundary), an always-true aggregation
/// filter and one more expansion. Fresh per call — no cached steps, so two
/// builds with the same arguments enumerate identically.
Fractoid MultiStepFractoid(const FractalGraph& graph, uint32_t rounds,
                           int sleep_micros) {
  Fractoid f = graph.VFractoid().Expand(1).Filter(SleepyFilter(sleep_micros));
  for (uint32_t r = 0; r < rounds; ++r) {
    const std::string name = StrFormat("count%u", r);
    f = f.Aggregate<uint64_t, uint64_t>(
             name, [](const Subgraph&, Computation&) -> uint64_t { return 0; },
             [](const Subgraph&, Computation&) -> uint64_t { return 1; },
             [](uint64_t& a, uint64_t&& b) { a += b; })
            .FilterByAggregation<uint64_t, uint64_t>(
                name, [](const Subgraph&, Computation&,
                         const AggregationStorage<uint64_t, uint64_t>&) {
                  return true;
                })
            .Expand(1)
            .Filter(SleepyFilter(sleep_micros));
  }
  return f;
}

// --- Runtime-level scheduler behavior ------------------------------------

TEST(SchedulerTest, AdmissionOverflowReturnsResourceExhausted) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  options.max_queued = 2;
  QueryScheduler scheduler(&cluster, options);
  const uint64_t rejected_before = obs::QueriesRejectedCounter().Value();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  const auto body = [gate](QueryControl&) {
    gate.wait();
    return Status::Ok();
  };

  // One running (occupies the only driver) + two queued fills the scheduler.
  auto running = scheduler.Submit({.name = "blocker"}, body);
  ASSERT_TRUE(running.ok()) << running.status();
  // Wait until the driver picked it up, so the queue really has room for 2.
  while ((*running)->state() != ScheduledQuery::State::kRunning) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  auto queued1 = scheduler.Submit({.name = "waiter-1"}, body);
  auto queued2 = scheduler.Submit({.name = "waiter-2"}, body);
  ASSERT_TRUE(queued1.ok() && queued2.ok());

  // Backpressure: the fourth submission bounces.
  auto overflow = scheduler.Submit({.name = "overflow"}, body);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(obs::QueriesRejectedCounter().Value(), rejected_before + 1);

  release.set_value();
  EXPECT_TRUE((*running)->Join().ok());
  EXPECT_TRUE((*queued1)->Join().ok());
  EXPECT_TRUE((*queued2)->Join().ok());
  EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(SchedulerTest, CancelWhileQueuedResolvesWithoutRunning) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  QueryScheduler scheduler(&cluster, options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> bodies_run{0};
  auto blocker = scheduler.Submit({.name = "blocker"}, [&](QueryControl&) {
    bodies_run.fetch_add(1);
    gate.wait();
    return Status::Ok();
  });
  ASSERT_TRUE(blocker.ok());
  auto victim = scheduler.Submit({.name = "victim"}, [&](QueryControl&) {
    bodies_run.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(victim.ok());

  (*victim)->Cancel();
  release.set_value();

  const Status status = (*victim)->Join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_TRUE((*blocker)->Join().ok());
  // The cancelled query's body never ran: only the blocker's did.
  EXPECT_EQ(bodies_run.load(), 1);
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(SchedulerTest, DeadlineWhileQueuedResolvesDeadlineExceeded) {
  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 1;
  QueryScheduler scheduler(&cluster, options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto blocker = scheduler.Submit(
      {.name = "blocker"},
      [gate](QueryControl&) {
        gate.wait();
        return Status::Ok();
      });
  ASSERT_TRUE(blocker.ok());
  while ((*blocker)->state() != ScheduledQuery::State::kRunning) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  auto doomed = scheduler.Submit({.name = "doomed", .deadline_ms = 20},
                                 [](QueryControl&) { return Status::Ok(); });
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(milliseconds(60));  // let the deadline lapse
  release.set_value();

  EXPECT_EQ((*doomed)->Join().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE((*blocker)->Join().ok());
  EXPECT_EQ((*doomed)->control().steps_run.load(), 0u);
  EXPECT_EQ(scheduler.stats().deadline_exceeded, 1u);
}

TEST(SchedulerTest, ShutdownResolvesOutstandingQueries) {
  Cluster cluster(SharedClusterOptions());
  std::shared_ptr<ScheduledQuery> queued;
  std::atomic<bool> queued_body_ran{false};
  {
    QuerySchedulerOptions options;
    options.max_active = 1;
    QueryScheduler scheduler(&cluster, options);
    // The blocker unblocks only when CancelAll flips its flag, so the sole
    // driver is guaranteed to still be busy when the destructor latches the
    // queued query's cancel (queue_ is cancelled before active_, and the
    // release/acquire pair on cancel_requested orders the two stores).
    auto blocker = scheduler.Submit(
        {.name = "blocker"},
        [](QueryControl& control) {
          while (!control.cancelled()) {
            std::this_thread::sleep_for(milliseconds(1));
          }
          return CancelledError("observed cancel");
        });
    ASSERT_TRUE(blocker.ok());
    auto waiting = scheduler.Submit(
        {.name = "queued"}, [&queued_body_ran](QueryControl&) {
          queued_body_ran = true;
          return Status::Ok();
        });
    ASSERT_TRUE(waiting.ok());
    queued = *waiting;
    // Destructor: CancelAll + drain. Must not hang, and must resolve the
    // queued handle even though its body never runs.
  }
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->Join().code(), StatusCode::kCancelled);
  EXPECT_FALSE(queued_body_ran.load());
}

// --- Core-level async execution on a shared cluster ----------------------

TEST(AsyncExecutorTest, ConcurrentQueriesMatchSerialExecution) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 91);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  // Serial ground truth, one fresh fractoid per shape.
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  std::vector<uint64_t> expected;
  for (uint32_t rounds = 0; rounds < 3; ++rounds) {
    const ExecutionResult result =
        MultiStepFractoid(graph, rounds, 0).Execute(serial);
    ASSERT_TRUE(result.status.ok()) << result.status;
    expected.push_back(result.num_subgraphs);
  }

  Cluster cluster(SharedClusterOptions());
  QuerySchedulerOptions options;
  options.max_active = 3;
  QueryScheduler scheduler(&cluster, options);

  // Two interleaved batches: 6 queries over 3 shapes, all in flight at once.
  std::vector<Fractoid> fractoids;
  for (int batch = 0; batch < 2; ++batch) {
    for (uint32_t rounds = 0; rounds < 3; ++rounds) {
      fractoids.push_back(MultiStepFractoid(graph, rounds, 0));
    }
  }
  std::vector<QueryHandle> handles;
  ExecutionConfig config;
  for (size_t i = 0; i < fractoids.size(); ++i) {
    auto handle = ExecuteFractoidAsync(
        fractoids[i], config, scheduler,
        {.name = StrFormat("q%zu", i)});
    ASSERT_TRUE(handle.ok()) << handle.status();
    handles.push_back(*std::move(handle));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const ExecutionResult& result = handles[i].Wait();
    ASSERT_TRUE(result.status.ok()) << "query " << i << ": " << result.status;
    // Bit-exact against the serial run of the same shape.
    EXPECT_EQ(result.num_subgraphs, expected[i % 3]) << "query " << i;
  }
  EXPECT_EQ(scheduler.stats().completed, handles.size());
}

TEST(AsyncExecutorTest, TwoQueriesOverlapOnSharedCluster) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 17);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions(/*workers=*/1, /*threads=*/4));
  QueryScheduler scheduler(&cluster, {.max_active = 2});

  // Multi-step + sleepy filters: each query's steps take tens of ms, so the
  // two alternate at the step-admission gate for a while.
  Fractoid a = MultiStepFractoid(graph, 3, 150);
  Fractoid b = MultiStepFractoid(graph, 3, 150);
  ExecutionConfig config;
  auto ha = ExecuteFractoidAsync(a, config, scheduler, {.name = "alpha"});
  auto hb = ExecuteFractoidAsync(b, config, scheduler, {.name = "beta"});
  ASSERT_TRUE(ha.ok() && hb.ok());

  // Poll for simultaneous progress: both unfinished while both have
  // completed at least one step (work_units advances at step barriers).
  bool overlapped = false;
  bool statusz_saw_both = false;
  while (!ha->done() || !hb->done()) {
    if (!ha->done() && !hb->done() &&
        ha->control().work_units.load() > 0 &&
        hb->control().work_units.load() > 0) {
      overlapped = true;
      const std::string statusz = cluster.RenderStatusz();
      if (statusz.find("alpha") != std::string::npos &&
          statusz.find("beta") != std::string::npos) {
        statusz_saw_both = true;
      }
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(overlapped)
      << "queries never made progress simultaneously on the shared cluster";
  EXPECT_TRUE(statusz_saw_both)
      << "/statusz never showed per-query rows for both in-flight queries";

  const ExecutionResult& ra = ha->Wait();
  const ExecutionResult& rb = hb->Wait();
  ASSERT_TRUE(ra.status.ok()) << ra.status;
  ASSERT_TRUE(rb.status.ok()) << rb.status;
  // Same shape, same graph: interleaving must not change the answer.
  EXPECT_EQ(ra.num_subgraphs, rb.num_subgraphs);
  EXPECT_EQ(ha->control().steps_run.load(), 4u);
  EXPECT_EQ(hb->control().steps_run.load(), 4u);
}

/// Direct RunStep work: one work unit per root, no enumeration.
class UnitPerRootTask : public StepTask {
 public:
  void DrainRoots(ThreadContext& t, std::vector<uint32_t> roots) override {
    for (size_t i = 0; i < roots.size(); ++i) {
      if (!t.ConsumeWorkUnit()) return;
    }
  }
  void ProcessStolen(ThreadContext&,
                     const SubgraphEnumerator::StolenWork&) override {}
  void FinishThread(ThreadContext&) override {}
};

TEST(AsyncExecutorTest, DirectRunStepsShareTheGateWithScheduledQueries) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 17);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  const ExecutionResult expected =
      MultiStepFractoid(graph, 2, 0).Execute(serial);
  ASSERT_TRUE(expected.status.ok()) << expected.status;

  Cluster cluster(SharedClusterOptions(/*workers=*/1, /*threads=*/4));
  QueryScheduler scheduler(&cluster, {.max_active = 2});
  Fractoid a = MultiStepFractoid(graph, 2, 50);
  Fractoid b = MultiStepFractoid(graph, 2, 50);
  ExecutionConfig config;
  auto ha = ExecuteFractoidAsync(a, config, scheduler, {.name = "alpha"});
  auto hb = ExecuteFractoidAsync(b, config, scheduler, {.name = "beta"});
  ASSERT_TRUE(ha.ok() && hb.ok());

  // Steps submitted with no QueryControl run under the cluster's own one
  // and pass the same admission gate as the scheduled queries' steps.
  UnitPerRootTask task;
  Cluster::StepOptions step_options;
  step_options.num_levels = 1;
  const std::vector<uint32_t> roots(64, 0);
  for (int step = 0; step < 20; ++step) {
    const Cluster::StepResult result =
        cluster.RunStep(task, roots, step_options);
    EXPECT_FALSE(result.cancelled);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.telemetry.TotalWorkUnits(), roots.size());
  }

  for (QueryHandle* handle : {&*ha, &*hb}) {
    const ExecutionResult& result = handle->Wait();
    ASSERT_TRUE(result.status.ok()) << handle->name() << ": " << result.status;
    EXPECT_EQ(result.num_subgraphs, expected.num_subgraphs);
    // Every unit of the query's own steps, and none of the direct steps'.
    uint64_t units = 0;
    for (const StepTelemetry& step : result.telemetry.steps) {
      units += step.TotalWorkUnits();
    }
    EXPECT_GT(units, 0u);
    EXPECT_EQ(handle->control().work_units.load(), units) << handle->name();
  }
}

TEST(AsyncExecutorTest, CancellationMidStepUnwindsAndClusterStaysUsable) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 23);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 2});
  const uint64_t cancelled_before = obs::QueriesCancelledCounter().Value();

  Fractoid slow = MultiStepFractoid(graph, 4, 400);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(slow, config, scheduler,
                                     {.name = "cancel-me"});
  ASSERT_TRUE(handle.ok());

  // Let it get properly underway (at least one step barrier crossed), then
  // cancel mid-flight.
  while (handle->control().work_units.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  handle->Cancel();
  const ExecutionResult& result = handle->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled) << result.status;
  EXPECT_EQ(obs::QueriesCancelledCounter().Value(), cancelled_before + 1);

  // The unwound step left no residue: the same cluster keeps serving
  // fresh executions with exact counts.
  ExecutionConfig reuse;
  reuse.cluster = &cluster;
  const ExecutionResult after =
      MultiStepFractoid(graph, 1, 0).Execute(reuse);
  ASSERT_TRUE(after.status.ok()) << after.status;
  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  EXPECT_EQ(after.num_subgraphs,
            MultiStepFractoid(graph, 1, 0).Execute(serial).num_subgraphs);
}

TEST(AsyncExecutorTest, DeadlineExpiryReturnsDeadlineExceeded) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 29);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 1});
  const uint64_t expired_before =
      obs::QueriesDeadlineExceededCounter().Value();

  // Plenty of sleepy work units: far more than 40ms of enumeration.
  Fractoid slow = MultiStepFractoid(graph, 4, 500);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(slow, config, scheduler,
                                     {.name = "deadline", .deadline_ms = 40});
  ASSERT_TRUE(handle.ok());
  const ExecutionResult& result = handle->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
      << result.status;
  EXPECT_EQ(obs::QueriesDeadlineExceededCounter().Value(),
            expired_before + 1);
  EXPECT_TRUE(handle->control().DeadlineHit());
}

TEST(AsyncExecutorTest, RejectsForeignClusterAndPrewiredQuery) {
  Cluster cluster(SharedClusterOptions());
  Cluster other(SharedClusterOptions());
  QueryScheduler scheduler(&cluster);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(10, 20, 1, 1, 3));
  const Fractoid fractoid = graph.VFractoid().Expand(1);

  ExecutionConfig foreign;
  foreign.cluster = &other;
  EXPECT_EQ(ExecuteFractoidAsync(fractoid, foreign, scheduler)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  QueryControl control;
  ExecutionConfig prewired;
  prewired.query = &control;
  EXPECT_EQ(ExecuteFractoidAsync(fractoid, prewired, scheduler)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --- Same-fractoid concurrency contract ----------------------------------

TEST(ExecutorContractTest, SameFractoidConcurrentlyFailsPrecondition) {
  const Graph g = GenerateRandomGraph(60, 220, 1, 1, 41);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  Cluster cluster(SharedClusterOptions());
  QueryScheduler scheduler(&cluster, {.max_active = 2});

  Fractoid fractoid = MultiStepFractoid(graph, 3, 300);
  ExecutionConfig config;
  auto handle = ExecuteFractoidAsync(fractoid, config, scheduler,
                                     {.name = "first"});
  ASSERT_TRUE(handle.ok());
  // After the first step barrier the async run is provably inside the
  // executor, holding the fractoid's execution state.
  while (handle->control().work_units.load() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Same fractoid value, synchronous, on its own ephemeral cluster: the
  // shared cached-execution-state makes this unsupported.
  ExecutionConfig sync_config;
  sync_config.num_workers = 1;
  sync_config.threads_per_worker = 2;
  const ExecutionResult clash = fractoid.Execute(sync_config);
  EXPECT_EQ(clash.status.code(), StatusCode::kFailedPrecondition)
      << clash.status;

  const ExecutionResult& first = handle->Wait();
  EXPECT_TRUE(first.status.ok()) << first.status;

  // Once the first execution resolved, the fractoid is executable again.
  const ExecutionResult again = fractoid.Execute(sync_config);
  EXPECT_TRUE(again.status.ok()) << again.status;
}

// --- Chaos: fault injection × concurrent queries -------------------------

TEST(SchedulerChaosTest, WorkerCrashDuringConcurrentQueries) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, 77);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig serial;
  serial.num_workers = 1;
  serial.threads_per_worker = 4;
  const uint64_t expected =
      MultiStepFractoid(graph, 2, 0).Execute(serial).num_subgraphs;

  ClusterOptions cluster_options = SharedClusterOptions(/*workers=*/2,
                                                        /*threads=*/2);
  Cluster cluster(cluster_options);

  for (int round = 0; round < 3; ++round) {
    QueryScheduler scheduler(&cluster, {.max_active = 3});
    std::vector<Fractoid> fractoids;
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 3; ++i) {
      fractoids.push_back(MultiStepFractoid(graph, 2, 50));
    }
    for (int i = 0; i < 3; ++i) {
      ExecutionConfig config;
      if (i == 0) {
        // One tenant crashes worker 1 mid-step; per-query step retry must
        // recover it without disturbing the clean tenants.
        config.fault_plan = FaultPlan(round + 1).CrashWorker(1, 40);
      }
      auto handle = ExecuteFractoidAsync(
          fractoids[i], config, scheduler,
          {.name = i == 0 ? std::string("chaos") : StrFormat("clean-%d", i)});
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*std::move(handle));
    }
    for (int i = 0; i < 3; ++i) {
      const ExecutionResult& result = handles[i].Wait();
      ASSERT_TRUE(result.status.ok())
          << "round " << round << " query " << i << ": " << result.status;
      EXPECT_EQ(result.num_subgraphs, expected)
          << "round " << round << " query " << i;
    }
    EXPECT_GT(handles[0].Wait().steps_retried, 0u)
        << "round " << round << ": fault plan never fired";
    // The crashed worker stays excluded until explicitly re-admitted.
    cluster.RestoreAllWorkers();
  }
}

}  // namespace
}  // namespace fractal
