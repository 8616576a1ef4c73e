// Slim execution driver: compiles the workflow into fractal steps
// (Algorithm 2), binds cached aggregation storages, submits one
// FractoidStepTask per step to the runtime Cluster (ephemeral per
// execution, or injected and shared via ExecutionConfig::cluster), retries
// crashed steps per the RetryPolicy — from scratch, or under
// RetryPolicy::Mode::kSalvage by replaying only the crashed worker's
// unfinished fractoid tasks out of the lineage ledger while the survivors'
// committed results are retained — and merges/publishes the results. All
// thread lifecycle, partitioning, and work stealing live in
// runtime/cluster.* / worker.*.
#include "core/executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "core/fractoid_task.h"
#include "core/step.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "runtime/lineage.h"
#include "util/strings.h"
#include "util/timer.h"

namespace fractal {
namespace {

/// Maps an execution configuration onto a cluster shape. WS_ext needs at
/// least two workers to have a victim, so the flag is normalized off for
/// single-worker configs (the seed executor did the same silently).
ClusterOptions ToClusterOptions(const ExecutionConfig& config) {
  ClusterOptions options;
  options.num_workers = config.num_workers;
  options.threads_per_worker = config.threads_per_worker;
  options.internal_work_stealing = config.internal_work_stealing;
  options.external_work_stealing =
      config.external_work_stealing && config.num_workers >= 2;
  options.network = config.network;
  options.progress_interval_ms = config.progress_interval_ms;
  options.statusz_port = config.statusz_port;
  return options;
}

/// All-workers mask for the cluster shape. Cluster::live_mask() keeps bits
/// above num_workers set, so consumers mask with this before popcounting or
/// handing the mask to the lineage ledger.
uint64_t FullMask(uint32_t num_workers) {
  return num_workers >= 64 ? ~uint64_t{0}
                           : (uint64_t{1} << num_workers) - 1;
}

}  // namespace

Status ExecutionConfig::Validate() const {
  if (cluster == nullptr) {
    if (num_workers == 0) {
      return InvalidArgumentError("num_workers must be at least 1");
    }
    if (threads_per_worker == 0) {
      return InvalidArgumentError("threads_per_worker must be at least 1");
    }
    if (num_workers > 64) {
      return InvalidArgumentError("num_workers must be at most 64");
    }
  }
  const uint32_t effective_workers =
      cluster != nullptr ? cluster->options().num_workers : num_workers;
  FRACTAL_RETURN_IF_ERROR(fault_plan.Validate(effective_workers));
  if (retry.max_attempts == 0) {
    return InvalidArgumentError("retry.max_attempts must be at least 1");
  }
  return Status::Ok();
}

ExecutionResult ExecuteFractoid(const Fractoid& fractoid,
                                const ExecutionConfig& config) {
  return ExecuteFractoidStreaming(fractoid, config, nullptr);
}

ExecutionResult ExecuteFractoidStreaming(const Fractoid& fractoid,
                                         const ExecutionConfig& config,
                                         const SubgraphSink& sink) {
  ExecutionResult result;
  result.status = config.Validate();
  if (!result.status.ok()) return result;
  FRACTAL_TRACE_SPAN("executor/execute");

  // Single-execution contract (core/executor.h): fractoids deriving from a
  // common ancestor share one ExecutionState, and a second concurrent
  // execution over it would race on the cached step aggregations. Fail
  // closed instead of corrupting the cache.
  ExecutionState& state = *fractoid.state();
  if (state.executing.exchange(true, std::memory_order_acq_rel)) {
    result.status = FailedPreconditionError(
        "this fractoid (or one sharing its cached execution state) is "
        "already executing: concurrent executions of one fractoid are not "
        "supported — derive a distinct fractoid per query");
    return result;
  }
  struct ExecutingGuard {
    std::atomic<bool>& flag;
    ~ExecutingGuard() { flag.store(false, std::memory_order_release); }
  } executing_guard{state.executing};

  // Multi-tenant controls (DESIGN.md §12): checked at every step boundary
  // here, and once per work unit inside the step by the worker threads. An
  // execution without a caller-owned control runs under its own id-0 one.
  QueryControl unscheduled;
  QueryControl& query = config.query != nullptr ? *config.query : unscheduled;
  FRACTAL_TRACE_INSTANT("executor/query", query.id);
  const auto query_status = [&query]() -> Status {
    return query.DeadlineHit()
               ? DeadlineExceededError(StrFormat(
                     "query %llu '%s' exceeded its deadline",
                     (unsigned long long)query.id, query.name.c_str()))
               : CancelledError(StrFormat(
                     "query %llu '%s' cancelled",
                     (unsigned long long)query.id, query.name.c_str()));
  };
  const auto query_aborted = [&query]() {
    query.CheckDeadline(std::chrono::steady_clock::now());
    return query.cancelled();
  };
  if (query_aborted()) {
    result.status = query_status();
    return result;
  }

  // The runtime: injected and shared across executions, or ephemeral —
  // created once here and reused by every step of this execution.
  std::unique_ptr<Cluster> owned_cluster;
  Cluster* cluster = config.cluster;
  if (cluster == nullptr) {
    owned_cluster = std::make_unique<Cluster>(ToClusterOptions(config));
    cluster = owned_cluster.get();
  }

  const auto& workflow = fractoid.primitives();
  const std::vector<StepPlan> steps = CompileSteps(workflow);
  const ExtensionStrategy& strategy = *fractoid.strategy();
  const Graph& graph = *fractoid.graph();

  result.num_steps = static_cast<uint32_t>(steps.size());
  WallTimer total_timer;

  // One injector for the whole execution: deterministic entries fire once
  // across retries, probabilistic ones re-arm per step (FaultInjector).
  std::shared_ptr<FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    injector = std::make_shared<FaultInjector>(config.fault_plan);
  }

  for (size_t step_index = 0; step_index < steps.size(); ++step_index) {
    if (query_aborted()) {
      result.status = query_status();
      break;
    }
    FRACTAL_TRACE_SPAN_V("executor/step", step_index);
    const StepPlan& plan = steps[step_index];
    const bool is_final = step_index + 1 == steps.size();

    // Gather already-completed aggregations feeding this step, and decide
    // whether the whole step can be skipped (its aggregations are cached).
    std::vector<const AggregationStorageBase*> completed(workflow.size(),
                                                         nullptr);
    std::vector<uint32_t> to_compute;
    {
      MutexLock lock(state.mu);
      for (uint32_t i = 0; i < plan.end; ++i) {
        if (workflow[i].kind != Primitive::Kind::kAggregate) continue;
        const auto it = state.completed.find(i);
        const bool cached =
            config.reuse_cached_aggregations && it != state.completed.end() &&
            it->second.spec == workflow[i].aggregation.get();
        if (cached) {
          completed[i] = it->second.storage.get();
        } else if (i < plan.new_begin) {
          FRACTAL_CHECK(false)
              << "aggregation " << i << " required by step " << step_index
              << " was not computed by an earlier step";
        } else {
          to_compute.push_back(i);
        }
      }
    }

    // Skip the step when it has nothing new to compute: all its
    // aggregations are cached and — if it is the final step — its output is
    // fully determined by those aggregations (workflow ends with A).
    const bool skip =
        to_compute.empty() &&
        (!is_final || workflow.back().kind == Primitive::Kind::kAggregate);
    if (skip) continue;

    // Execute the step; on (injected) worker failure, the from-scratch
    // model lets us simply re-run it with a fresh task — degraded on the
    // surviving workers when the policy excludes crashed ones. Under
    // RetryPolicy::Mode::kSalvage a lineage ledger additionally watermarks
    // fractoid-task completion, so a crash replays only the crashed
    // worker's unfinished tasks (a salvage pass) on the survivors while
    // everything already committed is retained. Failure is reported
    // through result.status, never by aborting the process.
    const bool salvage_mode =
        config.retry.mode == RetryPolicy::Mode::kSalvage;
    const uint64_t full_mask = FullMask(cluster->options().num_workers);
    const uint32_t threads_per_worker =
        cluster->options().threads_per_worker;
    std::vector<uint32_t> new_aggregate_indices;
    FractoidStepTask::Output output;
    Cluster::StepResult step_result;
    bool step_ok = false;
    // Retained across the salvage passes of one step: the task (its
    // committed per-thread CoreStates hold the salvaged results) and the
    // ledger. Both reset for a from-scratch attempt.
    std::unique_ptr<FractoidStepTask> task;
    std::unique_ptr<LineageLedger> ledger;
    bool salvage_pass = false;
    uint32_t replay_count = 0;
    uint32_t salvage_passes_used = 0;
    uint64_t last_salvaged_units = 0;
    uint64_t root_extension_tests = 0;
    for (uint32_t attempt = 1; attempt <= config.retry.max_attempts;
         ++attempt) {
      if (query_aborted()) {
        result.status = query_status();
        break;
      }
      if (cluster->num_live_workers() == 0) {
        result.status = FailedPreconditionError(
            "no live workers remain to execute the step on");
        break;
      }
      std::vector<uint32_t> roots;
      if (!salvage_pass) {
        task = std::make_unique<FractoidStepTask>(
            fractoid, plan, is_final, config, cluster->TotalThreads(),
            (is_final && sink) ? &sink : nullptr, completed);

        // Root extensions of the empty subgraph; the runtime partitions
        // them across cores. The candidate tests performed here are part
        // of the EC metric and credited to core 0 below.
        ExtensionContext root_ctx;
        strategy.ComputeExtensions(graph, Subgraph(), root_ctx, &roots,
                                   /*rows=*/nullptr);
        root_extension_tests = root_ctx.extension_tests;

        if (salvage_mode) {
          ledger = std::make_unique<LineageLedger>();
          ledger->BeginAttempt(roots, cluster->live_mask() & full_mask,
                               threads_per_worker);
          last_salvaged_units = 0;
        }
      } else {
        // Salvage replay pass: the "roots" are indices into the ledger's
        // replay set, routed through FractoidStepTask::ProcessReplayRoot.
        roots.resize(replay_count);
        std::iota(roots.begin(), roots.end(), 0u);
      }

      Cluster::StepOptions step_options;
      step_options.num_levels = task->num_levels();
      step_options.fault_injector = injector;
      step_options.lineage = ledger.get();
      step_options.query = &query;
      if (injector != nullptr) injector->SetSalvagePass(salvage_pass);
      step_result = cluster->RunStep(*task, std::move(roots), step_options);
      // Cancellation/deadline outranks everything else about the attempt:
      // the step's output is partial (possibly empty telemetry when the
      // query was cancelled while queued at the admission gate), so it must
      // not be merged, retried, or treated as a crash.
      if (step_result.cancelled) {
        result.status = query_status();
        break;
      }
      if (salvage_pass) {
        const uint64_t replayed = step_result.telemetry.TotalWorkUnits();
        result.units_replayed += replayed;
        obs::UnitsReplayedCounter().Add(replayed);
      }

      if (step_result.ok()) {
        // threads[0] is the first live worker's first thread.
        step_result.telemetry.threads[0].extension_tests +=
            root_extension_tests;
        new_aggregate_indices = task->new_aggregates();
        output = task->MergeOutputs();
        step_ok = true;
        break;
      }
      ++result.steps_retried;
      FRACTAL_TRACE_INSTANT("executor/step_retry", step_index);
      const int32_t crashed_worker = step_result.failure->worker;
      result.failures.push_back(std::move(*step_result.failure));
      if (attempt == config.retry.max_attempts) {
        result.status = ResourceExhaustedError(StrFormat(
            "step %u failed %u times (last failure: %s)",
            static_cast<uint32_t>(step_index), attempt,
            result.failures.back().ToString().c_str()));
        break;
      }
      // A crash is salvageable when exactly one worker died this attempt
      // (a simultaneous multi-worker crash would need cross-crash
      // exclusion reasoning the ledger does not model) and the pass budget
      // allows another replay.
      const bool salvageable =
          salvage_mode && ledger != nullptr && crashed_worker >= 0 &&
          injector != nullptr &&
          std::popcount(injector->crashed_mask() & full_mask) == 1 &&
          salvage_passes_used < config.retry.max_salvage_passes;
      if ((salvageable || config.retry.exclude_crashed_workers) &&
          crashed_worker >= 0) {
        if (cluster->num_live_workers() <= 1) {
          result.status = FailedPreconditionError(StrFormat(
              "step %u: last live worker crashed (%s); nothing left to "
              "re-execute on",
              static_cast<uint32_t>(step_index),
              result.failures.back().ToString().c_str()));
          break;
        }
        cluster->MarkWorkerDead(static_cast<uint32_t>(crashed_worker));
      }
      if (salvageable) {
        // Partial recovery: keep everything committed, replay only what
        // the crashed worker left unfinished. PrepareSalvage runs after
        // MarkWorkerDead so the replay set is partitioned over the actual
        // survivors.
        FRACTAL_TRACE_INSTANT("executor/step_salvage", step_index);
        const uint64_t salvaged = ledger->completed_units();
        result.units_salvaged += salvaged - last_salvaged_units;
        obs::UnitsSalvagedCounter().Add(salvaged - last_salvaged_units);
        last_salvaged_units = salvaged;
        replay_count = ledger->PrepareSalvage(
            static_cast<uint32_t>(crashed_worker),
            cluster->live_mask() & full_mask, threads_per_worker);
        obs::LedgerBytesGauge().Set(
            static_cast<int64_t>(ledger->ApproxBytes()));
        salvage_pass = true;
        ++salvage_passes_used;
        ++result.salvage_passes;
      } else {
        // From-scratch retry (the only mode when salvage is off; the
        // fallback when it cannot apply): discard the attempt wholesale.
        salvage_pass = false;
        task.reset();
        ledger.reset();
      }
      if (config.retry.backoff_micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            config.retry.backoff_micros << (attempt - 1)));
      }
    }
    if (injector != nullptr) injector->SetSalvagePass(false);
    if (!step_ok) break;  // result.status carries the failure

    result.telemetry.steps.push_back(std::move(step_result.telemetry));
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, output.peak_state_bytes);
    ++result.steps_executed;
    if (is_final) {
      result.num_subgraphs = output.subgraph_count;
      result.subgraphs = std::move(output.collected);
    }

    // Publish the step's aggregations.
    {
      MutexLock lock(state.mu);
      const auto& indices = new_aggregate_indices;
      for (size_t slot = 0; slot < indices.size(); ++slot) {
        CompletedAggregation entry;
        entry.spec = workflow[indices[slot]].aggregation.get();
        entry.storage = output.merged[slot];
        state.completed[indices[slot]] = std::move(entry);
      }
    }
  }

  // Expose every completed aggregation of this workflow in the result.
  {
    MutexLock lock(state.mu);
    for (uint32_t i = 0; i < workflow.size(); ++i) {
      if (workflow[i].kind != Primitive::Kind::kAggregate) continue;
      const auto it = state.completed.find(i);
      if (it != state.completed.end() &&
          it->second.spec == workflow[i].aggregation.get()) {
        result.aggregations[i] = it->second.storage;
        result.last_aggregate_by_name[workflow[i].aggregation->name()] = i;
      }
    }
  }
  result.telemetry.wall_seconds = total_timer.ElapsedSeconds();
  return result;
}

const ExecutionResult& QueryHandle::Wait() {
  Status status = ticket_->Join();
  // When the body ran, it filled the slot (including the status) before the
  // ticket resolved — Join is the happens-before edge. When it never ran
  // (cancelled while queued, scheduler shutdown) the slot is still
  // default-constructed; back-fill the final status exactly once so
  // concurrent Wait callers don't race on the assignment.
  std::call_once(slot_->once, [this, &status] {
    if (!status.ok() && slot_->result.status.ok()) {
      slot_->result.status = std::move(status);
    }
  });
  return slot_->result;
}

StatusOr<QueryHandle> ExecuteFractoidAsync(
    const Fractoid& fractoid, const ExecutionConfig& config,
    QueryScheduler& scheduler, QueryScheduler::Submission submission) {
  if (config.cluster != nullptr &&
      config.cluster != scheduler.cluster()) {
    return InvalidArgumentError(
        "ExecutionConfig::cluster must be null or the scheduler's own "
        "cluster");
  }
  if (config.query != nullptr) {
    return InvalidArgumentError(
        "ExecutionConfig::query is wired by the scheduler and must be null");
  }
  ExecutionConfig effective = config;
  effective.cluster = scheduler.cluster();
  auto slot = std::make_shared<QueryHandle::Slot>();
  // The fractoid is captured by reference (documented: it must outlive the
  // execution); the config and result slot by value so the caller's copies
  // can go out of scope immediately.
  auto submitted = scheduler.Submit(
      std::move(submission),
      [&fractoid, effective, slot](QueryControl& control) mutable -> Status {
        effective.query = &control;
        slot->result = ExecuteFractoid(fractoid, effective);
        return slot->result.status;
      });
  if (!submitted.ok()) return submitted.status();
  return QueryHandle(std::move(submitted).value(), std::move(slot));
}

}  // namespace fractal
