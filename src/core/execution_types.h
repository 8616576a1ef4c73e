// Shared execution types: configuration, results, and the cached
// aggregation state a fractoid carries between executions (the paper's
// "fractoid holds ... any aggregation result required for computation").
#ifndef FRACTAL_CORE_EXECUTION_TYPES_H_
#define FRACTAL_CORE_EXECUTION_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "core/aggregation.h"
#include "enumerate/subgraph.h"
#include "runtime/fault.h"
#include "runtime/message_bus.h"
#include "runtime/query.h"
#include "runtime/telemetry.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fractal {

class Cluster;

/// How the executor responds to step failures (injected worker crashes).
/// The from-scratch execution model (paper §4) makes recovery a pure
/// re-execution: a failed step is discarded wholesale and re-run, so any
/// successful attempt produces bit-identical results.
struct RetryPolicy {
  /// What a retry re-executes after a worker crash.
  enum class Mode : uint8_t {
    /// Discard the failed step wholesale and re-run it (paper §4).
    kFromScratch,
    /// Partial recovery via the lineage ledger (runtime/lineage.h): keep
    /// the survivors' committed results and re-enumerate only the fractoid
    /// tasks the crashed worker left unfinished, partitioned across the
    /// survivors as synthetic roots. Falls back to kFromScratch when the
    /// crash is not salvageable (several workers died at once, or the
    /// salvage-pass budget below ran out). Results stay bit-identical to a
    /// fault-free run either way.
    kSalvage,
  };
  /// Total attempts per step (first try included). Must be >= 1. When the
  /// budget is exhausted the execution fails with a ResourceExhausted
  /// status in ExecutionResult::status instead of aborting. Salvage replay
  /// passes count as attempts.
  uint32_t max_attempts = 3;
  /// Sleep between attempts (doubled per attempt). 0 retries immediately.
  int64_t backoff_micros = 0;
  /// Mark crashed workers dead on the cluster so re-execution runs
  /// degraded on the surviving subset (instead of re-running on a worker
  /// that would just crash again deterministically). Salvage always
  /// excludes the crashed worker — its lost frontier is replayed on the
  /// survivors by construction.
  bool exclude_crashed_workers = true;
  /// Recovery mode; see Mode.
  Mode mode = Mode::kFromScratch;
  /// Cap on salvage replay passes per step (a crash during recovery starts
  /// another pass); past it the step falls back to a from-scratch retry.
  uint32_t max_salvage_passes = 8;
};

/// How a fractoid is executed on the simulated cluster (paper §4/5.2.2
/// work-stealing configurations map to the two stealing flags).
struct ExecutionConfig {
  /// Simulated worker processes (paper: machines/executors).
  uint32_t num_workers = 1;
  /// Execution threads ("cores") per worker.
  uint32_t threads_per_worker = 2;

  /// Optional injected persistent runtime (not owned). When set, the
  /// execution runs on this cluster — sharing its parked worker threads
  /// with other executions instead of spinning up an ephemeral cluster —
  /// and the cluster's topology overrides num_workers / threads_per_worker
  /// and the stealing flags. See runtime/cluster.h.
  Cluster* cluster = nullptr;

  /// WS_int: stealing between cores of the same worker.
  bool internal_work_stealing = true;
  /// WS_ext: stealing between workers through the message bus.
  bool external_work_stealing = true;

  /// Simulated network parameters for WS_ext.
  NetworkConfig network;

  /// When > 0 (and no cluster is injected), the ephemeral cluster logs
  /// step progress (work-unit throughput, steal rates) at this interval.
  int64_t progress_interval_ms = 0;

  /// When >= 0 (and no cluster is injected), the ephemeral cluster serves
  /// /statusz, /metricsz, /tracez, and /profilez on 127.0.0.1:<port> for
  /// the execution's lifetime (obs/exposition.h; 0 = ephemeral port).
  int statusz_port = -1;

  /// Collect matched subgraphs of the final step (otherwise only counted).
  bool collect_subgraphs = false;
  /// Cap on collected subgraphs (protects memory on huge result sets).
  uint64_t max_collected_subgraphs = UINT64_MAX;

  /// Reuse aggregations cached on the fractoid from earlier executions
  /// (paper §4.1: W4 aggregation results are never recomputed).
  bool reuse_cached_aggregations = true;

  /// Query control block of this execution (multi-tenant scheduling,
  /// DESIGN.md §12; not owned, may be null — the executor then runs the
  /// execution under its own id-0 control). The executor checks
  /// cancellation/deadline at every step boundary, worker threads poll the
  /// cancel flag once per work unit, and an unwound execution resolves to
  /// kCancelled / kDeadlineExceeded in ExecutionResult::status. Wired
  /// automatically by ExecuteFractoidAsync; synchronous callers may point
  /// it at a stack-owned QueryControl to get a deadline without a
  /// scheduler. Must outlive the execution.
  QueryControl* query = nullptr;

  /// Fault injection for resilience testing (runtime/fault.h): a seeded,
  /// deterministic schedule of worker crashes, steal-service deaths,
  /// message drops/delays, and stragglers. The from-scratch execution
  /// model makes recovery trivial: a failed step is simply re-executed
  /// (the paper inherits this resilience from Spark's lineage; here the
  /// executor retries directly, per `retry`). Empty plan = no faults.
  FaultPlan fault_plan;
  /// Step re-execution policy after worker failures.
  RetryPolicy retry;

  uint32_t TotalThreads() const { return num_workers * threads_per_worker; }

  /// Checks the configuration before any thread is spawned: at least one
  /// worker and one thread per worker, the fault plan must target existing
  /// workers, and the retry policy must allow at least one attempt. Called
  /// at execution entry so misconfiguration fails fast with a message
  /// instead of crashing mid-step. External work stealing with a single
  /// worker is not an error here — it is normalized off (WS_ext needs a
  /// second worker; an explicit single-worker external-stealing Cluster is
  /// rejected by Cluster::Validate).
  [[nodiscard]] Status Validate() const;
};

/// Completed aggregation of one A-primitive occurrence. `spec` is kept for
/// identity checking when fractoid branches share cached state.
struct CompletedAggregation {
  const AggregationSpecBase* spec = nullptr;
  std::shared_ptr<AggregationStorageBase> storage;
};

/// Aggregation results cached across executions of derived fractoids.
/// Innermost lock of the core layer: nothing else is ever acquired while
/// `mu` is held.
struct ExecutionState {
  Mutex mu{"ExecutionState::mu"};
  std::unordered_map<uint32_t, CompletedAggregation> completed GUARDED_BY(mu);
  /// Single-execution guard: set for the duration of one execution over
  /// this state. Fractoids deriving from a common ancestor share one
  /// ExecutionState (that is what makes cached step aggregations work), so
  /// two executions over it concurrently would race on the cache; the
  /// executor turns that into kFailedPrecondition instead of corruption
  /// (see core/executor.h).
  std::atomic<bool> executing{false};
};

/// Everything one fractoid execution produced.
struct ExecutionResult {
  /// Overall outcome. Ok when every step completed (possibly after
  /// recovered retries); ResourceExhausted when a step kept failing past
  /// RetryPolicy::max_attempts; FailedPrecondition when no live workers
  /// remained or the fractoid's state was already mid-execution; Cancelled
  /// / DeadlineExceeded when the execution's QueryControl was cancelled or
  /// expired. On error the data fields below are incomplete and must not
  /// be consumed.
  Status status;
  /// Subgraphs reaching the end of the final step's pipeline.
  uint64_t num_subgraphs = 0;
  /// Collected subgraphs (when ExecutionConfig::collect_subgraphs).
  std::vector<Subgraph> subgraphs;
  /// Completed aggregations by A-primitive index.
  std::unordered_map<uint32_t, std::shared_ptr<AggregationStorageBase>>
      aggregations;
  /// Last A-primitive index per aggregation name.
  std::unordered_map<std::string, uint32_t> last_aggregate_by_name;
  /// Telemetry of all executed steps.
  ExecutionTelemetry telemetry;
  /// Peak enumerator-state bytes across threads (Fractal's intermediate
  /// state — contrast with the BFS baseline's embedding lists, Table 2).
  uint64_t peak_state_bytes = 0;
  /// Number of fractal steps the workflow compiled into / actually ran.
  uint32_t num_steps = 0;
  uint32_t steps_executed = 0;
  /// Step executions abandoned due to (injected) worker failures
  /// (recovered or not); equals failures.size().
  uint32_t steps_retried = 0;
  /// One record per abandoned step attempt: which worker crashed, why, and
  /// what the attempt cost (runtime/telemetry.h).
  std::vector<StepFailure> failures;
  /// Work units whose results survived a crash via the lineage ledger and
  /// were not re-executed (RetryPolicy::Mode::kSalvage only).
  uint64_t units_salvaged = 0;
  /// Work units re-executed during salvage replay passes. With a mid-step
  /// crash this is far below the from-scratch re-execution cost (the
  /// recovery acceptance bound in tests/resilience_test.cc).
  uint64_t units_replayed = 0;
  /// Salvage replay passes run across all steps (0 under kFromScratch).
  uint32_t salvage_passes = 0;

  /// Typed view of the final aggregation registered under `name`.
  template <typename K, typename V, typename Hash = std::hash<K>>
  const AggregationStorage<K, V, Hash>& Aggregation(
      const std::string& name) const {
    const auto name_it = last_aggregate_by_name.find(name);
    FRACTAL_CHECK(name_it != last_aggregate_by_name.end())
        << "no aggregation named '" << name << "'";
    const auto it = aggregations.find(name_it->second);
    FRACTAL_CHECK(it != aggregations.end());
    return TypedStorage<K, V, Hash>(*it->second);
  }
};

}  // namespace fractal

#endif  // FRACTAL_CORE_EXECUTION_TYPES_H_
