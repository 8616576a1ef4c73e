// Parallel fractoid execution on the simulated cluster (paper §4):
//   * Algorithm 2: the workflow is compiled into fractal steps; each step
//     re-enumerates from scratch (DFS), reusing aggregations computed by
//     earlier steps. This driver (executor.cc) compiles the plans, binds
//     cached aggregation storages, submits one step task per step, and
//     merges/publishes the results.
//   * Algorithm 1: the per-step DFS over subgraph enumerators lives in
//     core/fractoid_task.* (the application side of a step).
//   * §4.2: thread lifecycle, root-extension partitioning, and the
//     hierarchical WS_int/WS_ext work stealing live in the persistent
//     runtime layer, runtime/cluster.* / runtime/worker.*. Executions use
//     an ephemeral cluster by default, or share a long-lived one injected
//     through ExecutionConfig::cluster.
#ifndef FRACTAL_CORE_EXECUTOR_H_
#define FRACTAL_CORE_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/execution_types.h"
#include "core/fractoid.h"
#include "runtime/query_scheduler.h"

namespace fractal {

/// Executes all (non-cached) steps of `fractoid` under `config`.
/// Thread-safe with respect to distinct fractoids (they interleave on a
/// shared cluster via the step-admission gate, DESIGN.md §12). Executing
/// the same fractoid — or two fractoids sharing cached execution state,
/// i.e. derived from a common ancestor — concurrently is not supported and
/// returns kFailedPrecondition instead of corrupting the cached step
/// aggregations. A config that fails ExecutionConfig::Validate returns that
/// status (kInvalidArgument) before any cluster is created. [[nodiscard]]:
/// dropping the result discards the subgraph counts/aggregations the run
/// computed.
///
/// This synchronous entry point is the same query-aware engine that backs
/// ExecuteFractoidAsync: set ExecutionConfig::query to get cooperative
/// cancellation and a deadline without a scheduler.
[[nodiscard]] ExecutionResult ExecuteFractoid(const Fractoid& fractoid,
                                              const ExecutionConfig& config);

/// Streaming variant of the O1 output operator: `sink` is invoked for every
/// subgraph reaching the end of the final step, from the execution threads
/// as results are found (no materialization). The sink MUST be thread-safe;
/// the Subgraph reference is only valid during the call.
using SubgraphSink = std::function<void(const Subgraph&)>;
[[nodiscard]] ExecutionResult ExecuteFractoidStreaming(
    const Fractoid& fractoid, const ExecutionConfig& config,
    const SubgraphSink& sink);

/// Joinable/cancellable handle to an asynchronous fractoid execution
/// (ExecuteFractoidAsync). Thin core-level wrapper over the runtime's
/// ScheduledQuery: adds the typed ExecutionResult. Copyable (shared
/// handle); must be joined — or dropped — before the scheduler's cluster
/// is destroyed.
class QueryHandle {
 public:
  /// Blocks until the query resolves, then returns its ExecutionResult
  /// (valid as long as any copy of the handle lives). The result's status
  /// mirrors ScheduledQuery::Join: kCancelled / kDeadlineExceeded when the
  /// query was cancelled or expired, even before it started running.
  const ExecutionResult& Wait();

  /// Requests cooperative cancellation (idempotent).
  void Cancel() { ticket_->Cancel(); }

  bool done() const { return ticket_->done(); }
  uint64_t id() const { return ticket_->control().id; }
  const std::string& name() const { return ticket_->control().name; }
  const QueryControl& control() const { return ticket_->control(); }

 private:
  friend StatusOr<QueryHandle> ExecuteFractoidAsync(
      const Fractoid& fractoid, const ExecutionConfig& config,
      QueryScheduler& scheduler, QueryScheduler::Submission submission);

  /// The body fills `result` before the ticket resolves; `once` covers the
  /// no-body paths (cancelled while queued, scheduler shutdown) where Wait
  /// itself back-fills the status exactly once.
  struct Slot {
    std::once_flag once;
    ExecutionResult result;
  };

  QueryHandle(std::shared_ptr<ScheduledQuery> ticket,
              std::shared_ptr<Slot> slot)
      : ticket_(std::move(ticket)), slot_(std::move(slot)) {}

  std::shared_ptr<ScheduledQuery> ticket_;
  std::shared_ptr<Slot> slot_;
};

/// Submits `fractoid` to `scheduler` for asynchronous execution and returns
/// a joinable/cancellable handle, or kResourceExhausted when the
/// scheduler's admission queue is full (backpressure — back off and
/// resubmit). The fractoid must outlive the execution (keep it alive until
/// Wait returns or the scheduler is destroyed). `config.cluster` must be
/// null or the scheduler's own cluster; topology fields are overridden by
/// that cluster either way. `config.query` must be null — the scheduler
/// wires the control block.
[[nodiscard]] StatusOr<QueryHandle> ExecuteFractoidAsync(
    const Fractoid& fractoid, const ExecutionConfig& config,
    QueryScheduler& scheduler, QueryScheduler::Submission submission = {});

}  // namespace fractal

#endif  // FRACTAL_CORE_EXECUTOR_H_
