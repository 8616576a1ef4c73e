// Per-query control block for multi-tenant scheduling (DESIGN.md §12).
//
// A QueryControl travels with one fractoid execution: the executor stores a
// pointer to it in every StepOptions it submits, the Cluster's admission
// gate uses it for weighted fair sharing, and worker threads poll its
// cancel flag once per work unit (one relaxed load — the same hot-path
// budget as the fault-injection poll, see DESIGN.md §7).
//
// Thread-safety: the atomic members are written/read from scheduler driver
// threads, the step driver and worker threads concurrently. `vtime` is NOT
// atomic — it is only touched by the Cluster admission gate while holding
// Cluster::run_mu (documented invariant, enforced by code placement).
#ifndef FRACTAL_RUNTIME_QUERY_H_
#define FRACTAL_RUNTIME_QUERY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace fractal {

/// Shared control block of one scheduled query (one fractoid execution).
/// Owned by whoever drives the execution — a ScheduledQuery handle when the
/// QueryScheduler is in play, or a caller's stack frame for a synchronous
/// execution that just wants a deadline/cancel knob (ExecutionConfig::query).
struct QueryControl {
  /// Stable id for metrics/statusz/trace attribution. 0 is the id of the
  /// controls that unscheduled executions and direct RunStep calls run
  /// under (the executor's stack-local one, the cluster's own one).
  uint64_t id = 0;
  std::string name;

  /// Weighted fair sharing: a query with weight w accrues virtual time at
  /// rate work_units / w, so relative throughput between backlogged queries
  /// is proportional to their weights. Must be >= 1.
  uint32_t weight = 1;

  /// Absolute steady-clock deadline; only meaningful when has_deadline.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Cooperative cancellation flag, polled by worker threads once per work
  /// unit. Set by RequestCancel / MarkDeadlineHit; never cleared.
  std::atomic<bool> cancel_requested{false};
  /// Distinguishes deadline expiry from an explicit cancel so the executor
  /// can map the unwind to kDeadlineExceeded vs kCancelled.
  std::atomic<bool> deadline_hit{false};

  /// Work units attained by this query, credited at each step barrier.
  std::atomic<uint64_t> work_units{0};
  std::atomic<uint64_t> steps_run{0};

  /// Start-time-fair virtual time (attained service / weight). Guarded by
  /// Cluster::run_mu — only the admission gate reads or writes it.
  double vtime = 0.0;

  void RequestCancel() {
    cancel_requested.store(true, std::memory_order_release);
  }

  /// Marks the deadline as hit and requests cancellation. deadline_hit is
  /// published before cancel_requested so any observer of the cancel flag
  /// sees the reason.
  void MarkDeadlineHit() {
    deadline_hit.store(true, std::memory_order_release);
    cancel_requested.store(true, std::memory_order_release);
  }

  bool cancelled() const {
    return cancel_requested.load(std::memory_order_acquire);
  }

  bool DeadlineHit() const {
    return deadline_hit.load(std::memory_order_acquire);
  }

  /// Returns true (and latches deadline_hit + cancel) if `now` is at or
  /// past the deadline. No-op for queries without a deadline.
  bool CheckDeadline(std::chrono::steady_clock::time_point now) {
    if (!has_deadline || now < deadline) return false;
    MarkDeadlineHit();
    return true;
  }

  /// Convenience: arms the deadline `deadline_ms` from now (<= 0 disarms).
  void SetDeadlineAfterMillis(int64_t deadline_ms) {
    if (deadline_ms <= 0) {
      has_deadline = false;
      return;
    }
    has_deadline = true;
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(deadline_ms);
  }
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_QUERY_H_
