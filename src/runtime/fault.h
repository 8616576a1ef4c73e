// Deterministic fault injection for the cluster runtime (resilience model
// of the paper, §4: the from-scratch DFS execution makes recovery trivial —
// a failed step is simply re-executed, no cross-step enumeration state needs
// reconstruction). A FaultPlan is a seeded schedule of faults; a
// FaultInjector evaluates one plan against a running execution through
// named hook points in worker.cc and message_bus.cc:
//
//   OnWorkUnit            worker crashes (deterministic or probabilistic)
//                         and straggler slowdowns, per consumed extension
//   OnStealRequestArrived steal-service death (requests silently dropped)
//   DropStealRequest      steal request lost in flight (requester times out)
//   StealRequestDelayMicros  latency spike on the request path
//
// Every probabilistic decision is a pure function of (seed, plan entry,
// event index), so a plan replays identically across runs; results under
// any plan must be bit-identical to a fault-free run (tests/resilience_test).
// All hooks are lock-free; with no injector armed the work-unit hot path
// costs a single pointer load (see ThreadContext::ConsumeWorkUnit).
#ifndef FRACTAL_RUNTIME_FAULT_H_
#define FRACTAL_RUNTIME_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fractal {

/// The live/crashed worker sets are 64-bit masks (Cluster::Validate caps
/// num_workers accordingly).
inline constexpr uint32_t kMaxFaultWorkers = 64;

enum class FaultKind : uint8_t {
  /// Worker `worker` crashes at its `after_units`-th consumed extension.
  kCrashWorker,
  /// Worker crashes with probability `probability` per consumed extension.
  /// Re-arms every step (so a p=1 plan defeats retries deterministically).
  kCrashWorkerRandom,
  /// Worker `worker`'s steal service stops answering after serving
  /// `after_units` requests (requests are swallowed; requesters time out).
  kCrashStealService,
  /// A steal request is lost in flight with probability `probability`.
  kDropRequest,
  /// A steal request is delayed by `micros` with probability `probability`.
  kDelayRequest,
  /// Straggler: every extension worker `worker` consumes costs an extra
  /// `micros` of wall time.
  kSlowWorker,
  /// Worker `worker` crashes at its `after_units`-th consumed extension,
  /// counting only units consumed while a salvage replay pass is running
  /// (FaultInjector::SetSalvagePass) — exercises crash-during-recovery.
  kCrashWorkerInSalvage,
};

/// Upper bound on a fault's `micros` (a delay or a per-unit slowdown): one
/// minute. Anything longer stalls a test run rather than perturbing it.
inline constexpr int64_t kMaxFaultMicros = 60'000'000;

/// One scheduled fault. Which fields are meaningful depends on `kind`.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrashWorker;
  int32_t worker = -1;      // target worker; -1 = any (probabilistic kinds)
  uint64_t after_units = 0; // deterministic trigger point
  double probability = 0;   // probabilistic trigger rate
  int64_t micros = 0;       // delay / slowdown, [0, kMaxFaultMicros]

  std::string ToString() const;
};

/// A seeded, deterministic schedule of faults. Replaces the ad-hoc
/// crash_worker/crash_after_work_units triple: plans compose (several
/// entries), cover more failure modes, and replay bit-identically.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  // Builders (chainable).
  FaultPlan& CrashWorker(int32_t worker, uint64_t after_units);
  FaultPlan& CrashWorkerRandomly(int32_t worker, double probability);
  FaultPlan& CrashStealService(int32_t worker, uint64_t after_requests);
  FaultPlan& DropStealRequests(double probability);
  FaultPlan& DelayStealRequests(double probability, int64_t micros);
  FaultPlan& SlowWorker(int32_t worker, int64_t micros_per_unit);
  FaultPlan& CrashWorkerInSalvage(int32_t worker, uint64_t after_units);

  /// Parses the CLI grammar: entries separated by ';', each
  /// `kind:key=value,...`. Kinds and keys:
  ///   crash:w=1,after=50        crash:w=1,p=0.001
  ///   crash-service:w=0,after=3
  ///   drop:p=0.05               delay:p=0.1,us=5000
  ///   slow:w=1,us=20            crash-in-salvage:w=1,after=10
  /// Each value is parsed whole and range-checked: w= fits int32_t,
  /// after= is unsigned (no sign), p= is a finite number in [0, 1], us= is
  /// in [0, kMaxFaultMicros]. Anything else is InvalidArgument.
  static StatusOr<FaultPlan> Parse(std::string_view text, uint64_t seed);

  /// A seeded pseudo-random single-failure plan for chaos sweeps: one
  /// primary fault (crash / service death / drops / delays) plus an
  /// occasional straggler. Uses only recoverable faults (deterministic
  /// crashes fire once), so any chaos run must converge to exact results.
  static FaultPlan Random(uint64_t seed, uint32_t num_workers);

  /// Round-trips through Parse (used by --fault-spec echoing and tests).
  std::string ToString() const;

  /// Checks targets against the cluster shape and rates/thresholds for
  /// plausibility; called from ExecutionConfig::Validate.
  [[nodiscard]] Status Validate(uint32_t num_workers) const;

  bool empty() const { return specs_.empty(); }
  uint64_t seed() const { return seed_; }
  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
};

/// Evaluates one FaultPlan against a running execution. One injector lives
/// for one fractoid execution (all step attempts), so deterministic crash
/// entries fire exactly once even across retries, and a dead steal service
/// stays dead. Thread-safe; all state is atomic.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Resets per-step state (the crashed mask; probabilistic crash entries
  /// re-arm). Called by Cluster::RunStep before the step barrier opens.
  void BeginStep();

  /// Hook: worker `worker` consumed one extension. Applies straggler
  /// slowdowns and crash triggers. Returns false once the worker has
  /// crashed — the calling thread must unwind and abandon its state.
  bool OnWorkUnit(uint32_t worker);

  /// Whether `worker` has crashed during the current step.
  bool WorkerCrashed(uint32_t worker) const {
    return (crashed_mask_.load(std::memory_order_acquire) >> worker) & 1;
  }
  uint64_t crashed_mask() const {
    return crashed_mask_.load(std::memory_order_acquire);
  }

  /// Hook: a steal request reached `victim`'s service thread. Returns false
  /// when the victim's steal service is dead — the request must be
  /// swallowed without a reply (the requester times out).
  bool OnStealRequestArrived(uint32_t victim);

  /// Hook: should this steal request be lost in flight?
  bool DropStealRequest();

  /// Hook: extra latency to charge on the request path (0 = none).
  int64_t StealRequestDelayMicros();

  /// Arms/disarms the crash-in-salvage entries: their unit counters only
  /// advance while a salvage replay pass is in flight. Set by the executor
  /// around RunStep; deliberately not reset by BeginStep.
  void SetSalvagePass(bool active) {
    salvage_pass_.store(active, std::memory_order_relaxed);
  }

  /// Human-readable description of what crashed `worker` this step
  /// (empty when it did not crash).
  std::string CrashCause(uint32_t worker) const;

  /// Total crash firings since construction (across steps); the
  /// exactly-once contract makes this == fired entries, never more, even
  /// when many threads race past a trigger (tests assert this).
  uint64_t crash_events() const {
    return crash_events_.load(std::memory_order_relaxed);
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  /// Per-plan-entry trigger state.
  struct EntryState {
    std::atomic<uint64_t> counter{0};
    std::atomic<bool> fired{false};
  };

  /// Deterministic coin flip: pure function of (seed, entry, event index).
  bool Chance(size_t entry, uint64_t event, double probability) const;
  void Crash(uint32_t worker, size_t entry);

  FaultPlan plan_;
  std::unique_ptr<EntryState[]> states_;
  /// True while the executor runs a salvage replay pass (SetSalvagePass).
  std::atomic<bool> salvage_pass_{false};
  std::atomic<uint64_t> crashed_mask_{0};
  std::atomic<uint64_t> crash_events_{0};
  /// First plan entry that crashed each worker this step (-1 = none);
  /// written before the crashed-mask release store, read after an acquire
  /// load of the mask (the mask publication orders the cause record).
  std::array<std::atomic<int32_t>, kMaxFaultWorkers> crash_entry_;
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_FAULT_H_
