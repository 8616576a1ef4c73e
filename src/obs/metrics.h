// Process-wide metrics registry: named counters, gauges, and log-scale
// (power-of-two) bucketed histograms, with a text and a JSON dump. Unlike
// tracing (obs/trace.h), metrics are always on: handles are plain atomics
// and one update costs a relaxed read-modify-write on a line every thread
// shares.
//
// Lookup is by name and locks the registry, so call sites cache the handle:
//
//   static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter("x");
//   c.Add(1);
//
// The enumeration hot path does not touch these handles: what it counts per
// work unit or per DFS node goes into the calling thread's own HotMetrics
// block (bottom of this header) and reaches the registry in batches, so
// execution threads never share a cache line per unit (DESIGN.md §6).
//
// Handles are never invalidated (the registry leaks; metric objects are
// node-allocated). Well-known runtime counters used by both the worker
// instrumentation and the step-progress sampler are exposed as accessors
// at the bottom so both sides agree on the names — the barrier-aggregated
// StepTelemetry reports the same quantities per step, these accumulate
// them process-wide and live (sampleable mid-step).
#ifndef FRACTAL_OBS_METRICS_H_
#define FRACTAL_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/hot_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fractal {
namespace obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

struct LocalHistogram;

/// Log-scale histogram: bucket 0 holds the value 0, bucket i (i >= 1) holds
/// values in [2^(i-1), 2^i - 1]. 65 buckets cover the full uint64 range, so
/// Record never clips. Concurrent Record calls are lock-free.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  static size_t BucketIndex(uint64_t value) {
    return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  }
  /// Smallest value landing in bucket `i`.
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  /// Largest value landing in bucket `i`.
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Folds a thread-owned accumulator in: one relaxed fetch_add per
  /// non-empty bucket plus count and sum. Leaves `local` untouched.
  void Merge(const LocalHistogram& local);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }
  /// Lower bound of the bucket containing the p-th percentile (p in
  /// [0,100]); approximate by construction (bucket resolution).
  uint64_t ApproxPercentile(double p) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Name -> metric registry. Get* creates on first use; returned references
/// are stable for the process lifetime. `MetricsRegistry::mu` is a leaf
/// lock (DESIGN.md §5): held only for the map lookup, never while
/// acquiring anything else.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter& GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) EXCLUDES(mu_);

  /// Human-readable dump, one metric per line, sorted by name.
  std::string DumpText() const EXCLUDES(mu_);
  /// {"counters":{...},"gauges":{...},"histograms":{...}}; histogram
  /// buckets are keyed by their lower bound and only nonzero ones appear.
  std::string DumpJson() const EXCLUDES(mu_);
  /// Prometheus text exposition format (served at /metricsz): names are
  /// sanitized (dots -> underscores) under a `fractal_` prefix, counters
  /// get the conventional `_total` suffix, histograms render as cumulative
  /// `_bucket{le="..."}` series (power-of-two upper bounds; only buckets
  /// with mass, plus `+Inf`) with `_sum`/`_count`, and p50/p90/p99 from
  /// ApproxPercentile appear as companion `_p50`/`_p90`/`_p99` gauges.
  std::string DumpPrometheus() const EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_{"MetricsRegistry::mu"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

// --- Well-known runtime metrics -------------------------------------------
// Cumulative across steps and executions; the per-step barrier snapshot of
// the same quantities is StepTelemetry (runtime/telemetry.h).

/// Extensions consumed and processed ("runtime.work_units"). Published from
/// HotMetrics (below), like every counter marked "(HotMetrics)".
Counter& WorkUnitsCounter();
/// Successful WS_int claims ("runtime.steals_internal").
Counter& InternalStealsCounter();
/// Successful WS_ext claims ("runtime.steals_external").
Counter& ExternalStealsCounter();
/// Serialized bytes received via WS_ext ("runtime.bytes_shipped").
Counter& BytesShippedCounter();
/// Extension candidate tests, credited at the step barrier
/// ("runtime.extension_tests", the paper's EC metric).
Counter& ExtensionTestsCounter();
/// Fractal steps completed ("runtime.steps").
Counter& StepsCounter();
/// Steps executed on a degraded (W−1 or fewer) live-worker subset
/// ("runtime.steps_degraded").
Counter& StepsDegradedCounter();
/// Simulated worker crashes observed at step barriers
/// ("runtime.workers_crashed").
Counter& WorkersCrashedCounter();
/// Work units whose results survived a crash via the lineage ledger and
/// were *not* re-executed ("runtime.units_salvaged").
Counter& UnitsSalvagedCounter();
/// Work units re-executed during salvage replay passes
/// ("runtime.units_replayed").
Counter& UnitsReplayedCounter();
/// Queries accepted by a QueryScheduler ("runtime.queries_admitted").
Counter& QueriesAdmittedCounter();
/// Queries refused with kResourceExhausted because the admission queue was
/// full ("runtime.queries_rejected").
Counter& QueriesRejectedCounter();
/// Queries that resolved kCancelled ("runtime.queries_cancelled").
Counter& QueriesCancelledCounter();
/// Queries that resolved kDeadlineExceeded
/// ("runtime.queries_deadline_exceeded").
Counter& QueriesDeadlineExceededCounter();
/// Queries that resolved OK ("runtime.queries_completed").
Counter& QueriesCompletedCounter();
/// WS_ext steal requests that hit their deadline ("bus.steal_timeouts").
Counter& StealTimeoutsCounter();
/// WS_ext steal requests dropped in flight by fault injection
/// ("bus.requests_dropped").
Counter& DroppedRequestsCounter();
/// WS_ext steal payloads the thief rejected because their ids fall outside
/// the step's graph or plan ("bus.payloads_rejected").
Counter& PayloadsRejectedCounter();
/// Sorted-set kernel invocations (intersections and differences) in the
/// enumeration data plane ("enumerate.intersections"; HotMetrics).
Counter& IntersectionKernelsCounter();
/// Kernel invocations that took the galloping path instead of the linear
/// merge ("enumerate.galloped"; HotMetrics).
Counter& GallopedKernelsCounter();
/// ScratchArena buffer acquisitions served from the per-thread pool with no
/// heap allocation ("enumerate.scratch_hits"; HotMetrics).
Counter& ScratchHitsCounter();
/// ScratchArena buffer acquisitions that had to allocate — should flatline
/// once the DFS reaches steady state ("enumerate.scratch_misses").
Counter& ScratchMissesCounter();

/// Quick patterns canonicalized by a CanonicalPatternCache miss — one per
/// distinct quick pattern per thread and step ("pattern.canonical_misses").
Counter& CanonicalMissesCounter();

/// Samples captured by the sampling profiler, credited at each
/// Profiler::Stop ("obs.profiler_samples").
Counter& ProfilerSamplesCounter();
/// HTTP requests answered by the exposition server
/// ("obs.exposition_requests").
Counter& ExpositionRequestsCounter();

/// (requester, victim) pairs currently marked suspect by the steal-RPC
/// health tracker; reset to 0 at each step start
/// ("runtime.suspect_victims").
Gauge& SuspectVictimsGauge();
/// 1 while a Cluster step is between submit and barrier, else 0
/// ("runtime.step_active").
Gauge& StepActiveGauge();
/// Approximate bytes held by the current step's lineage ledger, published
/// when a salvage pass is prepared ("runtime.ledger_bytes").
Gauge& LedgerBytesGauge();
/// Number of cluster steps started so far ("runtime.current_step"; a gauge
/// so /statusz shows the step the progress sampler is describing).
Gauge& CurrentStepGauge();
/// Work units per second over the progress sampler's last interval
/// ("runtime.units_per_sec").
Gauge& UnitsPerSecGauge();
/// Work units consumed by worker `w` over the progress sampler's last
/// interval ("runtime.worker_units" with a `.w` suffix, e.g.
/// "runtime.worker_units.3"). Unlike the handles above this takes the
/// registry lock per call — sampler-rate use only.
Gauge& WorkerUnitsGauge(uint32_t worker);
/// Queries currently executing on scheduler driver threads
/// ("runtime.queries_active").
Gauge& QueriesActiveGauge();
/// Queries admitted but not yet started ("runtime.queries_queued").
Gauge& QueriesQueuedGauge();
/// Cumulative work units attained by query `id` ("runtime.query_units"
/// with a `.id` suffix), set at each step barrier. Takes the registry lock
/// per call — barrier-rate use only, like WorkerUnitsGauge.
Gauge& QueryUnitsGauge(uint64_t query_id);

/// WS_ext request round-trip time in microseconds, successful steals only
/// ("bus.steal_rtt_us").
Histogram& StealRttHistogram();
/// Stolen-work serialization time in nanoseconds ("codec.encode_ns").
Histogram& EncodeTimeHistogram();
/// Stolen-work deserialization time in nanoseconds ("codec.decode_ns").
Histogram& DecodeTimeHistogram();
/// Extension batch size per expanded DFS node, empty ones included
/// ("enumerate.batch_size"; HotMetrics).
Histogram& ExtensionBatchHistogram();
/// Steal-retry backoff sleeps in microseconds, one sample per retry
/// ("bus.retry_backoff_us").
Histogram& RetryBackoffHistogram();

// --- Thread-owned hot-path accounting ---------------------------------------

/// Single-owner twin of Histogram: the same bucket layout, updated with
/// plain increments. Folded into a shared Histogram by Histogram::Merge.
struct LocalHistogram {
  uint64_t buckets[Histogram::kNumBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Record(uint64_t value) {
    ++buckets[Histogram::BucketIndex(value)];
    ++count;
    sum += value;
  }
};

/// The calling thread's unpublished deltas of the metrics the enumeration
/// hot path bumps: "runtime.work_units", "enumerate.intersections",
/// "enumerate.galloped", "enumerate.scratch_hits" and the
/// "enumerate.batch_size" histogram. Updates are plain increments on
/// thread-owned memory. PublishHotMetrics folds them into the registry,
/// one relaxed RMW per touched counter, and that happens:
///   * every kPublishBatch work units (CountWorkUnit), so live readers
///     (/statusz, /metricsz, the progress log line) lag by less than
///     kPublishBatch units per thread;
///   * when an execution thread leaves a step, however it leaves (drain,
///     crash unwind, cancellation), and on the driver thread after the
///     barrier: registry values are exact at every step barrier;
///   * at thread exit, for counts made on threads outside the runtime.
struct HotMetrics {
  static constexpr uint64_t kPublishBatch = 1024;

  uint64_t work_units = 0;
  uint64_t intersections = 0;
  uint64_t galloped = 0;
  uint64_t scratch_hits = 0;
  LocalHistogram batch_sizes;
  /// Also receives the work-unit delta at each publish: the owning
  /// worker's progress counter (Worker::work_units). Null outside the
  /// runtime's execution threads.
  std::atomic<uint64_t>* units_sink = nullptr;
  /// Whether the thread-exit publish is registered for this thread.
  bool exit_publish_armed = false;
};

namespace hot_metrics_internal {
// Constant-initialized and trivially destructible: no TLS init guard on
// access. The thread-exit publish lives in a separate thread_local
// (metrics.cc), registered once per thread by ArmExitPublish.
inline constinit thread_local HotMetrics tls_hot_metrics;
void ArmExitPublish();
}  // namespace hot_metrics_internal

/// The calling thread's HotMetrics block.
FRACTAL_HOT inline HotMetrics& LocalHotMetrics() {
  HotMetrics& metrics = hot_metrics_internal::tls_hot_metrics;
  if (!metrics.exit_publish_armed) [[unlikely]] {
    FRACTAL_HOT_ESCAPE("once per thread: registers the thread-exit publish");
    hot_metrics_internal::ArmExitPublish();
  }
  return metrics;
}

/// Folds the calling thread's HotMetrics deltas into the registry (and the
/// work-unit delta into its units_sink), then zeroes them.
void PublishHotMetrics();

/// Counts one work unit; publishes the thread's block every kPublishBatch.
FRACTAL_HOT inline void CountWorkUnit() {
  HotMetrics& metrics = LocalHotMetrics();
  if (++metrics.work_units >= HotMetrics::kPublishBatch) {
    FRACTAL_HOT_ESCAPE("batch publish: one RMW per touched counter, once "
                       "per kPublishBatch work units");
    PublishHotMetrics();
  }
}

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_METRICS_H_
