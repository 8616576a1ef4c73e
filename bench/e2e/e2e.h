// Shared types of the end-to-end benchmark driver (bench_e2e.cc): the
// workload interface, the per-query outcome record, the bench-owned span
// recorder, and the profiler layer table. Everything here sits *outside*
// the system under test: it only calls public entry points and reads
// public result structs, so the benchmark measures the code as shipped.
#ifndef FRACTAL_BENCH_E2E_E2E_H_
#define FRACTAL_BENCH_E2E_E2E_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/context.h"
#include "obs/profiler.h"
#include "pattern/pattern.h"
#include "runtime/cluster.h"
#include "runtime/query_scheduler.h"
#include "runtime/telemetry.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace fractal {
namespace e2e {

// --- Spans ------------------------------------------------------------------

/// Bench-owned trace spans (name, start, end, parent, query id), kept in
/// memory and written as Chrome-trace JSON when the run ends. Only the
/// traced run enables the recorder; a disabled recorder costs one branch
/// per span.
class SpanRecorder {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Not synchronized: toggle only while no client thread runs.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its id (kNoParent when disabled).
  int64_t Begin(const char* name, uint64_t query, int64_t parent)
      EXCLUDES(mu_);
  void End(int64_t id) EXCLUDES(mu_);

  /// Sum of the durations of closed spans named `name`, in seconds.
  double TotalSeconds(const std::string& name) const EXCLUDES(mu_);

  Status WriteChromeTrace(const std::string& path) const EXCLUDES(mu_);

 private:
  struct Span {
    const char* name;
    uint64_t query;
    int64_t parent;
    uint32_t tid;
    double start_us;
    double end_us;
  };

  bool enabled_;
  WallTimer clock_;
  mutable Mutex mu_{"e2e::SpanRecorder::mu"};
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// RAII span over one call into a public function.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t query = 0,
             int64_t parent = SpanRecorder::kNoParent)
      : recorder_(recorder),
        id_(recorder == nullptr ? SpanRecorder::kNoParent
                                : recorder->Begin(name, query, parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

// --- Workloads --------------------------------------------------------------

/// Everything one query produced that the benchmark scores. `result` is a
/// canonical text rendering compared byte-for-byte against the oracle.
struct QueryOutcome {
  Status status;
  uint64_t key = 0;  // index into the workload's query pool
  std::string result;
  uint64_t work_units = 0;
  uint64_t extension_tests = 0;
  uint64_t peak_state_bytes = 0;
  std::vector<StepTelemetry> steps;
};

/// Where a query runs: the persistent cluster (through `config.cluster`),
/// optionally behind a scheduler, and the span recorder of the run.
struct QueryEnv {
  ExecutionConfig config;
  QueryScheduler* scheduler = nullptr;  // null: synchronous Execute
  SpanRecorder* spans = nullptr;
  int64_t parent_span = SpanRecorder::kNoParent;
  uint64_t query_id = 0;
};

/// Static shape of a workload: its cluster, its load and its query pool.
struct WorkloadShape {
  ClusterOptions cluster;
  uint32_t clients = 1;
  /// 0: clients call the synchronous executor; otherwise clients submit
  /// through a QueryScheduler with these admission bounds.
  uint32_t scheduler_max_active = 0;
  uint32_t scheduler_max_queued = 0;
  /// Floor on measured queries, so the tail percentile has >= 10 samples
  /// beyond it and every pool entry runs.
  uint32_t min_queries = 100;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual WorkloadShape shape() const = 0;

  /// Generates the inputs for `seed` (graph generation and
  /// GraphBuilder::Build, hub bitmaps included). Part of set-up.
  virtual void BuildInputs(uint64_t seed, SpanRecorder* spans) = 0;

  /// Runs query number `index` of the closed loop (a workload with a query
  /// pool runs entry index % pool size and reports it as the outcome's
  /// key). Must be safe to call from several client threads at once.
  virtual QueryOutcome RunQuery(uint64_t index, const QueryEnv& env) = 0;

  /// The oracle's rendering of pool entry `key`, from the tuned
  /// single-thread baselines or the unreduced search. May use `config`
  /// (a persistent cluster) when the oracle is itself a fractoid.
  virtual std::string Oracle(uint64_t key, const ExecutionConfig& config) = 0;

  /// Runs the tuned single-thread baseline kernel (paper Fig 18 COST line)
  /// and returns its wall seconds, or 0 when the kernel has none.
  virtual double RunTunedBaseline() = 0;

  /// Patterns the workload's results are made of, for timing uncached
  /// canonicalization.
  virtual std::vector<Pattern> ResultPatterns() const = 0;
};

/// The five workloads by name; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// --- Profiler layer table ---------------------------------------------------

/// Profiler buckets, in report order. Every sample lands in exactly one.
std::vector<std::string> LayerBuckets();

/// Buckets profiler samples by walking each stack from the leaf to the
/// first frame whose symbol matches the prefix table in layers.cc.
class LayerProfile {
 public:
  LayerProfile();

  void Add(const obs::ProfileSnapshot& snapshot);

  /// Samples per bucket, indexed like LayerBuckets().
  const std::vector<uint64_t>& samples() const { return samples_; }
  uint64_t total() const { return total_; }

 private:
  int Classify(const obs::ProfileStack& stack, std::string_view thread);
  int FrameRow(uintptr_t pc);

  std::vector<uint64_t> samples_;
  uint64_t total_ = 0;
  std::unordered_map<uintptr_t, int> row_cache_;
};

}  // namespace e2e
}  // namespace fractal

#endif  // FRACTAL_BENCH_E2E_E2E_H_
