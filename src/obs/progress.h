// Mid-step progress reporting. A ProgressSampler turns the live runtime
// counters (work units, steal counts, shipped bytes — obs/metrics.h) into
// interval deltas and publishes them as gauges (`runtime.units_per_sec`,
// per-worker `runtime.worker_units.<w>`) so every consumer — the periodic
// log line, /statusz, tests — renders the same snapshot from one code path.
// Work units reach those counters in batches (obs::HotMetrics), so a
// mid-step sample trails the true count by less than
// HotMetrics::kPublishBatch units per execution thread.
//
// While a step is in flight, Cluster::RunStep's barrier wait drives a
// step-scoped sampler every ClusterOptions::progress_interval_ms (default
// off) and logs the result with LogStepProgress, so a long fractal step
// shows signs of life before the barrier-aggregated StepTelemetry exists.
// The driver thread that waits on the barrier does the sampling, so
// progress costs no thread of its own.
#ifndef FRACTAL_OBS_PROGRESS_H_
#define FRACTAL_OBS_PROGRESS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/timer.h"

namespace fractal {
namespace obs {

/// One sampling interval's worth of deltas.
struct ProgressSnapshot {
  double interval_seconds = 0;
  uint64_t work_units = 0;        // cumulative, at sample time
  uint64_t work_units_delta = 0;  // over the interval
  uint64_t units_per_sec = 0;
  uint64_t internal_steals_delta = 0;
  uint64_t external_steals_delta = 0;
  uint64_t bytes_shipped_delta = 0;
  /// Per-worker work-unit deltas, indexed by worker id; empty when the
  /// sampler has no per-worker source.
  std::vector<uint64_t> worker_units_delta;
};

/// Fills `*out` (resizing as needed) with cumulative work units per worker,
/// indexed by worker id. Cluster provides one over its workers' counters.
using WorkerUnitsFn = std::function<void(std::vector<uint64_t>* out)>;

/// Stateful delta computer over the process-wide counters. Not thread-safe:
/// each consumer owns its own sampler (deltas are relative to *its* last
/// Sample call). Sample() also publishes UnitsPerSecGauge and the
/// per-worker WorkerUnitsGauge values, last-writer-wins.
class ProgressSampler {
 public:
  explicit ProgressSampler(WorkerUnitsFn worker_units = nullptr);

  /// Computes deltas since the previous Sample() (or construction),
  /// publishes the gauges, and returns the snapshot.
  ProgressSnapshot Sample();

 private:
  WorkerUnitsFn worker_units_;
  WallTimer timer_;
  double last_seconds_ = 0;
  uint64_t last_work_ = 0;
  uint64_t last_internal_ = 0;
  uint64_t last_external_ = 0;
  uint64_t last_bytes_ = 0;
  std::vector<uint64_t> last_worker_units_;
  std::vector<uint64_t> worker_units_now_;
};

/// Emits the periodic "step progress" log line for one snapshot.
void LogStepProgress(const ProgressSnapshot& snapshot);

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_PROGRESS_H_
