// Registry of every metric and trace name the system emits — the single
// source of truth checked by tools/fractal_lint.py (rule: metric-name).
// Metric and trace names are plain string literals at their use sites;
// without a registry, a typo silently creates a fresh counter and the
// dashboards/tests reading the intended name see zeros forever. Any name
// passed to MetricsRegistry::GetCounter/GetGauge/GetHistogram or to a
// FRACTAL_TRACE_* macro inside src/ must appear below (tests may mint
// ad-hoc "test.*" names).
//
// To add a metric: add the literal here first, then use it. The lint points
// at this file when it flags an unregistered name.
#ifndef FRACTAL_OBS_METRIC_NAMES_H_
#define FRACTAL_OBS_METRIC_NAMES_H_

#include <string_view>

namespace fractal {
namespace obs {

/// Counter, gauge, and histogram names (obs/metrics.h).
inline constexpr std::string_view kMetricNames[] = {
    // Counters — runtime layer.
    "runtime.work_units",
    "runtime.steals_internal",
    "runtime.steals_external",
    "runtime.bytes_shipped",
    "runtime.extension_tests",
    "runtime.steps",
    "runtime.steps_degraded",
    "runtime.workers_crashed",
    "runtime.units_salvaged",
    "runtime.units_replayed",
    // Counters — query scheduler (DESIGN.md §12).
    "runtime.queries_admitted",
    "runtime.queries_rejected",
    "runtime.queries_cancelled",
    "runtime.queries_deadline_exceeded",
    "runtime.queries_completed",
    // Counters — message bus.
    "bus.steal_timeouts",
    "bus.requests_dropped",
    "bus.payloads_rejected",
    // Counters — enumeration data plane.
    "enumerate.intersections",
    "enumerate.galloped",
    "enumerate.scratch_hits",
    "enumerate.scratch_misses",
    "enumerate.steals",
    // Counters — pattern aggregation.
    "pattern.canonical_misses",
    // Counters — introspection plane.
    "obs.profiler_samples",
    "obs.exposition_requests",
    // Gauges.
    "runtime.suspect_victims",
    "runtime.step_active",
    "runtime.ledger_bytes",
    "runtime.current_step",
    "runtime.units_per_sec",
    // Base name for the per-worker interval-delta gauges; live instances
    // carry a ".<worker>" suffix minted at sampler rate (dynamic names are
    // invisible to the lint — register the base).
    "runtime.worker_units",
    // Query-scheduler gauges: in-flight population, plus the per-query
    // attained-service family ("runtime.query_units.<id>", credited at
    // step barriers — same dynamic-suffix convention as worker_units).
    "runtime.queries_active",
    "runtime.queries_queued",
    "runtime.query_units",
    // Histograms.
    "bus.steal_rtt_us",
    "bus.retry_backoff_us",
    "codec.encode_ns",
    "codec.decode_ns",
    "enumerate.batch_size",
};

/// Trace span/instant names (obs/trace.h FRACTAL_TRACE_*).
inline constexpr std::string_view kTraceNames[] = {
    "bus/delay_spike",
    "bus/reply",
    "bus/reply_bytes",
    "bus/request_steal",
    "cluster/run_step",
    "cluster/step_barrier",
    "cluster/step_cancelled",
    "dfs/expand",
    "enumerate/refill",
    "executor/execute",
    "executor/query",
    "executor/step",
    "executor/step_retry",
    "executor/step_salvage",
    "graph/reduce",
    "graph/reduce_to_keywords",
    "obs/profile_window",
    "runtime/step_degraded",
    "scheduler/admit",
    "scheduler/done",
    "scheduler/reject",
    "worker/drain_roots",
    "worker/payload_rejected",
    "worker/process_stolen",
    "worker/steal_miss",
    "worker/steal_service",
    "worker/victim_suspect",
};

/// HTTP paths served by the exposition server (obs/exposition.h
/// AddEndpoint). Same rationale as the metric names: a typo'd registration
/// would 404 forever while dashboards poll the intended path.
inline constexpr std::string_view kEndpointNames[] = {
    "/",
    "/healthz",
    "/metricsz",
    "/profilez",
    "/statusz",
    "/tracez",
};

}  // namespace obs
}  // namespace fractal

#endif  // FRACTAL_OBS_METRIC_NAMES_H_
