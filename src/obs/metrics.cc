#include "obs/metrics.h"

#include <sstream>

#include "util/alloc_guard.h"
#include "util/strings.h"

namespace fractal {
namespace obs {

uint64_t Histogram::ApproxPercentile(double p) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  const double target = (p / 100.0) * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += BucketCount(i);
    if (static_cast<double>(seen) >= target) return BucketLowerBound(i);
  }
  return BucketLowerBound(kNumBuckets - 1);
}

void Histogram::Merge(const LocalHistogram& local) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (local.buckets[i] != 0) {
      buckets_[i].fetch_add(local.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(local.count, std::memory_order_relaxed);
  sum_.fetch_add(local.sum, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

// Registration is a cold, one-time, lock-taking operation by design — hot
// code caches the returned reference in a function-local static (header
// comment), and that first call can land arbitrarily late (e.g. the first
// galloped kernel of a run), so the map-node/string allocations here must
// not trip an armed AllocGuard.
Counter& MetricsRegistry::GetCounter(const std::string& name) {
  AllocGuard::Allow allow("one-time metric registration");
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  AllocGuard::Allow allow("one-time metric registration");
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  AllocGuard::Allow allow("one-time metric registration");
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::DumpText() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << StrFormat("counter   %-32s %llu\n", name.c_str(),
                     (unsigned long long)counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out << StrFormat("gauge     %-32s %lld\n", name.c_str(),
                     (long long)gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    out << StrFormat(
        "histogram %-32s count=%llu sum=%llu mean=%.1f p50~%llu p90~%llu "
        "p99~%llu\n",
        name.c_str(), (unsigned long long)histogram->Count(),
        (unsigned long long)histogram->Sum(), histogram->Mean(),
        (unsigned long long)histogram->ApproxPercentile(50),
        (unsigned long long)histogram->ApproxPercentile(90),
        (unsigned long long)histogram->ApproxPercentile(99));
  }
  return out.str();
}

std::string MetricsRegistry::DumpJson() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "" : ",") << "\"" << name
        << "\":" << counter->Value();
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "" : ",") << "\"" << name << "\":" << gauge->Value();
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "" : ",") << "\"" << name
        << "\":{\"count\":" << histogram->Count()
        << ",\"sum\":" << histogram->Sum() << ",\"buckets\":{";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t bucket_count = histogram->BucketCount(i);
      if (bucket_count == 0) continue;
      out << (first_bucket ? "" : ",") << "\""
          << Histogram::BucketLowerBound(i) << "\":" << bucket_count;
      first_bucket = false;
    }
    out << "}}";
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

/// Prometheus metric name: `fractal_` prefix, every non-[a-zA-Z0-9_] byte
/// (the registry uses dots) mapped to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "fractal_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::DumpPrometheus() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string p = PrometheusName(name) + "_total";
    out << "# TYPE " << p << " counter\n";
    out << p << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string p = PrometheusName(name);
    out << "# TYPE " << p << " gauge\n";
    out << p << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string p = PrometheusName(name);
    const uint64_t count = histogram->Count();
    out << "# TYPE " << p << " histogram\n";
    // Cumulative buckets; only boundaries with mass below them get a line
    // (the le values stay strictly increasing because buckets are walked in
    // order), and the top bucket (upper bound 2^64-1) folds into +Inf.
    uint64_t cumulative = 0;
    for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
      const uint64_t in_bucket = histogram->BucketCount(i);
      if (in_bucket == 0) continue;
      cumulative += in_bucket;
      out << p << "_bucket{le=\"" << Histogram::BucketUpperBound(i) << "\"} "
          << cumulative << "\n";
    }
    out << p << "_bucket{le=\"+Inf\"} " << count << "\n";
    out << p << "_sum " << histogram->Sum() << "\n";
    out << p << "_count " << count << "\n";
    // Percentile companions as their own gauge families: mixing summary
    // quantiles into a histogram family is invalid exposition format.
    for (const double q : {50.0, 90.0, 99.0}) {
      const std::string qp = p + StrFormat("_p%.0f", q);
      out << "# TYPE " << qp << " gauge\n";
      out << qp << " " << histogram->ApproxPercentile(q) << "\n";
    }
  }
  return out.str();
}

namespace {

// The Allow here covers the char* -> std::string key temporary, which is
// constructed before GetCounter's own Allow scope opens.
Counter& NamedCounter(const char* name) {
  AllocGuard::Allow allow("one-time metric registration");
  return MetricsRegistry::Get().GetCounter(name);
}
Histogram& NamedHistogram(const char* name) {
  AllocGuard::Allow allow("one-time metric registration");
  return MetricsRegistry::Get().GetHistogram(name);
}
Gauge& NamedGauge(const char* name) {
  AllocGuard::Allow allow("one-time metric registration");
  return MetricsRegistry::Get().GetGauge(name);
}

}  // namespace

Counter& WorkUnitsCounter() {
  static Counter& counter = NamedCounter("runtime.work_units");
  return counter;
}
Counter& InternalStealsCounter() {
  static Counter& counter = NamedCounter("runtime.steals_internal");
  return counter;
}
Counter& ExternalStealsCounter() {
  static Counter& counter = NamedCounter("runtime.steals_external");
  return counter;
}
Counter& BytesShippedCounter() {
  static Counter& counter = NamedCounter("runtime.bytes_shipped");
  return counter;
}
Counter& ExtensionTestsCounter() {
  static Counter& counter = NamedCounter("runtime.extension_tests");
  return counter;
}
Counter& StepsCounter() {
  static Counter& counter = NamedCounter("runtime.steps");
  return counter;
}
Counter& StepsDegradedCounter() {
  static Counter& counter = NamedCounter("runtime.steps_degraded");
  return counter;
}
Counter& WorkersCrashedCounter() {
  static Counter& counter = NamedCounter("runtime.workers_crashed");
  return counter;
}
Counter& UnitsSalvagedCounter() {
  static Counter& counter = NamedCounter("runtime.units_salvaged");
  return counter;
}
Counter& UnitsReplayedCounter() {
  static Counter& counter = NamedCounter("runtime.units_replayed");
  return counter;
}
Counter& StealTimeoutsCounter() {
  static Counter& counter = NamedCounter("bus.steal_timeouts");
  return counter;
}
Counter& DroppedRequestsCounter() {
  static Counter& counter = NamedCounter("bus.requests_dropped");
  return counter;
}
Counter& PayloadsRejectedCounter() {
  static Counter& counter = NamedCounter("bus.payloads_rejected");
  return counter;
}
Counter& IntersectionKernelsCounter() {
  static Counter& counter = NamedCounter("enumerate.intersections");
  return counter;
}
Counter& GallopedKernelsCounter() {
  static Counter& counter = NamedCounter("enumerate.galloped");
  return counter;
}
Counter& ScratchHitsCounter() {
  static Counter& counter = NamedCounter("enumerate.scratch_hits");
  return counter;
}
Counter& ScratchMissesCounter() {
  static Counter& counter = NamedCounter("enumerate.scratch_misses");
  return counter;
}
Counter& CanonicalMissesCounter() {
  static Counter& counter = NamedCounter("pattern.canonical_misses");
  return counter;
}

Counter& QueriesAdmittedCounter() {
  static Counter& counter = NamedCounter("runtime.queries_admitted");
  return counter;
}
Counter& QueriesRejectedCounter() {
  static Counter& counter = NamedCounter("runtime.queries_rejected");
  return counter;
}
Counter& QueriesCancelledCounter() {
  static Counter& counter = NamedCounter("runtime.queries_cancelled");
  return counter;
}
Counter& QueriesDeadlineExceededCounter() {
  static Counter& counter = NamedCounter("runtime.queries_deadline_exceeded");
  return counter;
}
Counter& QueriesCompletedCounter() {
  static Counter& counter = NamedCounter("runtime.queries_completed");
  return counter;
}

Counter& ProfilerSamplesCounter() {
  static Counter& counter = NamedCounter("obs.profiler_samples");
  return counter;
}
Counter& ExpositionRequestsCounter() {
  static Counter& counter = NamedCounter("obs.exposition_requests");
  return counter;
}

Gauge& SuspectVictimsGauge() {
  static Gauge& gauge = NamedGauge("runtime.suspect_victims");
  return gauge;
}
Gauge& LedgerBytesGauge() {
  static Gauge& gauge = NamedGauge("runtime.ledger_bytes");
  return gauge;
}
Gauge& StepActiveGauge() {
  static Gauge& gauge = NamedGauge("runtime.step_active");
  return gauge;
}
Gauge& CurrentStepGauge() {
  static Gauge& gauge = NamedGauge("runtime.current_step");
  return gauge;
}
Gauge& UnitsPerSecGauge() {
  static Gauge& gauge = NamedGauge("runtime.units_per_sec");
  return gauge;
}
Gauge& QueriesActiveGauge() {
  static Gauge& gauge = NamedGauge("runtime.queries_active");
  return gauge;
}
Gauge& QueriesQueuedGauge() {
  static Gauge& gauge = NamedGauge("runtime.queries_queued");
  return gauge;
}
Gauge& QueryUnitsGauge(uint64_t query_id) {
  // Same dynamic-suffix convention as WorkerUnitsGauge below: the base
  // name "runtime.query_units" is registered for the lint, instances carry
  // ".<id>". Barrier-rate call sites only.
  AllocGuard::Allow allow("one-time metric registration");
  return MetricsRegistry::Get().GetGauge(
      StrFormat("runtime.query_units.%llu", (unsigned long long)query_id));
}
Gauge& WorkerUnitsGauge(uint32_t worker) {
  // Registered under the lint-visible base name "runtime.worker_units";
  // the dynamic per-worker suffix is invisible to the registered-name rule
  // by design (sampler-rate call sites only).
  AllocGuard::Allow allow("one-time metric registration");
  return MetricsRegistry::Get().GetGauge(
      StrFormat("runtime.worker_units.%u", worker));
}

Histogram& StealRttHistogram() {
  static Histogram& histogram = NamedHistogram("bus.steal_rtt_us");
  return histogram;
}
Histogram& EncodeTimeHistogram() {
  static Histogram& histogram = NamedHistogram("codec.encode_ns");
  return histogram;
}
Histogram& DecodeTimeHistogram() {
  static Histogram& histogram = NamedHistogram("codec.decode_ns");
  return histogram;
}
Histogram& ExtensionBatchHistogram() {
  static Histogram& histogram = NamedHistogram("enumerate.batch_size");
  return histogram;
}
Histogram& RetryBackoffHistogram() {
  static Histogram& histogram = NamedHistogram("bus.retry_backoff_us");
  return histogram;
}

// --- Thread-owned hot-path accounting ---------------------------------------

namespace {

/// The registry handles PublishHotMetrics writes to, resolved together once
/// so the thread-exit publish never takes the registry lock (it can run
/// after lockdep's own thread_local state is gone).
struct HotHandles {
  Counter& work_units = WorkUnitsCounter();
  Counter& intersections = IntersectionKernelsCounter();
  Counter& galloped = GallopedKernelsCounter();
  Counter& scratch_hits = ScratchHitsCounter();
  Histogram& batch_sizes = ExtensionBatchHistogram();
};

const HotHandles& Handles() {
  static const HotHandles handles;
  return handles;
}

struct ExitPublisher {
  ~ExitPublisher() { PublishHotMetrics(); }
};

thread_local ExitPublisher exit_publisher;

}  // namespace

namespace hot_metrics_internal {

void ArmExitPublish() {
  AllocGuard::Allow allow("once per thread: thread-exit publish registration");
  Handles();
  // Odr-use constructs this thread's ExitPublisher and registers its
  // destructor with the thread-exit machinery.
  static_cast<void>(&exit_publisher);
  tls_hot_metrics.exit_publish_armed = true;
}

}  // namespace hot_metrics_internal

void PublishHotMetrics() {
  HotMetrics& m = hot_metrics_internal::tls_hot_metrics;
  const HotHandles& handles = Handles();
  if (m.work_units != 0) {
    handles.work_units.Add(m.work_units);
    if (m.units_sink != nullptr) {
      m.units_sink->fetch_add(m.work_units, std::memory_order_relaxed);
    }
    m.work_units = 0;
  }
  if (m.intersections != 0) {
    handles.intersections.Add(m.intersections);
    m.intersections = 0;
  }
  if (m.galloped != 0) {
    handles.galloped.Add(m.galloped);
    m.galloped = 0;
  }
  if (m.scratch_hits != 0) {
    handles.scratch_hits.Add(m.scratch_hits);
    m.scratch_hits = 0;
  }
  if (m.batch_sizes.count != 0) {
    handles.batch_sizes.Merge(m.batch_sizes);
    m.batch_sizes = LocalHistogram{};
  }
}

}  // namespace obs
}  // namespace fractal
