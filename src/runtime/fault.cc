#include "runtime/fault.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/check.h"
#include "util/random.h"
#include "util/strings.h"

namespace fractal {
namespace {

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashWorker:
    case FaultKind::kCrashWorkerRandom:
      return "crash";
    case FaultKind::kCrashStealService:
      return "crash-service";
    case FaultKind::kDropRequest:
      return "drop";
    case FaultKind::kDelayRequest:
      return "delay";
    case FaultKind::kSlowWorker:
      return "slow";
    case FaultKind::kCrashWorkerInSalvage:
      return "crash-in-salvage";
  }
  return "?";
}

std::string FormatProbability(double p) {
  std::string text = StrFormat("%g", p);
  return text;
}

}  // namespace

std::string FaultSpec::ToString() const {
  std::string text = KindName(kind);
  text += ':';
  bool first = true;
  auto add = [&](const std::string& part) {
    if (!first) text += ',';
    text += part;
    first = false;
  };
  if (worker >= 0) add(StrFormat("w=%d", worker));
  switch (kind) {
    case FaultKind::kCrashWorker:
    case FaultKind::kCrashStealService:
    case FaultKind::kCrashWorkerInSalvage:
      add(StrFormat("after=%llu", (unsigned long long)after_units));
      break;
    case FaultKind::kCrashWorkerRandom:
    case FaultKind::kDropRequest:
      add("p=" + FormatProbability(probability));
      break;
    case FaultKind::kDelayRequest:
      add("p=" + FormatProbability(probability));
      add(StrFormat("us=%lld", (long long)micros));
      break;
    case FaultKind::kSlowWorker:
      add(StrFormat("us=%lld", (long long)micros));
      break;
  }
  return text;
}

FaultPlan& FaultPlan::CrashWorker(int32_t worker, uint64_t after_units) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrashWorker;
  spec.worker = worker;
  spec.after_units = after_units;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::CrashWorkerRandomly(int32_t worker, double probability) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrashWorkerRandom;
  spec.worker = worker;
  spec.probability = probability;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::CrashStealService(int32_t worker,
                                        uint64_t after_requests) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrashStealService;
  spec.worker = worker;
  spec.after_units = after_requests;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::DropStealRequests(double probability) {
  FaultSpec spec;
  spec.kind = FaultKind::kDropRequest;
  spec.probability = probability;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::DelayStealRequests(double probability, int64_t micros) {
  FaultSpec spec;
  spec.kind = FaultKind::kDelayRequest;
  spec.probability = probability;
  spec.micros = micros;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::SlowWorker(int32_t worker, int64_t micros_per_unit) {
  FaultSpec spec;
  spec.kind = FaultKind::kSlowWorker;
  spec.worker = worker;
  spec.micros = micros_per_unit;
  specs_.push_back(spec);
  return *this;
}

FaultPlan& FaultPlan::CrashWorkerInSalvage(int32_t worker,
                                           uint64_t after_units) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrashWorkerInSalvage;
  spec.worker = worker;
  spec.after_units = after_units;
  specs_.push_back(spec);
  return *this;
}

namespace {

/// Parses all of `text` as a T: no leading whitespace or '+', no sign for
/// an unsigned T, no trailing characters, nothing outside T's range. A
/// parsed NaN fails every range comparison its caller makes.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && parsed_to == end;
}

}  // namespace

StatusOr<FaultPlan> FaultPlan::Parse(std::string_view text, uint64_t seed) {
  FaultPlan plan(seed);
  for (std::string_view entry : SplitString(text, ";")) {
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      return InvalidArgumentError(
          StrFormat("fault spec entry '%.*s' has no kind (expected "
                    "kind:key=value,...)",
                    (int)entry.size(), entry.data()));
    }
    const std::string_view kind_name = entry.substr(0, colon);
    FaultSpec spec;
    bool has_probability = false;
    bool has_field = false;
    for (std::string_view field :
         SplitString(entry.substr(colon + 1), ",")) {
      has_field = true;
      const size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return InvalidArgumentError(StrFormat(
            "fault spec field '%.*s' is not key=value", (int)field.size(),
            field.data()));
      }
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      bool parsed = false;
      std::string expected;
      if (key == "w") {
        parsed = ParseWhole(value, &spec.worker);
        expected = "an int32 worker id";
      } else if (key == "after") {
        parsed = ParseWhole(value, &spec.after_units);
        expected = "an unsigned count";
      } else if (key == "p") {
        parsed = ParseWhole(value, &spec.probability) &&
                 spec.probability >= 0 && spec.probability <= 1;
        expected = "a probability in [0, 1]";
        has_probability = true;
      } else if (key == "us") {
        parsed = ParseWhole(value, &spec.micros) && spec.micros >= 0 &&
                 spec.micros <= kMaxFaultMicros;
        expected = StrFormat("microseconds in [0, %lld]",
                             (long long)kMaxFaultMicros);
      } else {
        return InvalidArgumentError(StrFormat(
            "unknown fault spec key '%.*s'", (int)key.size(), key.data()));
      }
      if (!parsed) {
        return InvalidArgumentError(StrFormat(
            "fault spec value '%.*s' is not %s", (int)field.size(),
            field.data(), expected.c_str()));
      }
    }
    if (!has_field) {
      return InvalidArgumentError(
          StrFormat("fault spec entry '%.*s' has no key=value fields",
                    (int)entry.size(), entry.data()));
    }
    if (kind_name == "crash") {
      spec.kind = has_probability ? FaultKind::kCrashWorkerRandom
                                  : FaultKind::kCrashWorker;
    } else if (kind_name == "crash-service") {
      spec.kind = FaultKind::kCrashStealService;
    } else if (kind_name == "crash-in-salvage") {
      spec.kind = FaultKind::kCrashWorkerInSalvage;
    } else if (kind_name == "drop") {
      spec.kind = FaultKind::kDropRequest;
    } else if (kind_name == "delay") {
      spec.kind = FaultKind::kDelayRequest;
    } else if (kind_name == "slow") {
      spec.kind = FaultKind::kSlowWorker;
    } else {
      return InvalidArgumentError(
          StrFormat("unknown fault kind '%.*s'", (int)kind_name.size(),
                    kind_name.data()));
    }
    plan.specs_.push_back(spec);
  }
  return plan;
}

FaultPlan FaultPlan::Random(uint64_t seed, uint32_t num_workers) {
  FRACTAL_CHECK(num_workers > 0);
  FaultPlan plan(seed);
  SplitMix64 rng(seed ^ 0x5eedfau);
  switch (rng.NextBounded(5)) {
    case 0:
      plan.CrashWorker((int32_t)rng.NextBounded(num_workers),
                       1 + rng.NextBounded(300));
      break;
    case 1:
      plan.CrashStealService((int32_t)rng.NextBounded(num_workers),
                             rng.NextBounded(4));
      break;
    case 2:
      plan.DropStealRequests(0.05 + 0.25 * rng.NextDouble());
      break;
    case 3:
      plan.DelayStealRequests(0.1 + 0.3 * rng.NextDouble(),
                              (int64_t)(200 + rng.NextBounded(2000)));
      break;
    case 4: {
      // Crash-during-recovery: a first crash triggers a salvage pass, then
      // a second (different) worker dies mid-replay. Inert under the
      // from-scratch retry mode (no salvage pass ever arms the entry).
      const uint32_t first = rng.NextBounded(num_workers);
      plan.CrashWorker((int32_t)first, 1 + rng.NextBounded(300));
      plan.CrashWorkerInSalvage((int32_t)((first + 1) % num_workers),
                                1 + rng.NextBounded(100));
      break;
    }
  }
  if (rng.NextBounded(100) < 40) {
    plan.SlowWorker((int32_t)rng.NextBounded(num_workers),
                    (int64_t)(1 + rng.NextBounded(20)));
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string text;
  for (const FaultSpec& spec : specs_) {
    if (!text.empty()) text += ';';
    text += spec.ToString();
  }
  return text;
}

Status FaultPlan::Validate(uint32_t num_workers) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.worker >= 0 && (uint32_t)spec.worker >= num_workers) {
      return InvalidArgumentError(StrFormat(
          "fault '%s' targets a worker outside the cluster (%u workers)",
          spec.ToString().c_str(), num_workers));
    }
    switch (spec.kind) {
      case FaultKind::kCrashWorker:
      case FaultKind::kCrashWorkerInSalvage:
        if (spec.worker < 0) {
          return InvalidArgumentError(
              "deterministic crash needs an explicit worker (w=...)");
        }
        if (spec.after_units == 0) {
          return InvalidArgumentError(
              "crash trigger needs after >= 1 (the Nth consumed unit)");
        }
        break;
      case FaultKind::kCrashStealService:
        if (spec.worker < 0) {
          return InvalidArgumentError(
              "steal-service crash needs an explicit worker (w=...)");
        }
        break;
      case FaultKind::kCrashWorkerRandom:
      case FaultKind::kDropRequest:
      case FaultKind::kDelayRequest:
        if (spec.probability < 0 || spec.probability > 1) {
          return InvalidArgumentError(StrFormat(
              "fault '%s' needs a probability in [0,1]",
              spec.ToString().c_str()));
        }
        break;
      case FaultKind::kSlowWorker:
        break;
    }
    if (spec.micros < 0 || spec.micros > kMaxFaultMicros) {
      return InvalidArgumentError(StrFormat(
          "fault '%s' has a duration outside [0, %lld] us",
          spec.ToString().c_str(), (long long)kMaxFaultMicros));
    }
  }
  return Status::Ok();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      states_(std::make_unique<EntryState[]>(plan_.specs().size())) {
  for (auto& entry : crash_entry_) {
    entry.store(-1, std::memory_order_relaxed);
  }
}

void FaultInjector::BeginStep() {
  crashed_mask_.store(0, std::memory_order_release);
  for (auto& entry : crash_entry_) {
    entry.store(-1, std::memory_order_relaxed);
  }
  const auto& specs = plan_.specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    // Probabilistic crashes re-arm every step (a p=1 plan defeats every
    // retry — the exhausted-retry Status path is testable). Deterministic
    // crashes stay one-shot: the retried step must be able to succeed.
    // Their unit counters keep running so the per-unit random stream never
    // repeats across attempts.
    if (specs[i].kind == FaultKind::kCrashWorkerRandom) {
      states_[i].fired.store(false, std::memory_order_relaxed);
    }
  }
}

bool FaultInjector::Chance(size_t entry, uint64_t event,
                           double probability) const {
  if (probability <= 0) return false;
  if (probability >= 1) return true;
  SplitMix64 rng(plan_.seed() ^ ((entry + 1) * 0x9e3779b97f4a7c15ull) ^
                 (event * 0xd1b54a32d192ed03ull));
  return rng.NextDouble() < probability;
}

void FaultInjector::Crash(uint32_t worker, size_t entry) {
  FRACTAL_DCHECK(worker < kMaxFaultWorkers);
  int32_t expected = -1;
  crash_entry_[worker].compare_exchange_strong(expected, (int32_t)entry,
                                               std::memory_order_relaxed);
  crash_events_.fetch_add(1, std::memory_order_relaxed);
  // The release pairs with the acquire loads in WorkerCrashed(): observers
  // of the crash bit also see the cause record above. (The ad-hoc flag this
  // replaces paired its release store with a relaxed load.)
  crashed_mask_.fetch_or(uint64_t{1} << worker, std::memory_order_release);
}

bool FaultInjector::OnWorkUnit(uint32_t worker) {
  const uint64_t bit = uint64_t{1} << worker;
  int64_t slowdown_micros = 0;
  const auto& specs = plan_.specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& spec = specs[i];
    EntryState& state = states_[i];
    switch (spec.kind) {
      case FaultKind::kCrashWorker: {
        if (spec.worker != (int32_t)worker) break;
        // fetch_add hands every racing thread a unique unit number, so
        // exactly one observes the threshold; `fired` keeps the entry
        // one-shot across step retries as well.
        const uint64_t units =
            state.counter.fetch_add(1, std::memory_order_relaxed) + 1;
        if (units == spec.after_units &&
            !state.fired.exchange(true, std::memory_order_relaxed)) {
          Crash(worker, i);
        }
        break;
      }
      case FaultKind::kCrashWorkerRandom: {
        if (spec.worker >= 0 && spec.worker != (int32_t)worker) break;
        const uint64_t event =
            state.counter.fetch_add(1, std::memory_order_relaxed);
        if (Chance(i, event, spec.probability) &&
            !state.fired.exchange(true, std::memory_order_relaxed)) {
          Crash(worker, i);
        }
        break;
      }
      case FaultKind::kCrashWorkerInSalvage: {
        if (spec.worker != (int32_t)worker) break;
        // Units consumed outside a salvage pass do not advance the
        // trigger, so the entry fires at the Nth *replayed* unit.
        if (!salvage_pass_.load(std::memory_order_relaxed)) break;
        const uint64_t units =
            state.counter.fetch_add(1, std::memory_order_relaxed) + 1;
        if (units == spec.after_units &&
            !state.fired.exchange(true, std::memory_order_relaxed)) {
          Crash(worker, i);
        }
        break;
      }
      case FaultKind::kSlowWorker:
        if (spec.worker < 0 || spec.worker == (int32_t)worker) {
          slowdown_micros += spec.micros;
        }
        break;
      default:
        break;
    }
  }
  if (slowdown_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(slowdown_micros));
  }
  return (crashed_mask_.load(std::memory_order_acquire) & bit) == 0;
}

bool FaultInjector::OnStealRequestArrived(uint32_t victim) {
  bool serve = true;
  const auto& specs = plan_.specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& spec = specs[i];
    if (spec.kind != FaultKind::kCrashStealService) continue;
    if (spec.worker != (int32_t)victim) continue;
    EntryState& state = states_[i];
    // Sticky for the injector's lifetime: a dead service stays dead even
    // across step retries (the suspect tracker and the live mask route
    // around it).
    if (state.fired.load(std::memory_order_relaxed)) {
      serve = false;
      continue;
    }
    if (state.counter.fetch_add(1, std::memory_order_relaxed) + 1 >
        spec.after_units) {
      state.fired.store(true, std::memory_order_relaxed);
      serve = false;
    }
  }
  return serve;
}

bool FaultInjector::DropStealRequest() {
  const auto& specs = plan_.specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != FaultKind::kDropRequest) continue;
    const uint64_t event =
        states_[i].counter.fetch_add(1, std::memory_order_relaxed);
    if (Chance(i, event, specs[i].probability)) return true;
  }
  return false;
}

int64_t FaultInjector::StealRequestDelayMicros() {
  int64_t total = 0;
  const auto& specs = plan_.specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != FaultKind::kDelayRequest) continue;
    const uint64_t event =
        states_[i].counter.fetch_add(1, std::memory_order_relaxed);
    if (Chance(i, event, specs[i].probability)) total += specs[i].micros;
  }
  return total;
}

std::string FaultInjector::CrashCause(uint32_t worker) const {
  if (worker >= kMaxFaultWorkers) return "";
  const int32_t entry = crash_entry_[worker].load(std::memory_order_acquire);
  if (entry < 0) return "";
  return StrFormat("injected fault '%s'",
                   plan_.specs()[(size_t)entry].ToString().c_str());
}

}  // namespace fractal
