// The bench-owned span recorder and the profiler layer table.
//
// Layer attribution walks each sampled stack from the leaf towards the
// root and stops at the first frame whose demangled symbol starts with a
// prefix in kLayerTable. Frames that match nothing (libc, libstdc++
// templates, small helpers) are skipped, so their time lands in the nearest
// named caller's layer. A leaf inside a blocking call (a futex wait, a
// sleep, a yield) marks the sample as waiting; rows then pick their
// `waiting` bucket, which is how a parked execution thread (idle) is told
// apart from a driver blocked at the step barrier (gate wait).
//
// libc is built without frame pointers, so a thread blocked in a system
// call inside libc yields a one-frame stack: the syscall site. Such a
// sample is attributed by the thread's role, from the name the runtime
// registered it under: a driver ("driver", "query_driver") is blocked at
// the admission gate, the barrier or the scheduler queue; an execution or
// steal-service thread ("worker...") is idle. A one-frame stack that is
// busy inside libc (the heap allocator, mostly) has no recoverable caller
// and is `libc_s`. Samples matching no row are `other_s`; run.py
// --check-layers fails when that share exceeds 10%, so a renamed symbol
// cannot silently empty a layer.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>

#include <dlfcn.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "bench/e2e/e2e.h"
#include "util/strings.h"

namespace fractal {
namespace e2e {
namespace {

enum Bucket : int {
  kKernels,
  kStrategy,
  kClaim,
  kCanonical,
  kAggregate,
  kTask,
  kDriver,
  kCodec,
  kBus,
  kDispatch,
  kIdle,
  kGateWait,
  kLibc,
  kOther,
  kNumBuckets,
};

constexpr const char* kBucketNames[kNumBuckets] = {
    "graph.kernels_s",     "enumerate.strategy_s", "enumerate.claim_s",
    "pattern.canonical_s", "core.aggregate_s",     "core.task_s",
    "core.driver_s",       "runtime.codec_s",      "runtime.bus_s",
    "runtime.dispatch_s",  "runtime.idle_s",       "runtime.gate_wait_s",
    "libc_s",              "other_s",
};

struct LayerRow {
  const char* prefix;
  Bucket busy;
  Bucket waiting;
};

// First matching row wins, so specific prefixes precede general ones.
constexpr LayerRow kLayerTable[] = {
    // graph: sorted-set algebra kernels, hub bitmaps, adjacency tests.
    {"fractal::adjacency::", kKernels, kKernels},
    {"fractal::Graph::", kKernels, kKernels},
    // runtime: stolen-work serialization and the WS_ext message bus. A
    // steal service parked on its inbox is idle, not bus time.
    {"fractal::SubgraphCodec::", kCodec, kCodec},
    {"fractal::MessageBus::WaitForRequest", kBus, kIdle},
    {"fractal::MessageBus::", kBus, kBus},
    {"fractal::Worker::ClaimExternalWork", kBus, kBus},
    {"fractal::Worker::StealServiceLoop", kBus, kIdle},
    // enumerate: work claiming for WS_int / WS_ext victims.
    {"fractal::SubgraphEnumerator::TrySteal", kClaim, kClaim},
    {"fractal::Worker::ClaimInternalWork", kClaim, kClaim},
    {"fractal::Worker::ClaimLocalWork", kClaim, kClaim},
    // pattern: canonical labeling and quick patterns.
    {"fractal::CanonicalForm", kCanonical, kCanonical},
    {"fractal::CanonicalPatternCache::", kCanonical, kCanonical},
    {"fractal::Computation::CanonicalPattern", kCanonical, kCanonical},
    {"fractal::Subgraph::QuickPattern", kCanonical, kCanonical},
    {"fractal::Pattern::", kCanonical, kCanonical},
    {"fractal::AreIsomorphic", kCanonical, kCanonical},
    {"fractal::Automorphism", kCanonical, kCanonical},
    // apps: FSM's support type and the app drivers. The apps' filters and
    // keys are lambdas behind std::function; their invokers have internal
    // linkage, dladdr cannot name them, and their samples fall through to
    // the calling FractoidStepTask frame (core.task_s).
    {"fractal::DomainSupport::", kAggregate, kAggregate},
    {"fractal::RunFsm", kDriver, kGateWait},
    {"fractal::CountMotifs", kDriver, kGateWait},
    // core: aggregation storage and the step task (Algorithm 1).
    {"fractal::AggregationStorage", kAggregate, kAggregate},
    {"fractal::AggregationSpec", kAggregate, kAggregate},
    {"fractal::TypedStorage", kAggregate, kAggregate},
    {"fractal::FractoidStepTask::MergeOutputs", kAggregate, kAggregate},
    {"fractal::FractoidStepTask::", kTask, kTask},
    // enumerate: extension strategies and the subgraph data plane.
    {"fractal::VertexInducedStrategy::", kStrategy, kStrategy},
    {"fractal::EdgeInducedStrategy::", kStrategy, kStrategy},
    {"fractal::PatternInducedStrategy::", kStrategy, kStrategy},
    {"fractal::KClistStrategy::", kStrategy, kStrategy},
    {"fractal::SubgraphEnumerator::", kStrategy, kStrategy},
    {"fractal::Subgraph::", kStrategy, kStrategy},
    {"fractal::ScratchArena::", kStrategy, kStrategy},
    // runtime: execution threads between steps, step submission, the
    // admission gate, the barrier and the scheduler's driver threads.
    {"fractal::Worker::RunStepOnThread", kDispatch, kIdle},
    {"fractal::Worker::ThreadLoop", kDispatch, kIdle},
    {"fractal::Cluster::", kDispatch, kGateWait},
    {"fractal::QueryScheduler::", kDispatch, kGateWait},
    {"fractal::ScheduledQuery::", kDispatch, kGateWait},
    {"fractal::QueryHandle::", kDispatch, kGateWait},
    // core: the executor driver (Algorithm 2), plan compilation, and the
    // per-query graph preparation a driver runs outside the steps (the
    // graph.reduce_s / graph.index_s spans split the latter out).
    {"fractal::ExecuteFractoid", kDriver, kGateWait},
    {"fractal::CompileSteps", kDriver, kDriver},
    {"fractal::Fractoid::", kDriver, kGateWait},
    {"fractal::FractalGraph::", kDriver, kDriver},
    {"fractal::ReduceToKeywords", kDriver, kDriver},
    {"fractal::InvertedIndex::", kDriver, kDriver},
    {"fractal::GraphBuilder::", kDriver, kDriver},
};

/// Leaf symbols of blocking calls: a sample whose leaf is one of these is
/// waiting, not computing.
constexpr std::string_view kBlockingLeaves[] = {
    "pthread_cond_", "__pthread_cond_", "__futex", "futex", "syscall",
    "clock_nanosleep", "__clock_nanosleep", "nanosleep", "__nanosleep",
    "sched_yield", "__lll_lock_wait", "pthread_mutex_lock",
};

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// True when `pc` sits on, or just after, an x86-64 `syscall` instruction
/// (0f 05) inside a loaded object: the thread is in a system call.
bool AtSyscall(uintptr_t pc) {
#if defined(__x86_64__)
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) == 0) return false;
  const auto* code = reinterpret_cast<const uint8_t*>(pc);
  return (code[0] == 0x0f && code[1] == 0x05) ||
         (code[-2] == 0x0f && code[-1] == 0x05);
#else
  (void)pc;
  return false;
#endif
}

bool InLibc(uintptr_t pc) {
  Dl_info info;
  return dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
         info.dli_fname != nullptr &&
         std::string_view(info.dli_fname).find("/libc.so") !=
             std::string_view::npos;
}

/// Bucket of a blocked sample that no row claimed, by the thread's role.
Bucket WaitingBucket(std::string_view thread) {
  if (thread == "driver" || thread == "query_driver") return kGateWait;
  if (StartsWith(thread, "worker")) return kIdle;
  return kOther;
}

uint32_t CurrentTid() { return static_cast<uint32_t>(syscall(SYS_gettid)); }

}  // namespace

// --- SpanRecorder -------------------------------------------------------------

int64_t SpanRecorder::Begin(const char* name, uint64_t query, int64_t parent) {
  if (!enabled_) return kNoParent;
  const double now = clock_.ElapsedNanos() / 1000.0;
  MutexLock lock(mu_);
  spans_.push_back({name, query, parent, CurrentTid(), now, -1.0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  const double now = clock_.ElapsedNanos() / 1000.0;
  MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  MutexLock lock(mu_);
  double total_us = 0;
  for (const Span& span : spans_) {
    if (span.end_us >= 0 && name == span.name) {
      total_us += span.end_us - span.start_us;
    }
  }
  return total_us / 1e6;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  MutexLock lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return InternalError(StrFormat("cannot open %s", path.c_str()));
  }
  std::fprintf(file, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us < 0) continue;
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId64 ",\"query\":%" PRIu64 "}}",
                 first ? "" : ",\n", span.name, span.tid, span.start_us,
                 span.end_us - span.start_us, i, span.parent, span.query);
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  if (std::fclose(file) != 0) {
    return InternalError(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

// --- LayerProfile -------------------------------------------------------------

std::vector<std::string> LayerBuckets() {
  return std::vector<std::string>(std::begin(kBucketNames),
                                  std::end(kBucketNames));
}

LayerProfile::LayerProfile() : samples_(kNumBuckets, 0) {}

void LayerProfile::Add(const obs::ProfileSnapshot& snapshot) {
  for (const obs::ThreadProfile& thread : snapshot.threads) {
    for (const obs::ProfileStack& stack : thread.stacks) {
      ++samples_[static_cast<size_t>(Classify(stack, thread.name))];
      ++total_;
    }
  }
}

// Row index for one frame, or -1 when no row matches; -2 marks a blocking
// libc symbol. Cached per pc: symbolization is the expensive part.
int LayerProfile::FrameRow(uintptr_t pc) {
  const auto it = row_cache_.find(pc);
  if (it != row_cache_.end()) return it->second;
  const std::string symbol = obs::Profiler::Symbolize(pc);
  int row = -1;
  for (size_t i = 0; i < std::size(kLayerTable); ++i) {
    if (StartsWith(symbol, kLayerTable[i].prefix)) {
      row = static_cast<int>(i);
      break;
    }
  }
  if (row < 0) {
    for (const std::string_view blocking : kBlockingLeaves) {
      if (StartsWith(symbol, blocking)) {
        row = -2;
        break;
      }
    }
  }
  row_cache_.emplace(pc, row);
  return row;
}

int LayerProfile::Classify(const obs::ProfileStack& stack,
                           std::string_view thread) {
  bool waiting = false;
  for (size_t i = 0; i < stack.pcs.size(); ++i) {
    // Non-leaf entries are return addresses: resolve the call instruction.
    const uintptr_t pc = i == 0 ? stack.pcs[i] : stack.pcs[i] - 1;
    const int row = FrameRow(pc);
    if (row == -2 || (i == 0 && row == -1 && AtSyscall(pc))) {
      waiting = true;
      continue;
    }
    if (row >= 0) {
      const LayerRow& match = kLayerTable[static_cast<size_t>(row)];
      return waiting ? match.waiting : match.busy;
    }
  }
  if (waiting) return WaitingBucket(thread);
  return stack.pcs.size() == 1 && InLibc(stack.pcs[0]) ? kLibc : kOther;
}

}  // namespace e2e
}  // namespace fractal
