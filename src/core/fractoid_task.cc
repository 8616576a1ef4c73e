#include "core/fractoid_task.h"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/lineage.h"
#include "util/check.h"

namespace fractal {
namespace {

/// Leaf candidates grouped by (adjacency mask to the prefix, vertex label):
/// with one edge label, the pair fixes the quick pattern of the prefix plus
/// the candidate (DESIGN.md §8 "Leaf batches"). A fixed open-addressing
/// table on the stack: kSlots slots hold at most kMaxGroups groups, so
/// probes always end and nothing allocates.
class LeafGroups {
 public:
  struct Group {
    uint64_t mask;
    Label label;
    uint32_t first;  // the group's first candidate, its representative
    uint64_t count;
  };
  static constexpr uint32_t kSlots = 64;
  static constexpr uint32_t kMaxGroups = kSlots / 2;

  /// Counts candidate `index` into its group. Returns false, counting
  /// nothing, when the group is new and the table is full.
  FRACTAL_HOT bool Add(uint64_t mask, Label label, uint32_t index) {
    const uint64_t hash =
        (mask ^ (uint64_t{label} << 32) ^ label) * 0x9E3779B97F4A7C15ull;
    for (uint32_t slot = static_cast<uint32_t>(hash >> 58);;
         slot = (slot + 1) % kSlots) {
      const uint8_t entry = slots_[slot];
      if (entry == 0) {
        if (size_ == kMaxGroups) return false;
        groups_[size_] = {mask, label, index, 1};
        slots_[slot] = static_cast<uint8_t>(++size_);
        return true;
      }
      Group& group = groups_[entry - 1];
      if (group.mask == mask && group.label == label) {
        ++group.count;
        return true;
      }
    }
  }

  std::span<const Group> groups() const { return {groups_.data(), size_}; }

  void Clear() {
    slots_.fill(0);
    size_ = 0;
  }

 private:
  std::array<uint8_t, kSlots> slots_{};  // group index + 1; 0 is empty
  std::array<Group, kMaxGroups> groups_{};
  uint32_t size_ = 0;
};

}  // namespace

FractoidStepTask::FractoidStepTask(
    const Fractoid& fractoid, const StepPlan& plan, bool is_final,
    const ExecutionConfig& config, uint32_t total_threads,
    const SubgraphSink* sink,
    std::vector<const AggregationStorageBase*> completed)
    : fractoid_(fractoid),
      graph_(*fractoid.graph()),
      strategy_(*fractoid.strategy()),
      plan_(plan),
      is_final_(is_final),
      config_(config),
      sink_(sink),
      completed_(std::move(completed)) {
  const auto& workflow = fractoid_.primitives();
  num_levels_ = 0;
  expansions_before_.reserve(plan_.end + 1);
  for (uint32_t i = 0; i < plan_.end; ++i) {
    expansions_before_.push_back(num_levels_);
    if (workflow[i].kind == Primitive::Kind::kExpand) ++num_levels_;
  }
  expansions_before_.push_back(num_levels_);
  // Map each to-compute aggregation index to a storage slot.
  storage_slots_.assign(plan_.end, -1);
  for (uint32_t i = plan_.new_begin; i < plan_.end; ++i) {
    if (workflow[i].kind == Primitive::Kind::kAggregate) {
      storage_slots_[i] = static_cast<int32_t>(new_aggregates_.size());
      new_aggregates_.push_back(i);
    }
  }
  // Fresh per-thread state per step attempt: a crashed attempt's partial
  // accumulators are simply dropped with the task.
  for (uint32_t core = 0; core < total_threads; ++core) {
    auto s = std::make_unique<CoreState>();
    s->computation = std::make_unique<Computation>(&graph_);
    s->frame_bytes.assign(num_levels_, 0);
    for (const uint32_t agg_index : new_aggregates_) {
      s->storages.push_back(
          fractoid_.primitives()[agg_index].aggregation->CreateStorage());
      // Task-scoped scratch accumulator, used only under lineage tracking.
      s->task_storages.push_back(
          fractoid_.primitives()[agg_index].aggregation->CreateStorage());
    }
    states_.push_back(std::move(s));
  }
  // What the last E-level does with its candidates (DESIGN.md §8 "Leaf
  // batches"): count them when the step ends there, or ends in size filters
  // the edge rows can answer, and no one reads them; or count them per
  // quick pattern when a counting storage is all that follows and the
  // strategy's rows and one edge label fix the pattern.
  uint32_t leaf_next = 0;  // the primitive after the last E
  for (uint32_t i = 0; i < plan_.end; ++i) {
    if (workflow[i].kind == Primitive::Kind::kExpand) leaf_next = i + 1;
  }
  uint32_t leaf_end = leaf_next;  // past the size filters that trail it
  while (leaf_end < plan_.end &&
         workflow[leaf_end].kind == Primitive::Kind::kLocalFilter &&
         workflow[leaf_end].size_filter != nullptr) {
    ++leaf_end;
  }
  const bool rows_count_edges =
      strategy_.WordOrderedRows() && num_levels_ <= 64;
  if (leaf_end == plan_.end && (leaf_end == leaf_next || rows_count_edges)) {
    if (!is_final_ || (sink_ == nullptr && !config_.collect_subgraphs)) {
      leaf_fold_ = LeafFold::kCount;
      for (uint32_t i = leaf_next; i < leaf_end; ++i) {
        leaf_size_filters_.push_back(workflow[i].size_filter);
      }
    }
  } else if (leaf_next + 1 == plan_.end &&
             workflow[leaf_next].kind == Primitive::Kind::kAggregate &&
             storage_slots_[leaf_next] >= 0 && !states_.empty() &&
             states_[0]->storages[storage_slots_[leaf_next]]
                 ->CountsByPattern() &&
             rows_count_edges && graph_.UniformEdgeLabel().has_value()) {
    leaf_fold_ = LeafFold::kCountByPattern;
    leaf_slot_ = storage_slots_[leaf_next];
  }
}

FractoidStepTask::~FractoidStepTask() = default;

FRACTAL_HOT void FractoidStepTask::DrainRoots(ThreadContext& t,
                                              std::vector<uint32_t> roots) {
  CoreState& s = *states_[t.core_id];
  s.computation->SetIds(t.worker_id, t.core_id);
  if (num_levels_ == 0 || roots.empty()) return;
  if (t.lineage != nullptr) {
    DrainRootsTracked(t, s, std::move(roots));
    return;
  }
  t.frames[0]->Refill(s.subgraph, /*primitive_index=*/1, std::move(roots),
                      /*rows=*/{});
  DrainFrame(t, s, *t.frames[0]);
}

FRACTAL_HOT void FractoidStepTask::DrainRootsTracked(
    ThreadContext& t, CoreState& s, std::vector<uint32_t> roots) {
  LineageLedger& lineage = *t.lineage;
  const bool replay = lineage.salvage_pass();
  // Frame 0 stays the stealable root queue in both modes; the sentinel
  // primitive index marks stolen entries as replay indices, not extensions.
  SubgraphEnumerator& frame = *t.frames[0];
  frame.Refill(s.subgraph, replay ? kReplayRootPrimitive : 1,
               std::move(roots), /*rows=*/{});
  FaultInjector* const injector = t.control->injector;
  while (const auto index = frame.ConsumeNext()) {
    const uint32_t extension = frame.extension(*index);
    const uint64_t task_id = lineage.RootTaskId(extension);
    if (replay) {
      ProcessReplayRoot(t, s, extension, task_id);
    } else {
      const uint64_t units_before = t.stats.work_units;
      if (!t.ConsumeWorkUnit()) {
        DiscardTaskScratch(s);
        break;
      }
      {
        const AllocGuard guard(GuardModeFor(t));
        strategy_.Apply(graph_, extension, frame.row(*index), &s.subgraph);
        Process(t, s, /*index=*/1);
        strategy_.Undo(graph_, &s.subgraph);
      }
      if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
        DiscardTaskScratch(s);
      } else {
        CommitTask(t, s, task_id, units_before);
      }
    }
    if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) break;
  }
  frame.Deactivate();
}

FRACTAL_HOT void FractoidStepTask::ProcessReplayRoot(ThreadContext& t,
                                                     CoreState& s,
                                                     uint32_t replay_index,
                                                     uint64_t task_id) {
  const SubgraphEnumerator::StolenWork& work =
      t.lineage->replay_root(replay_index);
  const uint64_t units_before = t.stats.work_units;
  {
    const AllocGuard guard(GuardModeFor(t));
    ApplyDescriptor(s, work);
    if (!t.ConsumeWorkUnit()) {
      s.subgraph.Clear();
      DiscardTaskScratch(s);
      return;
    }
    Process(t, s, work.primitive_index);
    s.subgraph.Clear();
  }
  FaultInjector* const injector = t.control->injector;
  if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
    DiscardTaskScratch(s);
  } else {
    CommitTask(t, s, task_id, units_before);
  }
}

FRACTAL_HOT void FractoidStepTask::ApplyDescriptor(
    CoreState& s, const SubgraphEnumerator::StolenWork& work) {
  s.subgraph = work.prefix;
  // A codec-decoded prefix arrives without its quick code.
  s.subgraph.RebuildQuickCode(graph_);
  strategy_.ApplyBySearch(graph_, work.extension, &s.subgraph,
                          s.computation->scratch_arena());
}

void FractoidStepTask::CommitTask(ThreadContext& t, CoreState& s,
                                  uint64_t task_id, uint64_t units_before) {
  FRACTAL_HOT_ESCAPE("lineage commit: once per fractoid task, not per unit");
  AllocGuard::Allow allow("lineage commit: fold task scratch, stamp ledger");
  for (size_t slot = 0; slot < s.task_storages.size(); ++slot) {
    // MergeFrom consumes (empties) the scratch storage.
    s.storages[slot]->MergeFrom(*s.task_storages[slot]);
  }
  s.local_count += s.task_count;
  s.task_count = 0;
  for (Subgraph& subgraph : s.task_collected) {
    s.collected.push_back(std::move(subgraph));
  }
  s.task_collected.clear();
  t.lineage->StampComplete(task_id, t.stats.work_units - units_before);
}

void FractoidStepTask::DiscardTaskScratch(CoreState& s) {
  FRACTAL_HOT_ESCAPE("crash unwind: once per abandoned task, not per unit");
  for (auto& storage : s.task_storages) storage->Clear();
  s.task_count = 0;
  s.task_collected.clear();
}

FRACTAL_HOT void FractoidStepTask::ProcessStolen(
    ThreadContext& t, const SubgraphEnumerator::StolenWork& work) {
  CoreState& s = *states_[t.core_id];
  s.computation->SetIds(t.worker_id, t.core_id);
  if (t.lineage != nullptr) {
    if (work.primitive_index == kReplayRootPrimitive) {
      // A replay root stolen off frame 0: `extension` is the replay index.
      ProcessReplayRoot(t, s, work.extension, work.lineage_id);
      return;
    }
    if (t.lineage->has_exclusions() &&
        t.lineage->Excluded(work.prefix, work.extension,
                            work.primitive_index)) {
      // Already covered by a completed earlier pass; StampClaim minted the
      // record pre-completed, so dropping it loses nothing.
      return;
    }
    const uint64_t units_before = t.stats.work_units;
    {
      const AllocGuard guard(GuardModeFor(t));
      ApplyDescriptor(s, work);
      if (!t.ConsumeWorkUnit()) {
        s.subgraph.Clear();
        DiscardTaskScratch(s);
        return;
      }
      Process(t, s, work.primitive_index);
      s.subgraph.Clear();
    }
    FaultInjector* const injector = t.control->injector;
    if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
      DiscardTaskScratch(s);
    } else {
      CommitTask(t, s, work.lineage_id, units_before);
    }
    return;
  }
  const AllocGuard guard(GuardModeFor(t));
  ApplyDescriptor(s, work);
  if (!t.ConsumeWorkUnit()) {
    // The worker crashed: drop the stolen unit — the whole step attempt is
    // discarded and re-executed anyway.
    s.subgraph.Clear();
    return;
  }
  Process(t, s, work.primitive_index);
  s.subgraph.Clear();
}

StolenWorkBounds FractoidStepTask::StealBounds() const {
  StolenWorkBounds bounds;
  bounds.num_vertices = graph_.NumVertices();
  bounds.num_edges = graph_.NumEdges();
  bounds.num_extensions = strategy_.NumExtensionIds(graph_);
  bounds.expansions_before = expansions_before_;
  return bounds;
}

void FractoidStepTask::FinishThread(ThreadContext& t) {
  CoreState& s = *states_[t.core_id];
  // Per-attempt delta: the Computation (and its cumulative test counter)
  // survives across salvage passes of one task, while t.stats resets at
  // every step start.
  const uint64_t tests = s.computation->extension_context().extension_tests;
  t.stats.extension_tests = tests - s.tests_flushed;
  s.tests_flushed = tests;
}

void FractoidStepTask::DrainFrame(ThreadContext& t, CoreState& s,
                                  SubgraphEnumerator& frame) {
  const uint32_t next_index = frame.primitive_index();
  while (const auto index = frame.ConsumeNext()) {
    const uint32_t extension = frame.extension(*index);
    // Salvage replay: subtrees that left the crashed worker through a
    // steal claim are re-enumerated from their own descriptors, so skip
    // them here (no work unit consumed — the subtree is not re-executed).
    // `s.subgraph` is exactly this frame's prefix pre-Apply.
    if (t.lineage != nullptr && t.lineage->has_exclusions() &&
        t.lineage->Excluded(s.subgraph, extension, next_index)) {
      continue;
    }
    if (!t.ConsumeWorkUnit()) break;
    // Runtime backstop of the allocation discipline (DESIGN.md §9): once
    // the thread is past per-step warm-up, the whole expansion of this
    // extension — Apply, the recursive Process, Undo — runs under an
    // AllocGuard that counts (or aborts on) any heap allocation the static
    // lint failed to rule out.
    const AllocGuard guard(GuardModeFor(t));
    strategy_.Apply(graph_, extension, frame.row(*index), &s.subgraph);
    Process(t, s, next_index);
    strategy_.Undo(graph_, &s.subgraph);
  }
  frame.Deactivate();
}

FRACTAL_HOT void FractoidStepTask::LeafBatch(
    ThreadContext& t, CoreState& s, uint32_t next_index,
    std::span<const uint32_t> extensions, std::span<const EdgeId> rows) {
  switch (leaf_fold_) {
    case LeafFold::kCount: {
      // SinkVisit's accounting, n passing candidates at a time.
      uint64_t n = 0;
      if (leaf_size_filters_.empty()) {
        while (n < extensions.size() && t.ConsumeWorkUnit()) ++n;
      } else {
        n = CountSizeFilteredLeaves(t, s.subgraph, extensions.size(), rows);
      }
      t.stats.subgraphs_visited += n;
      if (is_final_) {
        (t.lineage != nullptr ? s.task_count : s.local_count) += n;
      }
      return;
    }
    case LeafFold::kCountByPattern:
      CountLeavesByPattern(t, s, extensions, rows);
      return;
    case LeafFold::kVisit:
      break;
  }
  const size_t width = rows.size() / extensions.size();
  for (size_t i = 0; i < extensions.size(); ++i) {
    if (!t.ConsumeWorkUnit()) return;
    // The per-extension guard of DrainFrame (DESIGN.md §9).
    const AllocGuard guard(GuardModeFor(t));
    strategy_.Apply(graph_, extensions[i], rows.subspan(i * width, width),
                    &s.subgraph);
    Process(t, s, next_index);
    strategy_.Undo(graph_, &s.subgraph);
  }
}

FRACTAL_HOT uint64_t FractoidStepTask::CountSizeFilteredLeaves(
    ThreadContext& t, const Subgraph& prefix, size_t num_candidates,
    std::span<const EdgeId> rows) {
  const size_t width = rows.size() / num_candidates;
  FRACTAL_DCHECK(width == prefix.NumVertices() && width < 64);
  // With word-ordered rows and a vertex-induced push, a candidate brings
  // exactly its row's non-kNoEdge entries as edges, so every candidate has
  // the same vertex count and one of width + 1 edge counts. Bit e of
  // `judged` says whether a leaf with edges_before + e edges has been put
  // to the filters yet, bit e of `verdicts` whether it passed them all.
  const uint32_t num_vertices = prefix.NumVertices() + 1;
  const uint32_t edges_before = prefix.NumEdges();
  uint64_t judged = 0;
  uint64_t verdicts = 0;
  uint64_t n = 0;
  for (size_t i = 0; i < num_candidates; ++i) {
    if (!t.ConsumeWorkUnit()) break;
    const EdgeId* row = rows.data() + i * width;
    uint32_t edges = 0;
    for (size_t q = 0; q < width; ++q) edges += row[q] != kNoEdge;
    if (((judged >> edges) & 1) == 0) {
      FRACTAL_HOT_ESCAPE(
          "user size filter: at most width+1 calls per leaf batch");
      bool pass = true;
      for (const SizeFilterFn filter : leaf_size_filters_) {
        pass = pass && filter(num_vertices, edges_before + edges);
      }
      judged |= uint64_t{1} << edges;
      verdicts |= uint64_t{pass} << edges;
    }
    n += (verdicts >> edges) & 1;
  }
  return n;
}

FRACTAL_HOT void FractoidStepTask::CountLeavesByPattern(
    ThreadContext& t, CoreState& s, std::span<const uint32_t> extensions,
    std::span<const EdgeId> rows) {
  AggregationStorageBase& storage =
      *(t.lineage != nullptr ? s.task_storages : s.storages)[leaf_slot_];
  const size_t width = rows.size() / extensions.size();
  FRACTAL_DCHECK(width == s.subgraph.NumVertices() && width <= 64);
  LeafGroups groups;
  const auto count_groups = [&] {
    const AllocGuard guard(GuardModeFor(t));
    for (const LeafGroups::Group& group : groups.groups()) {
      strategy_.Apply(graph_, extensions[group.first],
                      rows.subspan(group.first * width, width), &s.subgraph);
      storage.AccumulateCount(s.subgraph, *s.computation, group.count);
      strategy_.Undo(graph_, &s.subgraph);
    }
    groups.Clear();
  };
  for (uint32_t i = 0; i < extensions.size(); ++i) {
    if (!t.ConsumeWorkUnit()) break;
    const EdgeId* row = rows.data() + i * width;
    uint64_t mask = 0;
    for (size_t q = 0; q < width; ++q) {
      mask |= uint64_t{row[q] != kNoEdge} << q;
    }
    const Label label = graph_.VertexLabel(extensions[i]);
    if (groups.Add(mask, label, i)) continue;
    count_groups();
    groups.Add(mask, label, i);
  }
  count_groups();
}

void FractoidStepTask::SinkVisit(ThreadContext& t, CoreState& s) {
  ++t.stats.subgraphs_visited;
  if (!is_final_) return;
  // Under lineage tracking the count/collection land in the task scratch
  // and only become durable at CommitTask. The streaming sink still fires
  // immediately: it is documented at-least-once under salvage recovery.
  if (t.lineage != nullptr) {
    ++s.task_count;
  } else {
    ++s.local_count;
  }
  if (sink_ != nullptr) {
    FRACTAL_HOT_ESCAPE("user-supplied sink: application code may allocate");
    AllocGuard::Allow allow("subgraph sink callback");
    (*sink_)(s.subgraph);
  }
  if (config_.collect_subgraphs &&
      s.collected.size() + s.task_collected.size() <
          static_cast<size_t>(config_.max_collected_subgraphs)) {
    FRACTAL_HOT_ESCAPE("opt-in diagnostics: bounded subgraph collection");
    AllocGuard::Allow allow("collect_subgraphs diagnostics copy");
    auto& collected =
        t.lineage != nullptr ? s.task_collected : s.collected;
    collected.push_back(s.subgraph);
  }
}

void FractoidStepTask::Process(ThreadContext& t, CoreState& s,
                               uint32_t index) {
  if (index == plan_.end) {
    SinkVisit(t, s);
    return;
  }
  const Primitive& primitive = fractoid_.primitives()[index];
  switch (primitive.kind) {
    case Primitive::Kind::kExpand: {
      const uint32_t depth = s.subgraph.Depth();
      FRACTAL_TRACE_INSTANT("dfs/expand", depth);
      FRACTAL_DCHECK(depth < num_levels_);
      // Extensions and their edge rows are computed into arena leases; at
      // an interior level Refill's swap then hands the frame's previous
      // buffers back through the leases, so buffer capacity cycles through
      // the pool instead of being reallocated.
      ScratchArena::BufferLease scratch(s.computation->scratch_arena());
      ScratchArena::BufferLease rows(s.computation->scratch_arena());
      strategy_.ComputeExtensions(graph_, s.subgraph,
                                  s.computation->extension_context(),
                                  scratch.get(), rows.get());
      // Enumerator-state accounting (Table 2): the extension arrays, their
      // edge rows and the prefix are Fractal's entire per-level
      // intermediate state.
      s.state_bytes -= s.frame_bytes[depth];
      s.frame_bytes[depth] =
          scratch->size() * sizeof(uint32_t) +
          rows->size() * sizeof(EdgeId) +
          s.subgraph.NumVertices() * sizeof(VertexId) +
          s.subgraph.NumEdges() * sizeof(EdgeId);
      s.state_bytes += s.frame_bytes[depth];
      s.peak_state_bytes = std::max(s.peak_state_bytes, s.state_bytes);
      if (depth + 1 == num_levels_ || scratch->empty()) {
        // The leaf level, or nothing to drain: no frame, so no lock round
        // trips and no prefix copy, and nothing for a thief to claim. The
        // batch is recorded as Refill would have recorded it.
        obs::LocalHotMetrics().batch_sizes.Record(scratch->size());
        if (!scratch->empty()) {
          LeafBatch(t, s, index + 1, *scratch, *rows);
        }
        break;
      }
      SubgraphEnumerator& frame = *t.frames[depth];
      frame.Refill(s.subgraph, index + 1, std::move(*scratch.get()),
                   std::move(*rows.get()));
      DrainFrame(t, s, frame);
      break;
    }
    case Primitive::Kind::kLocalFilter: {
      bool pass;
      if (primitive.size_filter != nullptr) {
        // A plain function of two counts: nothing captured, so no Allow
        // scope, and the armed AllocGuard still sees it.
        FRACTAL_HOT_ESCAPE(
            "user size filter: a capture-free function of two counts");
        pass = primitive.size_filter(s.subgraph.NumVertices(),
                                     s.subgraph.NumEdges());
      } else {
        // User-supplied filter: application code may allocate; audited as
        // outside the system's allocation discipline.
        AllocGuard::Allow allow("user local-filter callback");
        pass = primitive.local_filter(s.subgraph, *s.computation);
      }
      if (pass) Process(t, s, index + 1);
      break;
    }
    case Primitive::Kind::kAggregationFilter: {
      const AggregationStorageBase* storage =
          completed_[primitive.source_primitive];
      FRACTAL_DCHECK(storage != nullptr);
      bool pass;
      {
        AllocGuard::Allow allow("user aggregation-filter callback");
        pass = primitive.aggregation_filter(s.subgraph, *s.computation,
                                            *storage);
      }
      if (pass) Process(t, s, index + 1);
      break;
    }
    case Primitive::Kind::kAggregate: {
      const int32_t slot = storage_slots_[index];
      if (slot >= 0) {
        // Guarded like the rest of the expansion: Accumulate audits its own
        // new-key insert, the quick-pattern cache its misses, and apps with
        // heap-owning values their value/reduce callbacks. Under lineage
        // tracking the update goes to the task scratch (durable only at
        // CommitTask).
        auto& storages =
            t.lineage != nullptr ? s.task_storages : s.storages;
        storages[slot]->Accumulate(s.subgraph, *s.computation);
      }
      // An aggregation ends the pipeline unless more primitives follow
      // (already-computed aggregations pass straight through).
      if (index + 1 < plan_.end) Process(t, s, index + 1);
      break;
    }
  }
}

FractoidStepTask::Output FractoidStepTask::MergeOutputs() {
  Output output;
  for (auto& s : states_) {
    output.subgraph_count += s->local_count;
    output.peak_state_bytes =
        std::max(output.peak_state_bytes, s->peak_state_bytes);
    for (Subgraph& subgraph : s->collected) {
      if (output.collected.size() <
          static_cast<size_t>(config_.max_collected_subgraphs)) {
        output.collected.push_back(std::move(subgraph));
      }
    }
  }

  // Merge thread-local aggregation storages (the reduction side of A).
  for (size_t slot = 0; slot < new_aggregates_.size(); ++slot) {
    std::shared_ptr<AggregationStorageBase> merged =
        std::move(states_[0]->storages[slot]);
    for (size_t i = 1; i < states_.size(); ++i) {
      merged->MergeFrom(*states_[i]->storages[slot]);
    }
    // Fold thread-scoped pattern-id slots into keyed entries while the
    // threads' Computations are alive; the result outlives them.
    merged->Seal();
    merged->ApplyPostFilter();
    output.merged.push_back(std::move(merged));
  }
  return output;
}

}  // namespace fractal
