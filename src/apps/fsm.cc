#include "apps/fsm.h"

#include "core/computation.h"
#include "util/alloc_guard.h"
#include "util/timer.h"

namespace fractal {

void DomainSupport::AddEmbedding(const Subgraph& subgraph,
                                 const CanonicalResult& canonical) {
  const uint32_t k = subgraph.NumVertices();
  if (domains_.size() < k) domains_.resize(k);
  // Orbit closure: automorphic positions have identical domains, so each
  // vertex is recorded once under its orbit representative (the MNI support
  // is then the min over representatives).
  for (uint32_t position = 0; position < k; ++position) {
    domains_[canonical.orbit[canonical.permutation[position]]].insert(
        subgraph.VertexAt(position));
  }
}

void DomainSupport::Merge(DomainSupport&& other) {
  if (domains_.size() < other.domains_.size()) {
    domains_.resize(other.domains_.size());
  }
  for (size_t i = 0; i < other.domains_.size(); ++i) {
    if (domains_[i].empty()) {
      domains_[i] = std::move(other.domains_[i]);
    } else {
      domains_[i].insert(other.domains_[i].begin(), other.domains_[i].end());
    }
  }
  threshold_ = std::max(threshold_, other.threshold_);
}

uint64_t DomainSupport::Support() const {
  if (domains_.empty()) return 0;
  // Only orbit-representative slots are populated (see AddEmbedding); the
  // other positions share a representative's domain, so skip their empty
  // slots.
  uint64_t support = UINT64_MAX;
  bool any = false;
  for (const auto& domain : domains_) {
    if (domain.empty()) continue;
    support = std::min<uint64_t>(support, domain.size());
    any = true;
  }
  return any ? support : 0;
}

uint64_t DomainSupport::ApproxBytes() const {
  uint64_t bytes = sizeof(DomainSupport);
  for (const auto& domain : domains_) {
    bytes += domain.size() * (sizeof(VertexId) + sizeof(void*));
  }
  return bytes;
}

namespace {

/// Appends the FSM aggregation (pattern -> DomainSupport with the
/// has-enough-support post-filter) to a fractoid.
Fractoid WithSupportAggregation(const Fractoid& fractoid,
                                uint32_t min_support) {
  return fractoid.AggregateByPattern<DomainSupport>(
      "support",
      // DomainSupport owns hash sets by design: building one per embedding
      // and folding it in allocate, so both callbacks are audited escapes
      // from the step's AllocGuard (the canonicalization stays guarded).
      /*value_fn=*/
      [min_support](const Subgraph& subgraph, const CanonicalResult& canonical,
                    Computation&) {
        AllocGuard::Allow allow("FSM per-embedding DomainSupport");
        DomainSupport support(min_support);
        support.AddEmbedding(subgraph, canonical);
        return support;
      },
      /*reduce_fn=*/
      [](DomainSupport& into, DomainSupport&& from) {
        AllocGuard::Allow allow("FSM DomainSupport merge");
        into.Merge(std::move(from));
      },
      /*post_filter=*/
      [](const Pattern&, const DomainSupport& support) {
        return support.HasEnoughSupport();
      });
}

}  // namespace

FsmResult RunFsm(const FractalGraph& graph, uint32_t min_support,
                 uint32_t max_edges, const ExecutionConfig& config) {
  FsmOptions options;
  options.min_support = min_support;
  options.max_edges = max_edges;
  return RunFsmWithOptions(graph, options, config);
}

FsmResult RunFsmWithOptions(const FractalGraph& graph,
                            const FsmOptions& options,
                            const ExecutionConfig& config) {
  const uint32_t min_support = options.min_support;
  const uint32_t max_edges = options.max_edges;
  FRACTAL_CHECK(min_support >= 1);
  WallTimer timer;
  FsmResult result;
  result.mined_graph_edges = graph.graph().NumEdges();

  // Bootstrap (Listing 3 lines 1-9): frequent single edges.
  Fractoid fsm =
      WithSupportAggregation(graph.EFractoid().Expand(1), min_support);
  ExecutionResult execution = fsm.Execute(config);
  FRACTAL_CHECK(execution.status.ok()) << execution.status;
  auto harvest = [&result, &execution]() -> size_t {
    const auto& storage =
        execution.Aggregation<Pattern, DomainSupport, PatternHash>("support");
    for (const auto& [pattern, support] : storage.entries()) {
      result.frequent.emplace_back(pattern, support.Support());
    }
    return storage.NumEntries();
  };
  auto account = [&result, &execution]() {
    for (const auto& step : execution.telemetry.steps) {
      result.total_work_units += step.TotalWorkUnits();
      result.step_telemetry.push_back(step);
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, execution.peak_state_bytes);
  };
  size_t new_frequent = harvest();
  account();
  result.iterations = 1;

  if (options.transparent_graph_reduction && new_frequent > 0) {
    // Paper §4.3: keep only edges that participated in a frequent
    // single-edge pattern, then restart the pipeline on the reduced graph
    // (1-edge supports are recomputed there — they are identical by
    // anti-monotonicity, see FsmOptions).
    const auto& frequent_edges =
        execution.Aggregation<Pattern, DomainSupport, PatternHash>("support");
    const FractalGraph reduced =
        graph.EFilter([&frequent_edges](const Graph& g, EdgeId e) {
          Pattern single;
          const EdgeEndpoints& ends = g.Endpoints(e);
          single.AddVertex(g.VertexLabel(ends.src));
          single.AddVertex(g.VertexLabel(ends.dst));
          single.AddEdge(0, 1, g.GetEdgeLabel(e));
          return frequent_edges.Contains(CanonicalForm(single).pattern);
        });
    result.mined_graph_edges = reduced.graph().NumEdges();
    fsm = WithSupportAggregation(reduced.EFractoid().Expand(1), min_support);
    execution = fsm.Execute(config);  // cheap: reduced bootstrap
    FRACTAL_CHECK(execution.status.ok()) << execution.status;
    account();
  }

  // Iterate (Listing 3 lines 13-26): filter by the previous frequent set,
  // grow by one edge, re-aggregate.
  while (new_frequent > 0 &&
         (max_edges == 0 || result.iterations < max_edges)) {
    fsm = fsm.FilterByAggregation<Pattern, DomainSupport, PatternHash>(
        "support",
        [](const Subgraph& subgraph, Computation& comp,
           const AggregationStorage<Pattern, DomainSupport, PatternHash>&
               frequent_patterns) {
          return frequent_patterns.Contains(
              comp.CanonicalPattern(subgraph).pattern);
        });
    fsm = WithSupportAggregation(fsm.Expand(1), min_support);
    execution = fsm.Execute(config);
    FRACTAL_CHECK(execution.status.ok()) << execution.status;
    new_frequent = harvest();
    account();
    ++result.iterations;
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fractal
