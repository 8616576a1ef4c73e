#include "apps/fsm.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/computation.h"
#include "util/alloc_guard.h"
#include "util/timer.h"

namespace fractal {

namespace {

/// Smallest run buffer, in ids.
constexpr uint32_t kMinRunIds = 8;

uint64_t BitmapWords(uint32_t num_vertices) {
  return (uint64_t{num_vertices} + 63) / 64;
}

}  // namespace

FRACTAL_HOT void DomainSupport::AddEmbedding(
    const Subgraph& subgraph, const CanonicalResult& canonical) {
  const uint32_t k = subgraph.NumVertices();
  if (domains_.size() < k) SizeDomains(k);
  // Orbit closure: automorphic positions have identical domains, so each
  // vertex is recorded once under its orbit representative (the MNI support
  // is then the min over representatives).
  for (uint32_t position = 0; position < k; ++position) {
    domains_[canonical.orbit[canonical.permutation[position]]].AddId(
        subgraph.VertexAt(position), num_vertices_);
  }
}

void DomainSupport::SizeDomains(uint32_t num_positions) {
  FRACTAL_HOT_ESCAPE("first embedding of a pattern: one domain per position");
  AllocGuard::Allow allow("MNI domain growth");
  domains_.resize(num_positions);
}

void DomainSupport::VertexSet::GrowRun(uint32_t num_vertices) {
  FRACTAL_HOT_ESCAPE("run buffer full: amortized over the ids it holds");
  AllocGuard::Allow allow("MNI domain growth");
  CompactRun();
  MaybePromote(num_vertices);
  if (promoted()) return;
  if (run_.empty() || uint64_t{length_} * 2 > run_.size()) {
    run_.resize(std::max<size_t>(kMinRunIds, 2 * run_.size()));
  }
}

void DomainSupport::VertexSet::CompactRun() {
  if (sorted_ == length_) return;
  std::sort(run_.begin(), run_.begin() + length_);
  length_ = static_cast<uint32_t>(
      std::unique(run_.begin(), run_.begin() + length_) - run_.begin());
  sorted_ = length_;
}

void DomainSupport::VertexSet::MaybePromote(uint32_t num_vertices) {
  const uint64_t words = BitmapWords(num_vertices);
  if (uint64_t{length_} * sizeof(VertexId) < words * sizeof(uint64_t)) {
    return;
  }
  bits_.assign(words, 0);
  for (uint32_t i = 0; i < length_; ++i) SetVertexBit(run_[i]);
  std::vector<VertexId>().swap(run_);
  length_ = 0;
  sorted_ = 0;
}

void DomainSupport::VertexSet::Merge(VertexSet&& other,
                                     uint32_t num_vertices) {
  if (other.empty()) return;
  if (empty() || (other.promoted() && !promoted())) std::swap(*this, other);
  if (promoted() && other.promoted()) {
    count_ = 0;
    for (size_t w = 0; w < bits_.size(); ++w) {
      bits_[w] |= other.bits_[w];
      count_ += static_cast<uint64_t>(std::popcount(bits_[w]));
    }
  } else {
    // Appended like embeddings: compaction and promotion stay amortized
    // when many small task storages merge into one large set.
    for (uint32_t i = 0; i < other.length_; ++i) {
      AddId(other.run_[i], num_vertices);
    }
  }
  other = VertexSet();
}

uint64_t DomainSupport::VertexSet::Size() const {
  if (promoted()) return count_;
  if (sorted_ == length_) return length_;
  // An uncompacted tail: count its distinct ids missing from the prefix.
  std::vector<VertexId> tail(run_.begin() + sorted_, run_.begin() + length_);
  std::sort(tail.begin(), tail.end());
  tail.erase(std::unique(tail.begin(), tail.end()), tail.end());
  uint64_t size = sorted_;
  for (const VertexId v : tail) {
    size += !std::binary_search(run_.begin(), run_.begin() + sorted_, v);
  }
  return size;
}

void DomainSupport::Merge(DomainSupport&& other) {
  FRACTAL_CHECK_EQ(num_vertices_, other.num_vertices_)
      << "merging domains of different graphs";
  if (domains_.size() < other.domains_.size()) {
    domains_.resize(other.domains_.size());
  }
  for (size_t i = 0; i < other.domains_.size(); ++i) {
    domains_[i].Merge(std::move(other.domains_[i]), num_vertices_);
  }
  threshold_ = std::max(threshold_, other.threshold_);
}

uint64_t DomainSupport::Support() const {
  // Only orbit-representative domains are filled (see AddEmbedding); the
  // other positions share a representative's domain, so skip them.
  uint64_t support = UINT64_MAX;
  bool any = false;
  for (const VertexSet& domain : domains_) {
    if (domain.empty()) continue;
    support = std::min(support, domain.Size());
    any = true;
  }
  return any ? support : 0;
}

uint64_t DomainSupport::ApproxBytes() const {
  uint64_t bytes = sizeof(DomainSupport) +
                   domains_.capacity() * sizeof(VertexSet);
  for (const VertexSet& domain : domains_) bytes += domain.HeapBytes();
  return bytes;
}

namespace {

/// Appends the FSM aggregation (pattern -> DomainSupport with the
/// has-enough-support post-filter) to a fractoid. Each embedding is folded
/// into its pattern's domains in place.
Fractoid WithSupportAggregation(const Fractoid& fractoid,
                                uint32_t min_support) {
  return fractoid.AggregateByPattern<DomainSupport>(
      "support", DomainSupport(min_support, fractoid.graph()->NumVertices()),
      /*add_fn=*/
      [](DomainSupport& support, const Subgraph& subgraph,
         const CanonicalResult& canonical, Computation&) {
        support.AddEmbedding(subgraph, canonical);
      },
      /*reduce_fn=*/
      [](DomainSupport& into, DomainSupport&& from) {
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
