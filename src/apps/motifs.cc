#include "apps/motifs.h"

#include <utility>

#include "core/computation.h"

namespace fractal {

Pattern CanonicalPatternKey(const Subgraph& subgraph, Computation& comp) {
  return comp.CanonicalPattern(subgraph).pattern;
}

Fractoid AggregateMotifs(const Fractoid& fractoid, const std::string& name,
                         MotifCountStorage::KeyFn key_fn) {
  return fractoid.Aggregate<Pattern, uint64_t, PatternHash>(
      name, std::move(key_fn),
      /*value_fn=*/[](const Subgraph&, Computation&) -> uint64_t { return 1; },
      /*reduce_fn=*/[](uint64_t& into, uint64_t&& from) { into += from; });
}

Fractoid MotifsFractoid(const FractalGraph& graph, uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  return AggregateMotifs(graph.VFractoid().Expand(k));
}

MotifsResult CountMotifs(const FractalGraph& graph, uint32_t k,
                         const ExecutionConfig& config) {
  MotifsResult result;
  result.execution = MotifsFractoid(graph, k).Execute(config);
  FRACTAL_CHECK(result.execution.status.ok()) << result.execution.status;
  const auto& storage =
      result.execution.Aggregation<Pattern, uint64_t, PatternHash>("motifs");
  for (const auto& [pattern, count] : storage.entries()) {
    result.counts.emplace(pattern, count);
    result.total += count;
  }
  return result;
}

}  // namespace fractal
