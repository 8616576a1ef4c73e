#include "apps/motifs.h"

#include <utility>

#include "core/computation.h"

namespace fractal {

Fractoid AggregateMotifs(const Fractoid& fractoid, const std::string& name) {
  return fractoid.AggregateByPattern<uint64_t>(
      name, /*zero=*/0,
      /*add_fn=*/
      [](uint64_t& count, const Subgraph&, const CanonicalResult&,
         Computation&) { ++count; },
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
