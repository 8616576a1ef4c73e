#include "apps/motifs.h"

#include <utility>

#include "core/computation.h"

namespace fractal {

Fractoid AggregateMotifs(const Fractoid& fractoid, const std::string& name) {
  return fractoid.CountByPattern(name);
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
