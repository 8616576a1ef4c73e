#include "apps/estimation.h"

#include <cmath>

#include "apps/motifs.h"
#include "enumerate/sampling.h"

namespace fractal {
namespace {

Fractoid SampledVertexFractoid(const FractalGraph& graph, uint32_t k,
                               double keep_probability, uint64_t seed) {
  auto strategy = std::make_shared<SamplingStrategy>(
      std::make_shared<VertexInducedStrategy>(), keep_probability, seed);
  return graph.CustomFractoid(std::move(strategy)).Expand(k);
}

}  // namespace

EstimationResult EstimateMotifCounts(const FractalGraph& graph, uint32_t k,
                                     double keep_probability, uint64_t seed,
                                     const ExecutionConfig& config) {
  EstimationResult result;
  result.keep_probability = keep_probability;
  auto execution =
      AggregateMotifs(SampledVertexFractoid(graph, k, keep_probability, seed))
          .Execute(config);
  FRACTAL_CHECK(execution.status.ok()) << execution.status;
  const double scale = 1.0 / std::pow(keep_probability, k);
  const auto& storage =
      execution.Aggregation<Pattern, uint64_t, PatternHash>("motifs");
  for (const auto& [pattern, count] : storage.entries()) {
    result.sampled_subgraphs += count;
    result.estimated_counts[pattern] =
        static_cast<uint64_t>(count * scale + 0.5);
    result.estimated_total += result.estimated_counts[pattern];
  }
  return result;
}

uint64_t EstimateSubgraphCount(const FractalGraph& graph, uint32_t k,
                               double keep_probability, uint64_t seed,
                               const ExecutionConfig& config) {
  const uint64_t sampled =
      SampledVertexFractoid(graph, k, keep_probability, seed)
          .CountSubgraphs(config);
  return static_cast<uint64_t>(
      sampled / std::pow(keep_probability, k) + 0.5);
}

}  // namespace fractal
