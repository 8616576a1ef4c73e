#include "apps/cliques.h"

namespace fractal {
namespace {

// Listing 2's satisfiability criterion: the number of edges added by the
// last expansion equals the number of vertices minus one, i.e. the newest
// vertex is adjacent to every other vertex of the subgraph. It reads only
// the two counts, so it is a size filter.
bool IsCliqueSize(uint32_t num_vertices, uint32_t num_edges) {
  return num_edges == num_vertices * (num_vertices - 1) / 2;
}

}  // namespace

Fractoid CliquesFractoid(const FractalGraph& graph, uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  return graph.VFractoid().Expand(1).FilterBySize(&IsCliqueSize).Explore(
      k - 1);
}

Fractoid OptimizedCliquesFractoid(const FractalGraph& graph, uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  return graph.CustomFractoid(std::make_shared<KClistStrategy>()).Expand(k);
}

uint64_t CountCliques(const FractalGraph& graph, uint32_t k,
                      const ExecutionConfig& config) {
  return CliquesFractoid(graph, k).CountSubgraphs(config);
}

uint64_t CountCliquesOptimized(const FractalGraph& graph, uint32_t k,
                               const ExecutionConfig& config) {
  return OptimizedCliquesFractoid(graph, k).CountSubgraphs(config);
}

}  // namespace fractal
