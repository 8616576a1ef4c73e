#include "apps/cliques.h"

#include "core/computation.h"

namespace fractal {

Fractoid CliquesFractoid(const FractalGraph& graph, uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  // Listing 2's satisfiability criterion: the number of edges added by the
  // last expansion equals the number of vertices minus one, i.e. the newest
  // vertex is adjacent to every other vertex of the subgraph.
  LocalFilterFn clique_filter = [](const Subgraph& subgraph, Computation&) {
    return subgraph.NumEdges() ==
           subgraph.NumVertices() * (subgraph.NumVertices() - 1) / 2;
  };
  return graph.VFractoid().Expand(1).Filter(clique_filter).Explore(k - 1);
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
