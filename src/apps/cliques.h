// Clique listing & counting (paper §2.2, Listings 2 and 7): k-vertex
// complete subgraphs. Two variants:
//   * CliquesFractoid — the 3-line Listing 2 program: vertex-induced
//     expansion with a local filter requiring the newest vertex to connect
//     to every existing vertex. The filter reads only the vertex and edge
//     counts (Fractoid::FilterBySize), so the last level counts cliques off
//     the candidates' edge rows without pushing them;
//   * OptimizedCliquesFractoid — Listing 7's custom KClist enumerator
//     (Appendix B), which generates only clique-extending candidates.
// Triangles = k = 3 (Appendix C).
#ifndef FRACTAL_APPS_CLIQUES_H_
#define FRACTAL_APPS_CLIQUES_H_

#include <cstdint>

#include "core/context.h"

namespace fractal {

/// Listing 2: expand(1).filterBySize(clique check).explore(k-1).
Fractoid CliquesFractoid(const FractalGraph& graph, uint32_t k);

/// Listing 7: custom KClist subgraph enumerator, no filter needed.
Fractoid OptimizedCliquesFractoid(const FractalGraph& graph, uint32_t k);

uint64_t CountCliques(const FractalGraph& graph, uint32_t k,
                      const ExecutionConfig& config = {});

uint64_t CountCliquesOptimized(const FractalGraph& graph, uint32_t k,
                               const ExecutionConfig& config = {});

inline uint64_t CountTriangles(const FractalGraph& graph,
                               const ExecutionConfig& config = {}) {
  return CountCliques(graph, 3, config);
}

}  // namespace fractal

#endif  // FRACTAL_APPS_CLIQUES_H_
