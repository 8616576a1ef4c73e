// Quickstart: count triangles and 4-cliques on a synthetic social network.
//
// The heart of the program mirrors the paper's 3-line cliques application
// (Listing 2):
//
//   auto cliques =
//       graph.VFractoid().Expand(1).FilterBySize(isClique).Explore(k - 1);
//   uint64_t count = cliques.CountSubgraphs();
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "apps/cliques.h"
#include "core/context.h"
#include "graph/generators.h"

int main() {
  using namespace fractal;

  // A scale-free graph standing in for a small social network.
  PowerLawParams params;
  params.num_vertices = 2000;
  params.edges_per_vertex = 8;
  params.seed = 2024;
  Graph input = GeneratePowerLaw(params);
  std::printf("input: %s\n", input.DebugString().c_str());

  // Configure the simulated cluster: 2 workers x 2 cores, hierarchical
  // work stealing enabled (the default).
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;

  FractalContext fctx(config);
  FractalGraph graph = fctx.FromGraph(std::move(input));

  for (uint32_t k = 3; k <= 5; ++k) {
    const uint64_t count = CountCliques(graph, k, config);
    std::printf("%u-cliques: %llu\n", k, (unsigned long long)count);
  }

  // The same computation through the optimized KClist enumerator
  // (paper Appendix B, Listing 7).
  std::printf("4-cliques via KClist enumerator: %llu\n",
              (unsigned long long)CountCliquesOptimized(graph, 4, config));
  return 0;
}
