// Tuned single-thread baselines for the COST analysis (paper §5.2.4,
// Fig. 18/20b: Gtries for motifs/cliques/queries, Grami for FSM, Neo4j's
// built-in triangle counting, KClist for optimized cliques, and Doulion
// for sampled triangles). These are tight-loop implementations: no fractoid
// machinery, no work stealing, no telemetry — the "efficient single-thread
// implementation" a parallel system must beat. The triangle, clique and
// query counters share no enumeration code with the system; the motif and
// FSM baselines drive the library's VertexInducedStrategy and
// EdgeInducedStrategy respectively, so they are not independent of them.
#ifndef FRACTAL_BASELINES_SINGLE_THREAD_H_
#define FRACTAL_BASELINES_SINGLE_THREAD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace fractal {
namespace baselines {

/// Neo4j-style triangle counting: forward-adjacency sorted intersection.
uint64_t TunedTriangleCount(const Graph& graph);

/// KClist [Danisch et al. 2018]: k-clique counting on the degeneracy-ordered
/// DAG with per-level candidate intersection.
uint64_t TunedCliqueCount(const Graph& graph, uint32_t k);

/// Gtries-style motif counting: canonical-extension DFS with quick-pattern
/// memoized canonicalization.
std::unordered_map<Pattern, uint64_t, PatternHash> TunedMotifCounts(
    const Graph& graph, uint32_t k);

/// Gtries-style subgraph query counting: symmetry-broken matching DFS with
/// its own matching order and candidate loop (the oracle for the
/// pattern-induced extension strategy).
uint64_t TunedQueryCount(const Graph& graph, const Pattern& query);

/// Grami-style FSM: level-wise pattern-growth DFS with MNI domains.
/// Returns frequent canonical patterns with exact supports.
std::unordered_map<Pattern, uint64_t, PatternHash> TunedFsm(
    const Graph& graph, uint32_t min_support, uint32_t max_edges);

/// Doulion [Tsourakakis et al. 2009]: triangle estimate by sparsifying each
/// edge with probability p and scaling the count by 1/p^3.
uint64_t DoulionTriangleEstimate(const Graph& graph, double p, uint64_t seed);

}  // namespace baselines
}  // namespace fractal

#endif  // FRACTAL_BASELINES_SINGLE_THREAD_H_
