// Computation: the per-thread execution context handed to every user
// function (the `comp` parameter of the paper's API, Fig. 4). Provides the
// (possibly reduced) input graph, memoized pattern canonicalization, and the
// extension-cost counters.
#ifndef FRACTAL_CORE_COMPUTATION_H_
#define FRACTAL_CORE_COMPUTATION_H_

#include <cstdint>
#include <optional>

#include "enumerate/extension.h"
#include "enumerate/subgraph.h"
#include "graph/graph.h"
#include "pattern/canonical.h"

namespace fractal {

/// Not thread-safe; one instance per execution thread.
class Computation {
 public:
  explicit Computation(const Graph* graph) : graph_(graph) {}

  Computation(const Computation&) = delete;
  Computation& operator=(const Computation&) = delete;

  const Graph& graph() const { return *graph_; }

  /// Canonical pattern (and position permutation) of `subgraph`, memoized
  /// by quick pattern — the hot path of motif counting and FSM. The result's
  /// id indexes this thread's pattern ids (valid for this Computation's
  /// lifetime: one step attempt). Subgraphs whose quick code fits are
  /// looked up by code; the rest build their quick Pattern.
  FRACTAL_HOT const CanonicalResult& CanonicalPattern(
      const Subgraph& subgraph) {
    if (const std::optional<QuickCode> code =
            subgraph.FittingQuickCode(*graph_)) {
      return canonical_cache_.Canonicalize(*code,
                                           *graph_->UniformEdgeLabel());
    }
    return canonical_cache_.Canonicalize(subgraph.QuickPattern(*graph_));
  }

  CanonicalPatternCache& canonical_cache() { return canonical_cache_; }

  ExtensionContext& extension_context() { return extension_context_; }

  /// Per-thread scratch pool of the enumeration data plane (DESIGN.md §8).
  ScratchArena& scratch_arena() { return extension_context_.arena; }

  uint32_t worker_id() const { return worker_id_; }
  uint32_t core_id() const { return core_id_; }
  void SetIds(uint32_t worker_id, uint32_t core_id) {
    worker_id_ = worker_id;
    core_id_ = core_id;
  }

 private:
  const Graph* graph_;
  CanonicalPatternCache canonical_cache_;
  ExtensionContext extension_context_;
  uint32_t worker_id_ = 0;
  uint32_t core_id_ = 0;
};

}  // namespace fractal

#endif  // FRACTAL_CORE_COMPUTATION_H_
