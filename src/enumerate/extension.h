// Extension strategies: the E primitive of the Fractal computation model
// (paper §3, Fig. 1). A strategy computes, for a given subgraph, the set of
// extension candidates (encoded as uint32 ids — vertex ids or edge ids
// depending on the strategy) and knows how to apply/undo a candidate on a
// subgraph. Strategies are immutable and shared across threads; all mutable
// state lives in the subgraph and the per-thread ExtensionContext.
//
// Duplicate-freedom:
//   * vertex- and edge-induced modes use Arabesque-style canonical subgraph
//     checking: each connected (vertex|edge) set is produced by exactly one
//     addition order (the word must start at its minimum element, and each
//     appended element must exceed every element that follows its first
//     attachment point in the word);
//   * pattern-induced mode uses Grochow–Kellis symmetry breaking on the
//     reference pattern's automorphisms.
#ifndef FRACTAL_ENUMERATE_EXTENSION_H_
#define FRACTAL_ENUMERATE_EXTENSION_H_

#include <span>
#include <vector>

#include "enumerate/scratch_arena.h"
#include "enumerate/subgraph.h"
#include "graph/graph.h"
#include "pattern/automorphism.h"
#include "pattern/pattern.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Per-thread counters and scratch space charged/used by extension
/// computation. `extension_tests` is the paper's EC (extension cost) metric
/// (§4.3): one unit per candidate test performed while computing extension
/// sets. `arena` feeds the set-algebra kernels' intermediate buffers and the
/// DFS expansion buffers (one context per execution thread, so the arena is
/// single-owner; see scratch_arena.h for the ownership rules).
struct ExtensionContext {
  uint64_t extension_tests = 0;
  ScratchArena arena;
};

/// Edge-row entry for a word position the candidate has no edge to.
inline constexpr EdgeId kNoEdge = kInvalidEdge;

/// Strategy interface (one implementation per fractoid type).
///
/// Edge rows (DESIGN.md §8): next to each candidate, ComputeExtensions can
/// emit the incident edge ids its push needs, so Apply pushes without
/// searching adjacency. Rows are row-major in `rows`, one row of equal
/// width per candidate, in candidate order: one entry per word position
/// (kNoEdge where the candidate is not adjacent) for the vertex-word
/// strategies, one per required neighbor for the pattern-induced strategy,
/// none for the edge-induced strategy and at the root.
class ExtensionStrategy {
 public:
  virtual ~ExtensionStrategy() = default;

  /// Replaces `out` with the extension candidates of `subgraph` and, when
  /// `rows` is non-null, `*rows` with their edge rows. With an empty
  /// subgraph this yields the root extensions: all active vertices
  /// (vertex/pattern modes) or all edges (edge mode). Rows are not charged
  /// as extension tests. Hot-path root: called once per DFS node
  /// (DESIGN.md §9).
  FRACTAL_HOT virtual void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const = 0;

  /// Pushes candidate `extension` onto the subgraph, taking its incident
  /// edges from `row` (as ComputeExtensions or SearchRow emitted it for
  /// this subgraph). Hot-path root.
  FRACTAL_HOT virtual void Apply(const Graph& graph, uint32_t extension,
                                 std::span<const EdgeId> row,
                                 Subgraph* subgraph) const = 0;

  /// Replaces `*row` with the edge row of `extension` on `subgraph`, found
  /// by searching adjacency: for work that arrives without its row.
  FRACTAL_HOT virtual void SearchRow(
      const Graph& graph, const Subgraph& subgraph, uint32_t extension,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const = 0;

  /// Apply with the row rebuilt by SearchRow into an `arena` lease: the
  /// push for stolen, codec-shipped and salvage-replayed work, whose
  /// descriptors carry no rows.
  FRACTAL_HOT void ApplyBySearch(const Graph& graph, uint32_t extension,
                                 Subgraph* subgraph,
                                 ScratchArena& arena) const {
    ScratchArena::BufferLease row(arena);
    SearchRow(graph, *subgraph, extension, row.get());
    Apply(graph, extension, *row, subgraph);
  }

  /// Undoes the most recent Apply. Hot-path root.
  FRACTAL_HOT virtual void Undo(const Graph& /*graph*/,
                                Subgraph* subgraph) const {
    subgraph->Pop();
  }

  /// Maximum subgraph depth this strategy can extend to, or 0 for unbounded
  /// (pattern-induced stops at the pattern size).
  virtual uint32_t MaxDepth() const { return 0; }

  /// Bound on extension ids: vertex ids, or edge ids for edge-induced
  /// extension.
  virtual uint32_t NumExtensionIds(const Graph& graph) const {
    return graph.NumVertices();
  }

  /// Whether Apply pushes one vertex with a word-ordered edge row (entry q
  /// joins word position q, kNoEdge where there is no edge) and the subgraph
  /// is vertex-induced: then the row and the vertex's label determine the
  /// pushed subgraph's quick pattern up to edge labels (DESIGN.md §8 "Leaf
  /// batches").
  virtual bool WordOrderedRows() const { return false; }
};

/// Vertex-induced extension with canonical subgraph checking. Used by
/// motifs, cliques, triangles (Listings 1-2).
class VertexInducedStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         std::span<const EdgeId> row,
                         Subgraph* subgraph) const override;
  FRACTAL_HOT void SearchRow(
      const Graph& graph, const Subgraph& subgraph, uint32_t extension,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const override;
  bool WordOrderedRows() const override { return true; }
};

/// Edge-induced extension with canonical subgraph checking. Used by FSM and
/// keyword search (Listings 3-4).
class EdgeInducedStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         std::span<const EdgeId> row,
                         Subgraph* subgraph) const override;
  FRACTAL_HOT void SearchRow(
      const Graph& graph, const Subgraph& subgraph, uint32_t extension,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const override;
  uint32_t NumExtensionIds(const Graph& graph) const override {
    return graph.NumEdges();
  }
};

/// Whether a pattern match requires the absence of non-pattern edges.
enum class MatchSemantics {
  /// Standard subgraph querying (Listing 5): the found subgraph consists of
  /// the matched vertices plus the images of the pattern's edges; extra
  /// graph edges between matched vertices are allowed.
  kSubgraph,
  /// Induced matching: matched vertices must have edges exactly where the
  /// pattern does (motif-instance retrieval).
  kInduced,
};

/// Pattern-induced extension guided by a reference pattern with symmetry
/// breaking. Used by subgraph querying (Listing 5).
class PatternInducedStrategy : public ExtensionStrategy {
 public:
  explicit PatternInducedStrategy(
      Pattern pattern, MatchSemantics semantics = MatchSemantics::kSubgraph);

  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         std::span<const EdgeId> row,
                         Subgraph* subgraph) const override;
  FRACTAL_HOT void SearchRow(
      const Graph& graph, const Subgraph& subgraph, uint32_t extension,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const override;
  uint32_t MaxDepth() const override { return pattern_.NumVertices(); }

  const Pattern& pattern() const { return pattern_; }
  MatchSemantics semantics() const { return semantics_; }

  /// Matching order: plan_order_[k] = original pattern position matched at
  /// step k. Exposed for tests.
  const std::vector<uint32_t>& plan_order() const { return plan_order_; }
  const std::vector<SymmetryCondition>& plan_conditions() const {
    return plan_conditions_;
  }

 private:
  Pattern pattern_;                    // original position numbering
  MatchSemantics semantics_;
  std::vector<uint32_t> plan_order_;   // step -> original position
  std::vector<uint32_t> plan_index_;   // original position -> step
  // Conditions remapped to plan steps: match[smaller] < match[larger].
  std::vector<SymmetryCondition> plan_conditions_;
  // For each step k >= 1: plan steps j < k that must be graph-adjacent to
  // the vertex matched at k, with the required edge label.
  struct RequiredNeighbor {
    uint32_t step;
    Label edge_label;
  };
  std::vector<std::vector<RequiredNeighbor>> required_neighbors_;
  // required_steps_[k]: bit j per required neighbor step j of step k, the
  // word positions a step-k push's row joins (Subgraph's `joined`).
  std::vector<uint64_t> required_steps_;
  // For each step k >= 1 under induced semantics (empty otherwise): the
  // plan steps j < k the pattern leaves unlinked to k, whose neighbors the
  // vertex matched at k must avoid.
  std::vector<std::vector<uint32_t>> induced_exclusions_;
  Label FirstLabel() const { return pattern_.VertexLabel(plan_order_[0]); }
  /// Replaces `*rows` with the edge rows of the candidates in `out` (one
  /// entry per required neighbor of `step`); with `check_labels`, then
  /// drops the candidates, and their rows, whose edges miss a required
  /// label.
  FRACTAL_HOT void EmitRows(const Graph& graph,
                            std::span<const VertexId> matched, uint32_t step,
                            bool check_labels,
                            FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                            FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const;
};

/// Optimized clique extension in the spirit of KClist (paper Appendix B,
/// Listing 6-7): candidates are computed by ordered sorted-adjacency
/// intersection (u must exceed the last clique vertex and be adjacent to all
/// clique vertices), avoiding the generic canonical-check machinery.
class KClistStrategy : public ExtensionStrategy {
 public:
  FRACTAL_HOT void ComputeExtensions(
      const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
      FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const override;
  FRACTAL_HOT void Apply(const Graph& graph, uint32_t extension,
                         std::span<const EdgeId> row,
                         Subgraph* subgraph) const override;
  FRACTAL_HOT void SearchRow(
      const Graph& graph, const Subgraph& subgraph, uint32_t extension,
      FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const override;
  bool WordOrderedRows() const override { return true; }
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_EXTENSION_H_
