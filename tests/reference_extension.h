// Reference (pre-kernel) extension strategies: the straightforward
// per-candidate-rescan implementations the set-algebra kernels in
// enumerate/extension.cc replaced, kept as the differential oracle of
// tests/property_test.cc. The sweep there asserts the kernel strategies
// produce bit-identical extension sequences, identical extension-test (EC)
// charges and identical edge rows against these.
//
// These deliberately avoid the hub adjacency bitmaps and the kernels: they
// test adjacency with Graph::EdgeBetween's binary search, as the seed
// implementation did, emit every edge row by one search per entry, and
// push by search, ignoring the row they are handed.
#ifndef FRACTAL_TESTS_REFERENCE_EXTENSION_H_
#define FRACTAL_TESTS_REFERENCE_EXTENSION_H_

#include "enumerate/extension.h"

namespace fractal {

/// Replaces `*rows` (when non-null) with strategy.SearchRow of every
/// candidate, in order: the searched rows an oracle emits.
void SearchedRows(const ExtensionStrategy& strategy, const Graph& graph,
                  const Subgraph& subgraph,
                  std::span<const uint32_t> candidates,
                  std::vector<EdgeId>* rows);

/// The word-ordered edge row of `v`: one EdgeBetween per word vertex,
/// kNoEdge where there is no edge.
void SearchWordRowByEdgeBetween(const Graph& graph,
                                std::span<const VertexId> word, VertexId v,
                                std::vector<EdgeId>* row);

/// Pre-kernel vertex-induced extension: per-position neighbor scan with a
/// FirstAttachment rescan and a canonicality rescan per candidate.
class ReferenceVertexInducedStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx, std::vector<uint32_t>* out,
                         std::vector<EdgeId>* rows) const override;
  void Apply(const Graph& graph, uint32_t extension,
             std::span<const EdgeId> row, Subgraph* subgraph) const override;
  void SearchRow(const Graph& graph, const Subgraph& subgraph,
                 uint32_t extension,
                 std::vector<EdgeId>* row) const override;

 private:
  void Scan(const Graph& graph, const Subgraph& subgraph,
            ExtensionContext& ctx, std::vector<uint32_t>* out) const;
};

/// Pre-kernel edge-induced extension: nested endpoint/incident scans with a
/// first-touch rescan per candidate.
class ReferenceEdgeInducedStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx, std::vector<uint32_t>* out,
                         std::vector<EdgeId>* rows) const override;
  void Apply(const Graph& graph, uint32_t extension,
             std::span<const EdgeId> row, Subgraph* subgraph) const override;
  void SearchRow(const Graph& graph, const Subgraph& subgraph,
                 uint32_t extension,
                 std::vector<EdgeId>* row) const override;
  uint32_t NumExtensionIds(const Graph& graph) const override {
    return graph.NumEdges();
  }

 private:
  void Scan(const Graph& graph, const Subgraph& subgraph,
            ExtensionContext& ctx, std::vector<uint32_t>* out) const;
};

/// Pre-kernel clique extension: per-candidate adjacency probes against every
/// non-pivot clique vertex.
class ReferenceKClistStrategy : public ExtensionStrategy {
 public:
  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx, std::vector<uint32_t>* out,
                         std::vector<EdgeId>* rows) const override;
  void Apply(const Graph& graph, uint32_t extension,
             std::span<const EdgeId> row, Subgraph* subgraph) const override;
  void SearchRow(const Graph& graph, const Subgraph& subgraph,
                 uint32_t extension,
                 std::vector<EdgeId>* row) const override;

 private:
  void Scan(const Graph& graph, const Subgraph& subgraph,
            ExtensionContext& ctx, std::vector<uint32_t>* out) const;
};

}  // namespace fractal

#endif  // FRACTAL_TESTS_REFERENCE_EXTENSION_H_
