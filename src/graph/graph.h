// Labeled undirected graph stored in CSR (compressed sparse row) form.
// This is the input-graph substrate of the Fractal reproduction (paper §2.1,
// Definition 1): vertices and edges carry a primary integer label, and may
// additionally carry *keyword sets* (the f_L power-set labeling used by the
// keyword-search kernel).
//
// Identifiers:
//   VertexId in [0, NumVertices)
//   EdgeId   in [0, NumEdges); each undirected edge is stored once with
//            canonical endpoints (src < dst) and appears in both endpoints'
//            adjacency lists.
// Adjacency lists are sorted by neighbor id, enabling O(log d) adjacency
// tests and linear-time sorted intersections (used by the KClist enumerator).
#ifndef FRACTAL_GRAPH_GRAPH_H_
#define FRACTAL_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/hot_annotations.h"

namespace fractal {

using VertexId = uint32_t;
using EdgeId = uint32_t;
using Label = uint32_t;

inline constexpr VertexId kInvalidVertex = UINT32_MAX;
inline constexpr EdgeId kInvalidEdge = UINT32_MAX;

/// One undirected edge; endpoints are canonicalized so that src < dst.
struct EdgeEndpoints {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;

  /// Given one endpoint, returns the other.
  VertexId Other(VertexId v) const {
    FRACTAL_DCHECK(v == src || v == dst);
    return v == src ? dst : src;
  }

  friend bool operator==(const EdgeEndpoints& a,
                         const EdgeEndpoints& b) = default;
};

/// Immutable labeled undirected graph. Construct through GraphBuilder.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertex_labels_.size());
  }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  /// Number of distinct primary labels across vertices and edges.
  uint32_t NumLabels() const { return num_labels_; }

  /// 2|E| / (|V| (|V|-1)), the undirected density reported in Table 1.
  double Density() const;

  FRACTAL_HOT uint32_t Degree(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return adj_offsets_[v + 1] - adj_offsets_[v];
  }

  /// Neighbors of v, sorted ascending by vertex id.
  FRACTAL_HOT std::span<const VertexId> Neighbors(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return {adj_neighbors_.data() + adj_offsets_[v],
            adj_neighbors_.data() + adj_offsets_[v + 1]};
  }

  /// Edge ids parallel to Neighbors(v): IncidentEdges(v)[i] is the id of the
  /// edge (v, Neighbors(v)[i]).
  FRACTAL_HOT std::span<const EdgeId> IncidentEdges(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return {adj_edge_ids_.data() + adj_offsets_[v],
            adj_edge_ids_.data() + adj_offsets_[v + 1]};
  }

  /// Adjacency test: O(1) against a hub (a vertex whose degree crosses the
  /// bitmap threshold, see HubDegreeThreshold), O(log min(deg)) otherwise.
  FRACTAL_HOT bool IsAdjacent(VertexId u, VertexId v) const {
    if (const uint64_t* row = HubRow(u)) {
      return (row[v >> 6] >> (v & 63)) & 1;
    }
    if (const uint64_t* row = HubRow(v)) {
      return (row[u >> 6] >> (u & 63)) & 1;
    }
    return EdgeBetween(u, v).has_value();
  }

  /// Adjacency bitmap of v (one bit per vertex id, |V| bits rounded up to
  /// whole uint64 words), or nullptr when v is not a hub. Built at Build()
  /// time for every vertex with Degree(v) >= HubDegreeThreshold(); lets the
  /// extension kernels filter candidate runs against a high-degree word
  /// vertex with one load per candidate.
  FRACTAL_HOT const uint64_t* HubRow(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    if (hub_slot_.empty()) return nullptr;
    const uint32_t slot = hub_slot_[v];
    if (slot == UINT32_MAX) return nullptr;
    return hub_bits_.data() + static_cast<size_t>(slot) * hub_words_;
  }

  /// Degree at or above which a vertex gets an adjacency bitmap:
  /// max(64, |V|/64), so a hub's bitmap (|V|/8 bytes) never exceeds ~2x its
  /// adjacency-list footprint (4 bytes per neighbor).
  uint32_t HubDegreeThreshold() const { return hub_degree_threshold_; }
  uint32_t NumHubs() const { return num_hubs_; }

  /// Edge id of (u, v) if it exists. O(log min(deg)).
  FRACTAL_HOT std::optional<EdgeId> EdgeBetween(VertexId u, VertexId v) const;

  FRACTAL_HOT const EdgeEndpoints& Endpoints(EdgeId e) const {
    FRACTAL_DCHECK(e < NumEdges());
    return edges_[e];
  }

  FRACTAL_HOT Label VertexLabel(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return vertex_labels_[v];
  }
  FRACTAL_HOT Label GetEdgeLabel(EdgeId e) const {
    FRACTAL_DCHECK(e < NumEdges());
    return edge_labels_[e];
  }

  /// The label every edge carries, or nullopt when the graph has no edges
  /// or more than one edge label. Recorded at Build() time, so a matcher can
  /// settle edge-label constraints once per call on the (common) graphs
  /// with a single edge label instead of once per candidate.
  FRACTAL_HOT std::optional<Label> UniformEdgeLabel() const {
    return uniform_edge_label_;
  }

  /// Whether keyword sets were attached (Wikidata-style attributed graph).
  bool HasKeywords() const { return has_keywords_; }

  /// Keyword ids attached to a vertex / edge, sorted ascending. Empty when
  /// the graph carries no keywords.
  std::span<const uint32_t> VertexKeywords(VertexId v) const;
  std::span<const uint32_t> EdgeKeywords(EdgeId e) const;

  /// Number of distinct keyword ids in use (0 when HasKeywords() is false).
  uint32_t KeywordVocabularySize() const { return keyword_vocabulary_size_; }

  /// True unless the vertex was masked out by graph reduction
  /// (see graph_reduce.h). Masked vertices keep their id and label but have
  /// empty adjacency and are skipped as enumeration roots.
  FRACTAL_HOT bool IsVertexActive(VertexId v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return vertex_active_.empty() || vertex_active_[v] != 0;
  }

  /// Cached at Build() time (it sits on the root-partitioning path of every
  /// step attempt).
  uint32_t NumActiveVertices() const { return num_active_vertices_; }

  /// Sum of degrees = 2 |E|.
  uint64_t AdjacencySize() const { return adj_neighbors_.size(); }

  std::string DebugString() const;

 private:
  friend class GraphBuilder;

  std::vector<uint32_t> adj_offsets_;      // size NumVertices()+1
  std::vector<VertexId> adj_neighbors_;    // size 2|E|, sorted per vertex
  std::vector<EdgeId> adj_edge_ids_;       // parallel to adj_neighbors_
  std::vector<EdgeEndpoints> edges_;       // size |E|
  std::vector<Label> vertex_labels_;       // size |V|
  std::vector<Label> edge_labels_;         // size |E|
  std::vector<uint8_t> vertex_active_;     // empty == all active
  std::optional<Label> uniform_edge_label_;
  uint32_t num_labels_ = 0;
  uint32_t num_active_vertices_ = 0;

  // Degree-thresholded adjacency bitmaps: hub_slot_[v] indexes the hub's
  // row in hub_bits_ (UINT32_MAX for non-hubs); each row is hub_words_
  // uint64 words covering all vertex ids.
  std::vector<uint32_t> hub_slot_;  // size |V| when any hub exists
  std::vector<uint64_t> hub_bits_;  // num_hubs_ * hub_words_
  size_t hub_words_ = 0;
  uint32_t hub_degree_threshold_ = 0;
  uint32_t num_hubs_ = 0;

  bool has_keywords_ = false;
  uint32_t keyword_vocabulary_size_ = 0;
  // CSR-packed keyword sets (most vertices/edges have few keywords).
  std::vector<uint32_t> vertex_keyword_offsets_;  // size |V|+1 when present
  std::vector<uint32_t> vertex_keyword_data_;
  std::vector<uint32_t> edge_keyword_offsets_;  // size |E|+1 when present
  std::vector<uint32_t> edge_keyword_data_;
};

/// Incremental builder for Graph. Usage:
///   GraphBuilder b;
///   VertexId v0 = b.AddVertex(/*label=*/0);
///   ...
///   b.AddEdge(v0, v1, /*label=*/0);
///   Graph g = std::move(b).Build();
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds a vertex and returns its id (ids are assigned densely from 0).
  VertexId AddVertex(Label label);

  /// Adds an undirected edge. Self-loops and duplicate edges are rejected
  /// with a CHECK failure (Definition 1 forbids self-loops; this library
  /// works with simple graphs). Returns the new edge id.
  EdgeId AddEdge(VertexId u, VertexId v, Label label = 0);

  /// True if the edge (u, v) was already added. Binary-searches the smaller
  /// endpoint's pending list (kept sorted by neighbor), so generators can
  /// probe large graphs without a quadratic linear scan.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Attaches keyword sets (unsorted input is fine; stored sorted+deduped).
  void SetVertexKeywords(VertexId v, std::vector<uint32_t> keywords);
  void SetEdgeKeywords(EdgeId e, std::vector<uint32_t> keywords);

  /// Masks a vertex out (used by graph reduction, paper §4.3): it keeps its
  /// id and label but must have no incident edges by Build() time, and is
  /// skipped as an enumeration root.
  void MarkVertexInactive(VertexId v);

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertex_labels_.size());
  }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  /// Finalizes the CSR representation. The builder is consumed.
  Graph Build() &&;

 private:
  std::vector<EdgeEndpoints> edges_;
  std::vector<Label> vertex_labels_;
  std::vector<Label> edge_labels_;
  // Pending adjacency as (neighbor, edge id) pairs per vertex, kept sorted
  // by neighbor id (AddEdge inserts in order) so HasEdge is O(log deg) and
  // Build() skips the per-vertex sort.
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> pending_adj_;
  std::vector<std::vector<uint32_t>> vertex_keywords_;
  std::vector<std::vector<uint32_t>> edge_keywords_;
  std::vector<uint8_t> inactive_;  // grows with vertices; 1 == masked out
  bool has_keywords_ = false;
  bool any_inactive_ = false;
};

}  // namespace fractal

#endif  // FRACTAL_GRAPH_GRAPH_H_
