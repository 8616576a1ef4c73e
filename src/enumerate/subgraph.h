// Subgraph: the unit of GPM computation (paper Definition 2) — a connected
// subgraph of the input graph represented by its vertex word and edge word
// in *addition order*. Designed for DFS enumeration: Push/Pop operations are
// O(k) and every push is recorded so it can be undone exactly.
//
// Membership bitset invariant (DESIGN.md §8): vertex_bits_ / edge_bits_
// mirror the vertex and edge words at all times — bit v is set iff v appears
// in the word. The bitsets grow lazily to the highest id ever inserted (not
// |V|), and copy construction/assignment touch only the O(k) set bits, so
// prefix snapshots taken by the enumerator and the steal path stay O(k).
//
// Quick code (DESIGN.md §8 "Quick codes and pattern ids"): the subgraph's
// quick pattern over its first QuickCode::kMaxVertices positions. Only the
// bytes of positions below NumVertices() are meaningful: a vertex push
// overwrites its position's label slot and row (its edges to earlier
// positions), so a vertex pop leaves the code alone and only an edge-only
// pop clears its edge. Copies
// carry the code; a subgraph whose words were written directly (codec
// decode) holds an unfit code until RebuildQuickCode.
#ifndef FRACTAL_ENUMERATE_SUBGRAPH_H_
#define FRACTAL_ENUMERATE_SUBGRAPH_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Mutable subgraph with push/pop growth. Not thread-safe (one per
/// execution thread); enumerator prefixes snapshot it by copy.
class Subgraph {
 public:
  Subgraph() = default;

  // Copies transfer the words and rebuild/clear bits in O(k); the bitset
  // storage itself is reused on assignment (no O(|V|) work, no shrink).
  Subgraph(const Subgraph& other);
  Subgraph& operator=(const Subgraph& other);
  Subgraph(Subgraph&&) = default;
  Subgraph& operator=(Subgraph&&) = default;

  void Clear();

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vertices_.size());
  }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }
  bool Empty() const { return vertices_.empty() && edges_.empty(); }

  std::span<const VertexId> Vertices() const { return vertices_; }
  std::span<const EdgeId> Edges() const { return edges_; }

  VertexId VertexAt(uint32_t position) const { return vertices_[position]; }
  EdgeId EdgeAt(uint32_t position) const { return edges_[position]; }
  VertexId LastVertex() const { return vertices_.back(); }
  EdgeId LastEdge() const { return edges_.back(); }

  /// O(1) membership via the incremental bitsets.
  bool ContainsVertex(VertexId v) const { return TestBit(vertex_bits_, v); }
  bool ContainsEdge(EdgeId e) const { return TestBit(edge_bits_, e); }

  /// Vertex-induced push: appends v plus every edge connecting v to the
  /// current vertices (Fig. 1, vertex-induced extension), found by one
  /// adjacency search per vertex. For building subgraphs outside the DFS;
  /// the strategies push with edge rows instead.
  void PushVertexInduced(const Graph& graph, VertexId v);

  /// Edge-induced push: appends edge e plus its endpoints that are not yet
  /// in the subgraph (Fig. 1, edge-induced extension). Hot-path root.
  FRACTAL_HOT void PushEdgeInduced(const Graph& graph, EdgeId e);

  /// `joined` value of PushVertexWithEdges for a word-ordered row.
  static constexpr uint64_t kWordRow = ~uint64_t{0};

  /// Appends v plus the given incident edges, in order, skipping
  /// kInvalidEdge entries: the push behind every vertex-adding strategy,
  /// fed an edge row (enumerate/extension.h). `joined` has bit q set per
  /// word position q the edges join v to; kWordRow says the row is
  /// word-ordered (entry i joins position i). Hot-path root.
  FRACTAL_HOT void PushVertexWithEdges(const Graph& graph, VertexId v,
                                       std::span<const EdgeId> edges,
                                       uint64_t joined = kWordRow);

  /// Undoes the most recent push (any kind). Hot-path root.
  FRACTAL_HOT void Pop();

  /// Number of pushes currently applied.
  uint32_t Depth() const { return static_cast<uint32_t>(records_.size()); }

  /// The labeled pattern of this subgraph over positions in addition order
  /// — the "quick pattern" memoization key for canonicalization. Built in
  /// the pattern's inline storage: no allocation up to 8 vertices.
  FRACTAL_HOT Pattern QuickPattern(const Graph& graph) const;

  /// The quick pattern as a QuickCode, or nullopt when it does not fit:
  /// more than QuickCode::kMaxVertices vertices, a vertex label wider than
  /// a slot, or a `graph` without a uniform edge label. When it fits,
  /// Pattern::FromQuickCode(*code, *graph.UniformEdgeLabel()) ==
  /// QuickPattern(graph).
  FRACTAL_HOT std::optional<QuickCode> FittingQuickCode(
      const Graph& graph) const {
    const uint32_t n = NumVertices();
    if (n > QuickCode::kMaxVertices || !graph.UniformEdgeLabel()) {
      return std::nullopt;
    }
    // Drop the bytes of positions n and up (class comment).
    const uint64_t rows = n == QuickCode::kMaxVertices
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (8 * n)) - 1;
    QuickCode code;
    code.labels = code_.labels & rows;
    code.adjacency = code_.adjacency & rows;
    if (!code.LabelsFit()) return std::nullopt;
    return code;
  }

  /// Recomputes the quick code from the words against `graph`: for
  /// subgraphs whose words arrived without it (codec decode).
  FRACTAL_HOT void RebuildQuickCode(const Graph& graph);

  std::string ToString() const;

  friend bool operator==(const Subgraph& a, const Subgraph& b) {
    return a.vertices_ == b.vertices_ && a.edges_ == b.edges_;
  }

 private:
  friend class SubgraphCodec;

  /// Code position of a vertex outside the quick code.
  static constexpr uint8_t kNoPosition = 0xFF;

  /// One push, packed in one word so that the push stores it and the pop
  /// loads it whole: vertices added, edges added, and the code positions
  /// of the edge of an edge-only push (the one push whose code undo is not
  /// "forget the last positions"), else kNoPosition.
  struct PushRecord {
    static PushRecord Make(uint32_t vertices_added, uint32_t edges_added,
                           uint32_t edge_src = kNoPosition,
                           uint32_t edge_dst = kNoPosition) {
      return {(vertices_added & 0xFF) | (edges_added & 0xFF) << 8 |
              edge_src << 16 | edge_dst << 24};
    }
    uint32_t vertices_added() const { return bits & 0xFF; }
    uint32_t edges_added() const { return (bits >> 8) & 0xFF; }
    uint32_t edge_src() const { return (bits >> 16) & 0xFF; }
    uint32_t edge_dst() const { return bits >> 24; }

    uint32_t bits = Make(0, 0).bits;
  };

  static bool TestBit(const std::vector<uint64_t>& bits, uint32_t id) {
    const size_t word = id >> 6;
    return word < bits.size() && ((bits[word] >> (id & 63)) & 1) != 0;
  }
  FRACTAL_HOT static void SetBit(FRACTAL_ARENA_OUT std::vector<uint64_t>& bits,
                                 uint32_t id) {
    const size_t word = id >> 6;
    if (word >= bits.size()) {
      FRACTAL_HOT_ESCAPE("bitset grows to the highest id ever seen, then "
                         "stays at capacity for the rest of the step");
      AllocGuard::Allow allow("bitset high-water-mark growth");
      bits.resize(word + 1, 0);
    }
    bits[word] |= uint64_t{1} << (id & 63);
  }
  static void ClearBit(std::vector<uint64_t>& bits, uint32_t id) {
    const size_t word = id >> 6;
    if (word < bits.size()) bits[word] &= ~(uint64_t{1} << (id & 63));
  }

  /// Recomputes both bitsets from the words (used after codec decode and by
  /// the copy operations).
  void RebuildBits();

  /// Marks the quick code unfit until RebuildQuickCode: for words written
  /// behind the pushes' back (codec decode). Every slot holds kUnfitSlot; a
  /// push keeps the slots below it, so the code stays unfit until the
  /// subgraph is emptied.
  void MarkQuickCodeStale() { code_.labels = ~uint64_t{0}; }

  /// Code position of word vertex v among the first kMaxVertices, or
  /// kNoPosition.
  FRACTAL_HOT uint8_t CodePosition(VertexId v) const {
    const size_t n = vertices_.size() < QuickCode::kMaxVertices
                         ? vertices_.size()
                         : QuickCode::kMaxVertices;
    for (size_t p = 0; p < n; ++p) {
      if (vertices_[p] == v) return static_cast<uint8_t>(p);
    }
    return kNoPosition;
  }
  /// Writes the vertex at position p < kMaxVertices into the code: its
  /// label slot and its row `row` (bit q per neighbour position q < p);
  /// slots and rows above p are cleared.
  void CodePushVertex(uint32_t p, Label label, uint64_t row) {
    const uint64_t below = (uint64_t{1} << (8 * p)) - 1;
    code_.labels =
        (code_.labels & below) | (QuickCode::LabelSlot(label) << (8 * p));
    code_.adjacency = (code_.adjacency & below) | (row << (8 * p));
  }
  /// The code bit of an edge between positions a and b (both below
  /// kMaxVertices): bit min in byte max.
  static uint64_t CodeEdgeBit(uint32_t a, uint32_t b) {
    return a < b ? uint64_t{1} << (8 * b + a) : uint64_t{1} << (8 * a + b);
  }
  /// Adds an edge between code positions a and b (kNoPosition: skipped).
  void CodeAddEdge(uint32_t a, uint32_t b) {
    if (a < QuickCode::kMaxVertices && b < QuickCode::kMaxVertices) {
      code_.adjacency |= CodeEdgeBit(a, b);
    }
  }

  /// Secures headroom for one push (<= 2 vertices, 1 record, max_new_edges
  /// edges) so the appends in the Push* bodies never reallocate; amortized
  /// high-water-mark growth of the recycled words happens here, under an
  /// AllocGuard::Allow.
  FRACTAL_HOT void ReserveForPush(size_t max_new_edges);

  // Recycled storage: the words and bitsets keep their grown capacity across
  // Clear/assignment (class comment), so amortized growth on them is part of
  // the zero-steady-state-allocation design — hence FRACTAL_ARENA_OUT.
  FRACTAL_ARENA_OUT std::vector<VertexId> vertices_;
  FRACTAL_ARENA_OUT std::vector<EdgeId> edges_;
  FRACTAL_ARENA_OUT std::vector<PushRecord> records_;
  // One bit per id present in the corresponding word; see class comment.
  FRACTAL_ARENA_OUT std::vector<uint64_t> vertex_bits_;
  FRACTAL_ARENA_OUT std::vector<uint64_t> edge_bits_;
  // The quick code; see the class comment.
  QuickCode code_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SUBGRAPH_H_
