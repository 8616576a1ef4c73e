// Pattern: a small labeled graph acting as the template of a subgraph
// (paper §2.1). Patterns are the aggregation keys of motif counting and FSM
// and the inputs of pattern-induced enumeration (subgraph querying).
//
// Patterns are tiny (<= 32 vertices, enforced) and value-semantic: equality,
// hashing and ordering compare the exact labeled structure over *positions*
// (vertex indices). Two isomorphic patterns with different position
// numberings compare unequal — use CanonicalForm() (canonical.h) to get the
// class representative.
//
// Representation. Per position the pattern stores its vertex label and its
// neighbor bitmask; per edge it stores only the edge label, in (src, dst)
// order. Edge endpoints are implicit: the adjacency bitmasks already
// determine the sorted edge list, and Edges() decodes it on the fly (src
// ascending, then the bits of NeighborMask(src) above src). Patterns of up
// to kInlineVertices positions — every motif and FSM pattern the apps build
// in practice, up to and including the 28-edge 8-clique — keep all of this
// in fixed inline arrays, so building, copying, hashing and comparing them
// never touches the heap. That keeps the per-subgraph aggregation path
// (quick pattern -> canonical-pattern cache -> aggregation key) inside the
// zero-allocation discipline (DESIGN.md §9).
//
// Large patterns. Adding position kInlineVertices (the ninth vertex) moves
// the pattern into one heap block sized for kMaxVertices positions plus a
// growable edge-label vector (the "spill"). Spilled patterns have the same
// value semantics; they just allocate when built or copied, and report the
// block through ApproxHeapBytes(). Which storage a pattern uses is a pure
// function of NumVertices().
//
// Memory. sizeof(Pattern) is the per-key footprint of every thread's
// quick-pattern cache and aggregation map (FSM keeps one per distinct
// pattern per thread), so the inline part is kept compact: 8 vertex labels,
// 28 edge labels and 8 one-byte neighbor masks, 168 bytes in all.
#ifndef FRACTAL_PATTERN_PATTERN_H_
#define FRACTAL_PATTERN_PATTERN_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/hot_annotations.h"

namespace fractal {

/// Edge of a pattern; endpoints are position indices with src < dst.
struct PatternEdge {
  uint32_t src = 0;
  uint32_t dst = 0;
  Label label = 0;

  friend bool operator==(const PatternEdge&, const PatternEdge&) = default;
  friend auto operator<=>(const PatternEdge&, const PatternEdge&) = default;
};

/// A quick pattern of at most kMaxVertices positions whose every edge
/// carries one label, packed into two words (DESIGN.md §8 "Quick codes and
/// pattern ids"). `Subgraph` keeps one up to date on every push and pop, so
/// canonicalization can look patterns up without building a `Pattern`.
/// Equal codes encode equal quick patterns under the same edge label.
struct QuickCode {
  static constexpr uint32_t kMaxVertices = 8;
  /// Widest vertex label a slot holds: a slot stores label + 1.
  static constexpr Label kMaxLabel = 0xFD;
  /// Slot of a vertex whose label is wider than kMaxLabel.
  static constexpr uint64_t kUnfitSlot = 0xFF;

  /// Byte p: the neighbours of position p among positions below p (each
  /// edge is stored once, at its later endpoint).
  uint64_t adjacency = 0;
  /// Byte p: 0 past the last position, else label + 1 or kUnfitSlot.
  uint64_t labels = 0;

  static uint64_t LabelSlot(Label label) {
    return label <= kMaxLabel ? uint64_t{label} + 1 : kUnfitSlot;
  }

  /// True iff no slot holds kUnfitSlot.
  bool LabelsFit() const {
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHighs = 0x8080808080808080ull;
    // A zero byte of ~labels is an all-ones byte of labels.
    return ((~labels - kOnes) & labels & kHighs) == 0;
  }

  friend bool operator==(const QuickCode&, const QuickCode&) = default;
};

/// Small labeled graph over positions 0..NumVertices()-1.
class Pattern {
 public:
  static constexpr uint32_t kMaxVertices = 32;
  /// Positions stored inline (no heap); larger patterns spill.
  static constexpr uint32_t kInlineVertices = 8;
  static constexpr uint32_t kInlineEdges =
      kInlineVertices * (kInlineVertices - 1) / 2;

  /// Forward iterator over the edges in (src, dst) order, decoded from the
  /// adjacency bitmasks. Dereferencing yields a PatternEdge by value.
  class EdgeIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PatternEdge;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PatternEdge;

    EdgeIterator() = default;

    PatternEdge operator*() const {
      PatternEdge edge;
      edge.src = src_;
      edge.dst = static_cast<uint32_t>(__builtin_ctzll(higher_));
      edge.label = pattern_->EdgeLabels()[index_];
      return edge;
    }
    EdgeIterator& operator++() {
      higher_ &= higher_ - 1;
      ++index_;
      SkipToNextSource();
      return *this;
    }
    EdgeIterator operator++(int) {
      EdgeIterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const EdgeIterator& a, const EdgeIterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class Pattern;
    EdgeIterator(const Pattern* pattern, uint32_t index)
        : pattern_(pattern), index_(index) {
      if (index_ < pattern_->NumEdges()) {
        higher_ = pattern_->HigherNeighbors(0);
        SkipToNextSource();
      }
    }
    void SkipToNextSource() {
      while (higher_ == 0 && index_ < pattern_->NumEdges()) {
        higher_ = pattern_->HigherNeighbors(++src_);
      }
    }

    const Pattern* pattern_ = nullptr;
    uint32_t index_ = 0;
    uint32_t src_ = 0;
    uint64_t higher_ = 0;  // unvisited neighbors of src_ above src_
  };

  /// The edge list as a range (see EdgeIterator).
  class EdgeRange {
   public:
    EdgeIterator begin() const { return EdgeIterator(pattern_, 0); }
    EdgeIterator end() const {
      return EdgeIterator(pattern_, pattern_->NumEdges());
    }
    uint32_t size() const { return pattern_->NumEdges(); }
    bool empty() const { return size() == 0; }

   private:
    friend class Pattern;
    explicit EdgeRange(const Pattern* pattern) : pattern_(pattern) {}
    const Pattern* pattern_;
  };

  Pattern() = default;
  Pattern(const Pattern& other);
  Pattern(Pattern&& other) noexcept;
  Pattern& operator=(const Pattern& other);
  Pattern& operator=(Pattern&& other) noexcept;
  ~Pattern() = default;

  /// Adds a vertex position with the given label; returns its index.
  FRACTAL_HOT uint32_t AddVertex(Label label);

  /// Adds an undirected edge between positions u and v. Duplicate edges and
  /// self-loops are programming errors.
  FRACTAL_HOT void AddEdge(uint32_t u, uint32_t v, Label label = 0);

  uint32_t NumVertices() const { return num_vertices_; }
  uint32_t NumEdges() const { return num_edges_; }

  Label VertexLabel(uint32_t position) const {
    FRACTAL_DCHECK(position < NumVertices());
    return VertexLabels()[position];
  }

  /// Edges sorted by (src, dst).
  EdgeRange Edges() const { return EdgeRange(this); }

  bool IsAdjacent(uint32_t u, uint32_t v) const {
    FRACTAL_DCHECK(u < NumVertices() && v < NumVertices());
    return (NeighborMask(u) >> v) & 1u;
  }

  /// Label of edge (u, v); the edge must exist.
  Label EdgeLabelBetween(uint32_t u, uint32_t v) const;

  /// Index of edge (u, v) in Edges() order; the edge must exist.
  uint32_t EdgeIndex(uint32_t u, uint32_t v) const;

  /// Bitmask of neighbors of position v.
  uint32_t NeighborMask(uint32_t v) const {
    FRACTAL_DCHECK(v < NumVertices());
    return spill_ == nullptr ? inline_.adjacency[v] : spill_->adjacency[v];
  }

  uint32_t Degree(uint32_t v) const {
    return static_cast<uint32_t>(__builtin_popcount(NeighborMask(v)));
  }

  bool IsConnected() const;

  /// True iff every pair of positions is adjacent.
  bool IsClique() const {
    return NumEdges() == NumVertices() * (NumVertices() - 1) / 2;
  }

  /// Relabels positions: result position perm[i] gets this pattern's vertex
  /// i (perm must be a permutation of 0..n-1).
  Pattern Permuted(const std::vector<uint32_t>& perm) const;

  /// "v0(l) v1(l) ... ; (0-1:l) (1-2:l) ..." — stable, human-readable.
  std::string ToString() const;

  uint64_t Hash() const;

  /// Heap bytes owned by this pattern: zero for inline patterns, the spill
  /// block for large ones — the aggregation memory-accounting hook
  /// (core/aggregation.h HeapBytesOf); sizeof(Pattern) itself is counted by
  /// the caller.
  uint64_t ApproxHeapBytes() const {
    return spill_ == nullptr
               ? 0
               : sizeof(Spill) +
                     spill_->edge_labels.capacity() * sizeof(Label);
  }

  friend bool operator==(const Pattern& a, const Pattern& b);
  /// Lexicographic over the vertex labels, then over the (src, dst, label)
  /// edge list — the order of the former vector-backed representation.
  friend std::strong_ordering operator<=>(const Pattern& a, const Pattern& b);

  // --- Common shapes (unlabeled: all labels 0) --------------------------

  static Pattern Clique(uint32_t k);
  static Pattern CyclePattern(uint32_t k);
  static Pattern PathPattern(uint32_t k);
  static Pattern StarPattern(uint32_t k);

  /// The quick pattern `code` encodes, every edge labelled `edge_label`.
  /// `code` must have LabelsFit().
  static Pattern FromQuickCode(const QuickCode& code, Label edge_label);

 private:
  /// Inline storage. Entries past the used prefix stay zero, so equal
  /// inline patterns are byte-equal.
  struct Inline {
    Label vertex_labels[kInlineVertices];
    Label edge_labels[kInlineEdges];
    uint8_t adjacency[kInlineVertices];
  };

  /// Heap storage of a pattern past kInlineVertices positions.
  struct Spill {
    Label vertex_labels[kMaxVertices] = {};
    uint32_t adjacency[kMaxVertices] = {};
    std::vector<Label> edge_labels;  // in Edges() order
  };

  const Label* VertexLabels() const {
    return spill_ == nullptr ? inline_.vertex_labels : spill_->vertex_labels;
  }
  const Label* EdgeLabels() const {
    return spill_ == nullptr ? inline_.edge_labels : spill_->edge_labels.data();
  }

  /// Neighbors of v above v (the dst bits of edges with src == v).
  uint64_t HigherNeighbors(uint32_t v) const {
    return NeighborMask(v) & ~((uint64_t{2} << v) - 1);
  }

  /// Number of edges ordered before (src, dst), src < dst, whether or not
  /// that edge exists.
  uint32_t EdgeRank(uint32_t src, uint32_t dst) const;

  /// Moves the inline contents into a fresh heap block.
  void SpillToHeap();

  /// Leaves *this empty (the moved-from state).
  void Reset();

  Inline inline_{};
  uint8_t num_vertices_ = 0;
  uint16_t num_edges_ = 0;
  std::unique_ptr<Spill> spill_;  // non-null iff NumVertices() > 8
};

struct PatternHash {
  size_t operator()(const Pattern& pattern) const {
    return static_cast<size_t>(pattern.Hash());
  }
};

}  // namespace fractal

#endif  // FRACTAL_PATTERN_PATTERN_H_
