#include "pattern/pattern.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/hot_annotations.h"

namespace fractal {

static_assert(sizeof(Pattern) <= 168,
              "Pattern is the per-key footprint of every aggregation map");

Pattern::Pattern(const Pattern& other)
    : inline_(other.inline_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_) {
  if (other.spill_ != nullptr) {
    FRACTAL_HOT_ESCAPE("large patterns own a heap block by design");
    spill_ = std::make_unique<Spill>(*other.spill_);
  }
}

Pattern::Pattern(Pattern&& other) noexcept
    : inline_(other.inline_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      spill_(std::move(other.spill_)) {
  other.Reset();
}

Pattern& Pattern::operator=(const Pattern& other) {
  if (this != &other) *this = Pattern(other);
  return *this;
}

Pattern& Pattern::operator=(Pattern&& other) noexcept {
  if (this == &other) return *this;
  inline_ = other.inline_;
  num_vertices_ = other.num_vertices_;
  num_edges_ = other.num_edges_;
  spill_ = std::move(other.spill_);
  other.Reset();
  return *this;
}

void Pattern::Reset() {
  inline_ = Inline{};
  num_vertices_ = 0;
  num_edges_ = 0;
  spill_.reset();
}

void Pattern::SpillToHeap() {
  auto spill = std::make_unique<Spill>();
  std::copy_n(inline_.vertex_labels, num_vertices_, spill->vertex_labels);
  std::copy_n(inline_.adjacency, num_vertices_, spill->adjacency);
  spill->edge_labels.assign(inline_.edge_labels,
                            inline_.edge_labels + num_edges_);
  spill_ = std::move(spill);
}

FRACTAL_HOT uint32_t Pattern::AddVertex(Label label) {
  FRACTAL_CHECK(NumVertices() < kMaxVertices) << "pattern too large";
  const uint32_t position = num_vertices_;
  if (position < kInlineVertices) {
    inline_.vertex_labels[position] = label;
    inline_.adjacency[position] = 0;
  } else {
    FRACTAL_HOT_ESCAPE("past the inline capacity: large patterns spill");
    if (spill_ == nullptr) SpillToHeap();
    spill_->vertex_labels[position] = label;
    spill_->adjacency[position] = 0;
  }
  ++num_vertices_;
  return position;
}

FRACTAL_HOT void Pattern::AddEdge(uint32_t u, uint32_t v, Label label) {
  FRACTAL_CHECK(u < NumVertices() && v < NumVertices());
  FRACTAL_CHECK(u != v) << "pattern self-loop";
  FRACTAL_CHECK(!IsAdjacent(u, v)) << "duplicate pattern edge";
  const uint32_t index = EdgeRank(std::min(u, v), std::max(u, v));
  if (spill_ == nullptr) {
    FRACTAL_DCHECK(num_edges_ < kInlineEdges);
    // Edges mostly arrive in order, so this shift is usually empty.
    Label* labels = inline_.edge_labels;
    for (uint32_t i = num_edges_; i > index; --i) labels[i] = labels[i - 1];
    labels[index] = label;
    inline_.adjacency[u] |= static_cast<uint8_t>(1u << v);
    inline_.adjacency[v] |= static_cast<uint8_t>(1u << u);
  } else {
    FRACTAL_HOT_ESCAPE("past the inline capacity: large patterns spill");
    spill_->edge_labels.insert(spill_->edge_labels.begin() + index, label);
    spill_->adjacency[u] |= 1u << v;
    spill_->adjacency[v] |= 1u << u;
  }
  ++num_edges_;
}

namespace {

/// Set bits of a (sparse) neighbor mask. Not __builtin_popcount: on
/// baseline x86-64 (no POPCNT) that is a libgcc call, paid per AddEdge.
uint32_t CountBits(uint64_t mask) {
  uint32_t count = 0;
  for (; mask != 0; mask &= mask - 1) ++count;
  return count;
}

}  // namespace

uint32_t Pattern::EdgeRank(uint32_t src, uint32_t dst) const {
  uint32_t rank = 0;
  for (uint32_t a = 0; a < src; ++a) rank += CountBits(HigherNeighbors(a));
  const uint64_t below_dst = (uint64_t{1} << dst) - 1;
  return rank + CountBits(HigherNeighbors(src) & below_dst);
}

Pattern Pattern::FromQuickCode(const QuickCode& code, Label edge_label) {
  FRACTAL_DCHECK(code.LabelsFit());
  Pattern pattern;
  for (uint32_t p = 0; p < QuickCode::kMaxVertices; ++p) {
    const uint64_t slot = (code.labels >> (8 * p)) & 0xFF;
    if (slot == 0) break;
    pattern.AddVertex(static_cast<Label>(slot - 1));
  }
  for (uint32_t p = 1; p < pattern.NumVertices(); ++p) {
    for (uint64_t lower = (code.adjacency >> (8 * p)) & 0xFF; lower != 0;
         lower &= lower - 1) {
      pattern.AddEdge(static_cast<uint32_t>(__builtin_ctzll(lower)), p,
                      edge_label);
    }
  }
  return pattern;
}

uint32_t Pattern::EdgeIndex(uint32_t u, uint32_t v) const {
  FRACTAL_CHECK(u < NumVertices() && v < NumVertices() && IsAdjacent(u, v))
      << "no edge (" << u << "," << v << ") in pattern";
  return EdgeRank(std::min(u, v), std::max(u, v));
}

Label Pattern::EdgeLabelBetween(uint32_t u, uint32_t v) const {
  return EdgeLabels()[EdgeIndex(u, v)];
}

bool Pattern::IsConnected() const {
  const uint32_t n = NumVertices();
  if (n <= 1) return true;
  uint32_t visited = 1u;  // start from position 0
  uint32_t frontier = 1u;
  while (frontier != 0) {
    uint32_t next = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if ((frontier >> v) & 1u) next |= NeighborMask(v);
    }
    frontier = next & ~visited;
    visited |= next;
  }
  return visited == (n == 32 ? ~0u : ((1u << n) - 1u));
}

Pattern Pattern::Permuted(const std::vector<uint32_t>& perm) const {
  FRACTAL_CHECK(perm.size() == NumVertices());
  Pattern result;
  Label labels[kMaxVertices] = {};
  for (uint32_t i = 0; i < NumVertices(); ++i) {
    labels[perm[i]] = VertexLabel(i);
  }
  for (uint32_t i = 0; i < NumVertices(); ++i) result.AddVertex(labels[i]);
  for (const PatternEdge& edge : Edges()) {
    result.AddEdge(perm[edge.src], perm[edge.dst], edge.label);
  }
  return result;
}

std::string Pattern::ToString() const {
  std::ostringstream out;
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    if (v > 0) out << ' ';
    out << 'v' << v << '(' << VertexLabel(v) << ')';
  }
  out << " ;";
  for (const PatternEdge& edge : Edges()) {
    out << " (" << edge.src << '-' << edge.dst;
    if (edge.label != 0) out << ':' << edge.label;
    out << ')';
  }
  return out.str();
}

uint64_t Pattern::Hash() const {
  uint64_t hash = 0x9e3779b97f4a7c15ull ^ NumVertices();
  auto mix = [&hash](uint64_t value) {
    hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  };
  const Label* labels = VertexLabels();
  for (uint32_t v = 0; v < NumVertices(); ++v) mix(labels[v]);
  for (const PatternEdge& edge : Edges()) {
    mix((static_cast<uint64_t>(edge.src) << 40) |
        (static_cast<uint64_t>(edge.dst) << 20) | edge.label);
  }
  return hash;
}

bool operator==(const Pattern& a, const Pattern& b) {
  if (a.num_vertices_ != b.num_vertices_ || a.num_edges_ != b.num_edges_) {
    return false;
  }
  if (a.spill_ == nullptr) {
    return std::memcmp(&a.inline_, &b.inline_, sizeof(Pattern::Inline)) == 0;
  }
  const uint32_t n = a.num_vertices_;
  return std::equal(a.spill_->vertex_labels, a.spill_->vertex_labels + n,
                    b.spill_->vertex_labels) &&
         std::equal(a.spill_->adjacency, a.spill_->adjacency + n,
                    b.spill_->adjacency) &&
         a.spill_->edge_labels == b.spill_->edge_labels;
}

std::strong_ordering operator<=>(const Pattern& a, const Pattern& b) {
  const Label* a_labels = a.VertexLabels();
  const Label* b_labels = b.VertexLabels();
  if (auto c = std::lexicographical_compare_three_way(
          a_labels, a_labels + a.NumVertices(), b_labels,
          b_labels + b.NumVertices());
      c != 0) {
    return c;
  }
  const Pattern::EdgeRange a_edges = a.Edges();
  const Pattern::EdgeRange b_edges = b.Edges();
  return std::lexicographical_compare_three_way(
      a_edges.begin(), a_edges.end(), b_edges.begin(), b_edges.end());
}

Pattern Pattern::Clique(uint32_t k) {
  Pattern pattern;
  for (uint32_t i = 0; i < k; ++i) pattern.AddVertex(0);
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) pattern.AddEdge(i, j);
  }
  return pattern;
}

Pattern Pattern::CyclePattern(uint32_t k) {
  FRACTAL_CHECK(k >= 3);
  Pattern pattern;
  for (uint32_t i = 0; i < k; ++i) pattern.AddVertex(0);
  for (uint32_t i = 0; i < k; ++i) pattern.AddEdge(i, (i + 1) % k);
  return pattern;
}

Pattern Pattern::PathPattern(uint32_t k) {
  FRACTAL_CHECK(k >= 1);
  Pattern pattern;
  for (uint32_t i = 0; i < k; ++i) pattern.AddVertex(0);
  for (uint32_t i = 0; i + 1 < k; ++i) pattern.AddEdge(i, i + 1);
  return pattern;
}

Pattern Pattern::StarPattern(uint32_t k) {
  FRACTAL_CHECK(k >= 2);
  Pattern pattern;
  for (uint32_t i = 0; i < k; ++i) pattern.AddVertex(0);
  for (uint32_t i = 1; i < k; ++i) pattern.AddEdge(0, i);
  return pattern;
}

}  // namespace fractal
