#include "enumerate/subgraph.h"

#include <algorithm>
#include <sstream>

namespace fractal {

Subgraph::Subgraph(const Subgraph& other)
    : vertices_(other.vertices_),
      edges_(other.edges_),
      records_(other.records_),
      code_(other.code_) {
  RebuildBits();
}

Subgraph& Subgraph::operator=(const Subgraph& other) {
  if (this == &other) return *this;
  // Clear only the bits we set (O(k)), then adopt the new words. The bitset
  // storage is kept so steady-state prefix assignment allocates nothing.
  for (const VertexId v : vertices_) ClearBit(vertex_bits_, v);
  for (const EdgeId e : edges_) ClearBit(edge_bits_, e);
  if (vertices_.capacity() < other.vertices_.size() ||
      edges_.capacity() < other.edges_.size() ||
      records_.capacity() < other.records_.size()) {
    // A denser subgraph than any this frame has held: grow the recycled
    // word storage once to the new high-water mark. With ample capacity the
    // copy-assignments below never reallocate.
    AllocGuard::Allow allow("prefix storage high-water-mark growth");
    vertices_.reserve(other.vertices_.size());
    edges_.reserve(other.edges_.size());
    records_.reserve(other.records_.size());
  }
  vertices_ = other.vertices_;
  edges_ = other.edges_;
  records_ = other.records_;
  code_ = other.code_;
  for (const VertexId v : vertices_) SetBit(vertex_bits_, v);
  for (const EdgeId e : edges_) SetBit(edge_bits_, e);
  return *this;
}

void Subgraph::Clear() {
  for (const VertexId v : vertices_) ClearBit(vertex_bits_, v);
  for (const EdgeId e : edges_) ClearBit(edge_bits_, e);
  vertices_.clear();
  edges_.clear();
  records_.clear();
  code_ = QuickCode{};
}

void Subgraph::RebuildBits() {
  std::fill(vertex_bits_.begin(), vertex_bits_.end(), 0);
  std::fill(edge_bits_.begin(), edge_bits_.end(), 0);
  for (const VertexId v : vertices_) SetBit(vertex_bits_, v);
  for (const EdgeId e : edges_) SetBit(edge_bits_, e);
}

FRACTAL_HOT void Subgraph::ReserveForPush(size_t max_new_edges) {
  if (vertices_.size() + 2 <= vertices_.capacity() &&
      records_.size() + 1 <= records_.capacity() &&
      edges_.size() + max_new_edges <= edges_.capacity()) {
    return;
  }
  FRACTAL_HOT_ESCAPE("word storage grows to the frame's densest subgraph, "
                     "then stays at capacity");
  AllocGuard::Allow allow("subgraph word high-water-mark growth");
  const auto grow = [](auto& v, size_t needed) {
    if (v.capacity() < needed) {
      const size_t doubled = v.capacity() * 2;
      v.reserve(needed > doubled ? needed : doubled);
    }
  };
  grow(vertices_, vertices_.size() + 2);
  grow(records_, records_.size() + 1);
  grow(edges_, edges_.size() + max_new_edges);
}

void Subgraph::PushVertexInduced(const Graph& graph, VertexId v) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  // Every existing vertex contributes at most one edge to v.
  ReserveForPush(vertices_.size());
  uint32_t edges_added = 0;
  // Add edges in the order of the existing vertex word so that the edge word
  // is a deterministic function of the vertex word.
  const uint32_t position = NumVertices();
  uint64_t row = 0;
  for (uint32_t q = 0; q < position; ++q) {
    if (const auto edge = graph.EdgeBetween(vertices_[q], v)) {
      edges_.push_back(*edge);
      SetBit(edge_bits_, *edge);
      ++edges_added;
      if (q < QuickCode::kMaxVertices) row |= uint64_t{1} << q;
    }
  }
  if (position < QuickCode::kMaxVertices) {
    CodePushVertex(position, graph.VertexLabel(v), row);
  }
  vertices_.push_back(v);
  SetBit(vertex_bits_, v);
  records_.push_back(PushRecord::Make(1, edges_added));
}

FRACTAL_HOT void Subgraph::PushEdgeInduced(const Graph& graph, EdgeId e) {
  FRACTAL_DCHECK(!ContainsEdge(e));
  ReserveForPush(1);
  const EdgeEndpoints& endpoints = graph.Endpoints(e);
  edges_.push_back(e);
  SetBit(edge_bits_, e);
  // A present endpoint's position comes from a scan of at most
  // kMaxVertices words; a new one is appended at the end, joined to the
  // other endpoint if that one is already placed.
  const VertexId ends[2] = {endpoints.src, endpoints.dst};
  const bool present[2] = {ContainsVertex(ends[0]), ContainsVertex(ends[1])};
  uint32_t positions[2] = {kNoPosition, kNoPosition};
  uint32_t vertices_added = 0;
  for (int i = 0; i < 2; ++i) {
    if (present[i]) positions[i] = CodePosition(ends[i]);
  }
  for (int i = 0; i < 2; ++i) {
    if (present[i]) continue;
    positions[i] = NumVertices();
    if (positions[i] < QuickCode::kMaxVertices) {
      const uint32_t other = positions[1 - i];
      CodePushVertex(positions[i], graph.VertexLabel(ends[i]),
                     other < positions[i] ? uint64_t{1} << other : 0);
    }
    vertices_.push_back(ends[i]);
    SetBit(vertex_bits_, ends[i]);
    ++vertices_added;
  }
  if (vertices_added == 0) {
    CodeAddEdge(positions[0], positions[1]);
    records_.push_back(PushRecord::Make(0, 1, positions[0], positions[1]));
  } else {
    records_.push_back(PushRecord::Make(vertices_added, 1));
  }
}

FRACTAL_HOT void Subgraph::PushVertexWithEdges(const Graph& graph,
                                               VertexId v,
                                               std::span<const EdgeId> edges,
                                               uint64_t joined) {
  FRACTAL_DCHECK(!ContainsVertex(v));
  ReserveForPush(edges.size());
  const size_t edges_before = edges_.size();
  // Bit i per present entry: the code row of a word-ordered row. Only read
  // when v's position is below kMaxVertices, and then so is every i.
  uint64_t word_row = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeId e = edges[i];
    if (e == kInvalidEdge) continue;
    FRACTAL_DCHECK(!ContainsEdge(e));
    edges_.push_back(e);
    SetBit(edge_bits_, e);
    word_row |= uint64_t{1} << (i & 63);
  }
  const uint32_t position = NumVertices();
  if (position < QuickCode::kMaxVertices) {
    CodePushVertex(position, graph.VertexLabel(v),
                   joined == kWordRow ? word_row : joined);
  }
  vertices_.push_back(v);
  SetBit(vertex_bits_, v);
  records_.push_back(PushRecord::Make(
      1, static_cast<uint32_t>(edges_.size() - edges_before)));
}

FRACTAL_HOT void Subgraph::Pop() {
  FRACTAL_CHECK(!records_.empty()) << "Pop on empty subgraph";
  const PushRecord record = records_.back();
  records_.pop_back();
  // Code undo: only an edge-only push between two code positions needs one;
  // a popped vertex's position is past the size (class comment).
  const uint32_t src = record.edge_src();
  const uint32_t dst = record.edge_dst();
  if (src < QuickCode::kMaxVertices && dst < QuickCode::kMaxVertices) {
    code_.adjacency &= ~CodeEdgeBit(src, dst);
  }
  for (uint32_t i = 0; i < record.vertices_added(); ++i) {
    ClearBit(vertex_bits_, vertices_.back());
    vertices_.pop_back();
  }
  for (uint32_t i = 0; i < record.edges_added(); ++i) {
    ClearBit(edge_bits_, edges_.back());
    edges_.pop_back();
  }
}

FRACTAL_HOT Pattern Subgraph::QuickPattern(const Graph& graph) const {
  Pattern pattern;
  for (const VertexId v : vertices_) {
    pattern.AddVertex(graph.VertexLabel(v));
  }
  for (const EdgeId e : edges_) {
    const EdgeEndpoints& endpoints = graph.Endpoints(e);
    uint32_t src_position = 0;
    uint32_t dst_position = 0;
    for (uint32_t i = 0; i < vertices_.size(); ++i) {
      if (vertices_[i] == endpoints.src) src_position = i;
      if (vertices_[i] == endpoints.dst) dst_position = i;
    }
    pattern.AddEdge(src_position, dst_position, graph.GetEdgeLabel(e));
  }
  return pattern;
}

FRACTAL_HOT void Subgraph::RebuildQuickCode(const Graph& graph) {
  code_ = QuickCode{};
  const size_t n = std::min<size_t>(vertices_.size(), QuickCode::kMaxVertices);
  for (size_t p = 0; p < n; ++p) {
    CodePushVertex(static_cast<uint32_t>(p), graph.VertexLabel(vertices_[p]),
                   /*row=*/0);
  }
  size_t next_edge = 0;
  for (PushRecord& record : records_) {
    const uint32_t vertices_added = record.vertices_added();
    const uint32_t edges_added = record.edges_added();
    record = PushRecord::Make(vertices_added, edges_added);
    for (uint32_t i = 0; i < edges_added && next_edge < edges_.size(); ++i) {
      const EdgeEndpoints& endpoints = graph.Endpoints(edges_[next_edge++]);
      const uint32_t src = CodePosition(endpoints.src);
      const uint32_t dst = CodePosition(endpoints.dst);
      CodeAddEdge(src, dst);
      if (vertices_added == 0 && edges_added == 1) {
        record = PushRecord::Make(0, 1, src, dst);
      }
    }
  }
}

std::string Subgraph::ToString() const {
  std::ostringstream out;
  out << "V[";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i) out << ' ';
    out << vertices_[i];
  }
  out << "] E[";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i) out << ' ';
    out << edges_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace fractal
