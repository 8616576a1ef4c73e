#include "tests/dfs_code.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace fractal {
namespace {

std::tuple<Label, Label, Label> Labels(const DfsEdge& e) {
  return {e.label_i, e.label_ij, e.label_j};
}

/// One partial DFS traversal of the pattern realizing the current code.
struct Instantiation {
  std::vector<uint32_t> index_to_vertex;  // discovery index -> pattern vertex
  std::vector<int32_t> vertex_to_index;   // -1 when undiscovered
  uint64_t used_edges = 0;                // bitmask over pattern edge slots
  std::vector<uint32_t> rightmost_path;   // discovery indices, root..rightmost
};

struct Extension {
  DfsEdge edge;
  uint32_t source_vertex;  // pattern vertex at edge.i
  uint32_t target_vertex;  // pattern vertex at edge.j
};

/// All gSpan-valid extensions of one instantiation.
void CollectExtensions(const Pattern& pattern, const Instantiation& inst,
                       std::vector<Extension>* out) {
  const uint32_t rightmost_index = inst.rightmost_path.back();
  const uint32_t rightmost_vertex = inst.index_to_vertex[rightmost_index];

  // Backward edges: rightmost vertex -> earlier vertex on the rightmost
  // path, using a pattern edge not yet in the code.
  for (const uint32_t path_index : inst.rightmost_path) {
    if (path_index == rightmost_index) continue;
    const uint32_t target = inst.index_to_vertex[path_index];
    if (!pattern.IsAdjacent(rightmost_vertex, target)) continue;
    const uint32_t slot = pattern.EdgeIndex(rightmost_vertex, target);
    if ((inst.used_edges >> slot) & 1ull) continue;
    Extension ext;
    ext.edge = {rightmost_index, path_index,
                pattern.VertexLabel(rightmost_vertex),
                pattern.EdgeLabelBetween(rightmost_vertex, target),
                pattern.VertexLabel(target)};
    ext.source_vertex = rightmost_vertex;
    ext.target_vertex = target;
    out->push_back(ext);
  }

  // Forward edges: from any rightmost-path vertex to an undiscovered vertex.
  const uint32_t next_index =
      static_cast<uint32_t>(inst.index_to_vertex.size());
  for (const uint32_t path_index : inst.rightmost_path) {
    const uint32_t source = inst.index_to_vertex[path_index];
    for (uint32_t target = 0; target < pattern.NumVertices(); ++target) {
      if (!pattern.IsAdjacent(source, target)) continue;
      if (inst.vertex_to_index[target] >= 0) continue;
      Extension ext;
      ext.edge = {path_index, next_index, pattern.VertexLabel(source),
                  pattern.EdgeLabelBetween(source, target),
                  pattern.VertexLabel(target)};
      ext.source_vertex = source;
      ext.target_vertex = target;
      out->push_back(ext);
    }
  }
}

Instantiation Extend(const Pattern& pattern, const Instantiation& inst,
                     const Extension& ext) {
  Instantiation next = inst;
  next.used_edges |=
      1ull << pattern.EdgeIndex(ext.source_vertex, ext.target_vertex);
  if (ext.edge.IsForward()) {
    const uint32_t new_index = ext.edge.j;
    FRACTAL_DCHECK(new_index == next.index_to_vertex.size());
    next.index_to_vertex.push_back(ext.target_vertex);
    next.vertex_to_index[ext.target_vertex] =
        static_cast<int32_t>(new_index);
    // New rightmost path: ancestors of the source index, then the new index.
    while (!next.rightmost_path.empty() &&
           next.rightmost_path.back() != ext.edge.i) {
      next.rightmost_path.pop_back();
    }
    FRACTAL_DCHECK(!next.rightmost_path.empty());
    next.rightmost_path.push_back(new_index);
  }
  // Backward edges leave the rightmost path unchanged.
  return next;
}

}  // namespace

bool DfsEdgeLess(const DfsEdge& a, const DfsEdge& b) {
  const bool a_forward = a.IsForward();
  const bool b_forward = b.IsForward();
  if (!a_forward && !b_forward) {  // both backward
    if (a.i != b.i) return a.i < b.i;
    if (a.j != b.j) return a.j < b.j;
    return Labels(a) < Labels(b);
  }
  if (a_forward && b_forward) {
    if (a.j != b.j) return a.j < b.j;
    if (a.i != b.i) return a.i > b.i;  // deeper source first
    return Labels(a) < Labels(b);
  }
  if (!a_forward) return a.i < b.j;  // backward vs forward
  return a.j <= b.i;                 // forward vs backward
}

bool DfsCodeLess(const DfsCode& a, const DfsCode& b) {
  const size_t common = std::min(a.edges.size(), b.edges.size());
  for (size_t k = 0; k < common; ++k) {
    if (a.edges[k] == b.edges[k]) continue;
    return DfsEdgeLess(a.edges[k], b.edges[k]);
  }
  return a.edges.size() < b.edges.size();
}

std::string DfsCode::ToString() const {
  std::ostringstream out;
  for (const DfsEdge& e : edges) {
    out << '(' << e.i << ',' << e.j << ',' << e.label_i << ',' << e.label_ij
        << ',' << e.label_j << ')';
  }
  return out.str();
}

DfsCode MinDfsCode(const Pattern& pattern) {
  FRACTAL_CHECK(pattern.NumEdges() >= 1) << "DFS code needs >= 1 edge";
  FRACTAL_CHECK(pattern.IsConnected()) << "DFS code needs a connected pattern";
  FRACTAL_CHECK(pattern.NumEdges() <= 64) << "pattern too large for DFS code";

  // Seed instantiations: every directed version of every edge realizing the
  // minimal first tuple (0, 1, l_u, l_uv, l_v).
  std::tuple<Label, Label, Label> best_first{};
  bool have_first = false;
  for (const PatternEdge& edge : pattern.Edges()) {
    for (const auto& [u, v] : {std::pair{edge.src, edge.dst},
                              std::pair{edge.dst, edge.src}}) {
      const std::tuple<Label, Label, Label> labels{
          pattern.VertexLabel(u), edge.label, pattern.VertexLabel(v)};
      if (!have_first || labels < best_first) {
        best_first = labels;
        have_first = true;
      }
    }
  }

  DfsCode code;
  code.edges.push_back({0, 1, std::get<0>(best_first),
                        std::get<1>(best_first), std::get<2>(best_first)});

  std::vector<Instantiation> current;
  for (const PatternEdge& edge : pattern.Edges()) {
    for (const auto& [u, v] : {std::pair{edge.src, edge.dst},
                              std::pair{edge.dst, edge.src}}) {
      const std::tuple<Label, Label, Label> labels{
          pattern.VertexLabel(u), edge.label, pattern.VertexLabel(v)};
      if (labels != best_first) continue;
      Instantiation inst;
      inst.index_to_vertex = {u, v};
      inst.vertex_to_index.assign(pattern.NumVertices(), -1);
      inst.vertex_to_index[u] = 0;
      inst.vertex_to_index[v] = 1;
      inst.used_edges = 1ull << pattern.EdgeIndex(u, v);
      inst.rightmost_path = {0, 1};
      current.push_back(std::move(inst));
    }
  }

  // Grow the code one edge at a time; at each step keep only the
  // instantiations realizing the minimal extension tuple.
  std::vector<Extension> extensions;
  while (code.edges.size() < pattern.NumEdges()) {
    bool have_min = false;
    DfsEdge min_edge;
    std::vector<Instantiation> next;
    for (const Instantiation& inst : current) {
      extensions.clear();
      CollectExtensions(pattern, inst, &extensions);
      for (const Extension& ext : extensions) {
        if (!have_min || DfsEdgeLess(ext.edge, min_edge)) {
          min_edge = ext.edge;
          have_min = true;
          next.clear();
        }
        if (ext.edge == min_edge) {
          next.push_back(Extend(pattern, inst, ext));
        }
      }
    }
    FRACTAL_CHECK(have_min) << "connected pattern must always extend";
    code.edges.push_back(min_edge);
    current = std::move(next);
  }
  return code;
}

Pattern PatternFromDfsCode(const DfsCode& code) {
  Pattern pattern;
  for (const DfsEdge& e : code.edges) {
    if (e.IsForward()) {
      while (pattern.NumVertices() <= e.i) pattern.AddVertex(e.label_i);
      FRACTAL_CHECK(pattern.NumVertices() == e.j)
          << "forward edges must discover vertices in index order";
      pattern.AddVertex(e.label_j);
    }
    pattern.AddEdge(e.i, e.j, e.label_ij);
  }
  return pattern;
}

}  // namespace fractal
