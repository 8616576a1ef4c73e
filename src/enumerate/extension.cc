#include "enumerate/extension.h"

#include <algorithm>
#include <optional>
#include <span>

#include "graph/adjacency.h"

namespace fractal {
namespace {

static_assert(adjacency::kNotFound == kNoEdge,
              "Locate's miss marker doubles as the edge-row sentinel");

/// Drops every element of `v` whose bit is set in the hub bitmap `row`
/// (in-place stable compaction): set difference against a high-degree
/// vertex's neighborhood at one load per element instead of a merge over
/// its (by definition long) adjacency list.
FRACTAL_HOT void FilterNotInBitmap(FRACTAL_ARENA_OUT std::vector<uint32_t>& v,
                                   const uint64_t* row) {
  size_t w = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint32_t x = v[i];
    if (((row[x >> 6] >> (x & 63)) & 1) == 0) v[w++] = x;
  }
  v.resize(w);
}

/// Keeps every element of `v` whose bit is set in `row` (in-place stable
/// compaction): intersection against a hub's neighborhood.
FRACTAL_HOT void FilterInBitmap(FRACTAL_ARENA_OUT std::vector<uint32_t>& v,
                                const uint64_t* row) {
  size_t w = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint32_t x = v[i];
    if (((row[x >> 6] >> (x & 63)) & 1) != 0) v[w++] = x;
  }
  v.resize(w);
}

/// Narrows the working set `candidates` against a hub's bitmap row, keeping
/// either the hub's neighbors (`keep_neighbors`) or everything else. A
/// working set that still views the graph's adjacency is first copied into
/// `*buffer`, which the in-place filter then compacts; returns the result.
FRACTAL_HOT std::span<const uint32_t> FilterByHub(
    std::span<const uint32_t> candidates, const uint64_t* row,
    bool keep_neighbors, FRACTAL_ARENA_OUT std::vector<uint32_t>* buffer) {
  if (candidates.data() != buffer->data()) {
    buffer->clear();
    adjacency::EnsureHeadroom(buffer, candidates.size());
    buffer->insert(buffer->end(), candidates.begin(), candidates.end());
  }
  if (keep_neighbors) {
    FilterInBitmap(*buffer, row);
  } else {
    FilterNotInBitmap(*buffer, row);
  }
  return *buffer;
}

/// Fills one column of a row-major edge-row table: column[i * stride] =
/// the id of the edge (v, run[i]), or kNoEdge when there is none. The
/// positions come from one Locate pass over v's sorted adjacency and index
/// straight into its parallel incident-edge list.
FRACTAL_HOT void FillRowColumn(const Graph& graph, VertexId v,
                               std::span<const uint32_t> run, EdgeId* column,
                               size_t stride) {
  adjacency::Locate(run, graph.Neighbors(v), column, stride);
  const auto incident = graph.IncidentEdges(v);
  for (size_t i = 0; i < run.size(); ++i) {
    EdgeId& slot = column[i * stride];
    if (slot != kNoEdge) slot = incident[slot];
  }
}

/// Appends one word-ordered edge row per candidate of `run` to `rows`.
/// Word positions before `first` get kNoEdge without a lookup: the caller
/// guarantees no candidate of the run is adjacent to them.
FRACTAL_HOT void AppendWordRows(const Graph& graph,
                                std::span<const VertexId> word, uint32_t first,
                                std::span<const uint32_t> run,
                                FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) {
  if (run.empty()) return;
  const size_t width = word.size();
  const size_t base = rows->size();
  adjacency::EnsureHeadroom(rows, run.size() * width);
  rows->resize(base + run.size() * width, kNoEdge);
  for (uint32_t q = first; q < width; ++q) {
    FillRowColumn(graph, word[q], run, rows->data() + base + q, width);
  }
}

/// The word-ordered edge row of `v`, by one adjacency search per word
/// vertex — the row shape of the vertex-word strategies.
FRACTAL_HOT void SearchWordRow(const Graph& graph,
                               std::span<const VertexId> word, VertexId v,
                               FRACTAL_ARENA_OUT std::vector<EdgeId>* row) {
  row->clear();
  adjacency::EnsureHeadroom(row, word.size());
  for (const VertexId existing : word) {
    row->push_back(graph.EdgeBetween(existing, v).value_or(kNoEdge));
  }
}

}  // namespace

// Single-pass reformulation of the Arabesque extension rule (proof sketch in
// DESIGN.md §8). The reference rule emits, at each word position p, every
// u in N(word[p]) with (a) u not in the word, (b) first attachment exactly
// p, and (c) u > word[0] and u > word[i] for all i > p. That set equals
//
//   (N(word[p]) restricted to > L_p) \ N(word[0]) \ ... \ N(word[p-1]),
//     where L_p = max(word[0], max(word[p+1..])):
//
//   * the difference passes are exactly "first attachment == p";
//   * the bound is exactly the canonicality constraint (c);
//   * containment (a) is subsumed: word[j] with j > p or j == 0 falls under
//     the bound; word[j] with 1 <= j < p is adjacent to some earlier word
//     vertex (words grow connected), so a difference pass removes it; and
//     word[p] itself is never in N(word[p]) (no self-loops).
//
// Ascending kernel outputs concatenated in position order reproduce the
// reference emission order bit-for-bit.
FRACTAL_HOT void VertexInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const {
  out->clear();
  if (rows != nullptr) rows->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  const uint32_t k = static_cast<uint32_t>(word.size());

  ScratchArena::BufferLease suffix_lease(ctx.arena);
  ScratchArena::BufferLease cur_lease(ctx.arena);
  ScratchArena::BufferLease next_lease(ctx.arena);
  // suffix[i] = max(word[i..k-1]); suffix[k] = 0 so L_p below is one max.
  std::vector<uint32_t>& suffix = *suffix_lease;
  suffix.clear();
  adjacency::EnsureHeadroom(&suffix, k + 1);
  suffix.assign(k + 1, 0);
  for (uint32_t i = k; i-- > 0;) {
    suffix[i] = std::max(word[i], suffix[i + 1]);
  }

  for (uint32_t p = 0; p < k; ++p) {
    const auto neighbors = graph.Neighbors(word[p]);
    // EC parity with the reference: one test per scanned neighbor of
    // word[p], charged in bulk.
    ctx.extension_tests += neighbors.size();
    const uint32_t bound = std::max(word[0], suffix[p + 1]);
    if (p == 0) {
      adjacency::CopyAbove(neighbors, bound, out);
      if (rows != nullptr) AppendWordRows(graph, word, 0, *out, rows);
      continue;
    }
    // Seed the working set by fusing the bound with the first difference
    // against a non-hub earlier vertex; hub vertices are subtracted by
    // bitmap filtering afterwards (order is immaterial for differences).
    std::vector<uint32_t>* cur = cur_lease.get();
    std::vector<uint32_t>* next = next_lease.get();
    cur->clear();
    bool seeded = false;
    for (uint32_t q = 0; q < p; ++q) {
      if (graph.HubRow(word[q]) != nullptr) continue;
      if (!seeded) {
        adjacency::DifferenceAbove(neighbors, graph.Neighbors(word[q]), bound,
                                   cur);
        seeded = true;
        continue;
      }
      next->clear();
      adjacency::Difference(*cur, graph.Neighbors(word[q]), next);
      std::swap(cur, next);
    }
    if (!seeded) adjacency::CopyAbove(neighbors, bound, cur);
    for (uint32_t q = 0; q < p && !cur->empty(); ++q) {
      if (const uint64_t* row = graph.HubRow(word[q])) {
        FilterNotInBitmap(*cur, row);
      }
    }
    adjacency::EnsureHeadroom(out, cur->size());
    out->insert(out->end(), cur->begin(), cur->end());
    // The run's first attachment is p: the difference chain proved it has
    // no edge to word[0..p-1].
    if (rows != nullptr) AppendWordRows(graph, word, p, *cur, rows);
  }
}

FRACTAL_HOT void VertexInducedStrategy::Apply(const Graph& graph,
                                              uint32_t extension,
                                              std::span<const EdgeId> row,
                                              Subgraph* subgraph) const {
  FRACTAL_DCHECK(row.size() == subgraph->NumVertices());
  subgraph->PushVertexWithEdges(graph, extension, row);
}

FRACTAL_HOT void VertexInducedStrategy::SearchRow(
    const Graph& graph, const Subgraph& subgraph, uint32_t extension,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const {
  SearchWordRow(graph, subgraph.Vertices(), extension, row);
}

// Same scan structure as the reference (incident-edge lists are sorted by
// *neighbor* id, not edge id, so set algebra over edge ids would permute the
// output), but every per-candidate rescan is replaced by an O(1) check:
//   * edge membership is the subgraph's bitset;
//   * "first touching word position" is two lookups in an epoch-stamped
//     vertex -> first-covering-position map built once per call;
//   * the canonical word check is one compare against a precomputed suffix
//     maximum of the edge word.
FRACTAL_HOT void EdgeInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const {
  // An edge push reads its endpoints by id: edge rows are empty.
  out->clear();
  if (rows != nullptr) rows->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    ctx.extension_tests += graph.NumEdges();
    out->reserve(graph.NumEdges());
    for (EdgeId e = 0; e < graph.NumEdges(); ++e) out->push_back(e);
    return;
  }
  const auto word = subgraph.Edges();
  const uint32_t k = static_cast<uint32_t>(word.size());

  // first_cover[v] = smallest word position whose edge touches v
  // (StampedMap::kAbsent == UINT32_MAX when v is outside the subgraph, which
  // min()s away below exactly like the reference's "no touch" sentinel).
  ScratchArena::StampedMap& first_cover = ctx.arena.vertex_map();
  first_cover.Reset(graph.NumVertices());
  for (uint32_t i = 0; i < k; ++i) {
    const EdgeEndpoints& endpoints = graph.Endpoints(word[i]);
    if (first_cover.Get(endpoints.src) == ScratchArena::StampedMap::kAbsent) {
      first_cover.Set(endpoints.src, i);
    }
    if (first_cover.Get(endpoints.dst) == ScratchArena::StampedMap::kAbsent) {
      first_cover.Set(endpoints.dst, i);
    }
  }

  // suffix[i] = max(word[i..k-1]); suffix[k] = 0, so "candidate >= every
  // later word element" collapses to one compare.
  ScratchArena::BufferLease suffix_lease(ctx.arena);
  std::vector<uint32_t>& suffix = *suffix_lease;
  suffix.clear();
  adjacency::EnsureHeadroom(&suffix, k + 1);
  suffix.assign(k + 1, 0);
  for (uint32_t i = k; i-- > 0;) {
    suffix[i] = std::max(word[i], suffix[i + 1]);
  }

  for (uint32_t position = 0; position < k; ++position) {
    const EdgeEndpoints& base = graph.Endpoints(word[position]);
    const uint32_t canonical_bound = suffix[position + 1];
    for (const VertexId endpoint : {base.src, base.dst}) {
      const auto incident = graph.IncidentEdges(endpoint);
      // EC parity with the reference: one test per scanned incident edge.
      ctx.extension_tests += incident.size();
      // Survivors of this scan are a subset of the incident list.
      adjacency::EnsureHeadroom(out, incident.size());
      for (const EdgeId candidate : incident) {
        if (candidate < word[0]) continue;
        if (subgraph.ContainsEdge(candidate)) continue;
        const EdgeEndpoints& ec = graph.Endpoints(candidate);
        // First touching position must be `position` (dedup across the two
        // endpoint scans is handled below: a candidate touching base.src is
        // also seen from base.dst only if it touches both, in which case we
        // keep the src scan occurrence).
        if (std::min(first_cover.Get(ec.src), first_cover.Get(ec.dst)) !=
            position) {
          continue;
        }
        if (endpoint == base.dst &&
            (ec.src == base.src || ec.dst == base.src)) {
          continue;  // already emitted from the src endpoint scan
        }
        // Canonical word check: candidate must exceed every word element
        // after its first touching position.
        if (candidate < canonical_bound) continue;
        out->push_back(candidate);
      }
    }
  }
}

FRACTAL_HOT void EdgeInducedStrategy::Apply(const Graph& graph,
                                            uint32_t extension,
                                            std::span<const EdgeId> /*row*/,
                                            Subgraph* subgraph) const {
  subgraph->PushEdgeInduced(graph, extension);
}

FRACTAL_HOT void EdgeInducedStrategy::SearchRow(
    const Graph& /*graph*/, const Subgraph& /*subgraph*/,
    uint32_t /*extension*/, FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const {
  row->clear();
}

PatternInducedStrategy::PatternInducedStrategy(Pattern pattern,
                                               MatchSemantics semantics)
    : pattern_(std::move(pattern)), semantics_(semantics) {
  const uint32_t n = pattern_.NumVertices();
  FRACTAL_CHECK(n >= 1);
  FRACTAL_CHECK(pattern_.IsConnected())
      << "pattern-induced extension needs a connected pattern";

  // Matching order: highest-degree position first, then greedily the
  // position with most edges into the ordered prefix (ties: lower index).
  std::vector<uint8_t> placed(n, 0);
  uint32_t start = 0;
  for (uint32_t v = 1; v < n; ++v) {
    if (pattern_.Degree(v) > pattern_.Degree(start)) start = v;
  }
  plan_order_.push_back(start);
  placed[start] = 1;
  while (plan_order_.size() < n) {
    uint32_t best = UINT32_MAX;
    uint32_t best_links = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
      uint32_t links = 0;
      for (const uint32_t u : plan_order_) {
        if (pattern_.IsAdjacent(u, v)) ++links;
      }
      if (links == 0) continue;
      if (best == UINT32_MAX || links > best_links ||
          (links == best_links && pattern_.Degree(v) > pattern_.Degree(best))) {
        best = v;
        best_links = links;
      }
    }
    FRACTAL_CHECK(best != UINT32_MAX);  // connected pattern
    plan_order_.push_back(best);
    placed[best] = 1;
  }
  plan_index_.assign(n, 0);
  for (uint32_t step = 0; step < n; ++step) {
    plan_index_[plan_order_[step]] = step;
  }

  for (const SymmetryCondition& condition :
       SymmetryBreakingConditions(pattern_)) {
    plan_conditions_.push_back(
        {plan_index_[condition.smaller], plan_index_[condition.larger]});
  }

  required_neighbors_.resize(n);
  required_steps_.assign(n, 0);
  for (uint32_t step = 1; step < n; ++step) {
    const uint32_t position = plan_order_[step];
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      const uint32_t earlier_position = plan_order_[earlier];
      if (pattern_.IsAdjacent(position, earlier_position)) {
        required_neighbors_[step].push_back(
            {earlier,
             pattern_.EdgeLabelBetween(position, earlier_position)});
        if (earlier < 64) required_steps_[step] |= uint64_t{1} << earlier;
      }
    }
    FRACTAL_CHECK(!required_neighbors_[step].empty());
  }

  induced_exclusions_.resize(n);
  if (semantics_ == MatchSemantics::kInduced) {
    for (uint32_t step = 1; step < n; ++step) {
      for (uint32_t earlier = 0; earlier < step; ++earlier) {
        if (!pattern_.IsAdjacent(plan_order_[step], plan_order_[earlier])) {
          induced_exclusions_[step].push_back(earlier);
        }
      }
    }
  }
}

// Pattern-induced extension as set algebra (proof sketch in DESIGN.md §8).
// The scan it replaces (the test oracle in tests/property_test.cc) walks
// the neighbors of the smallest-degree required neighbor (the pivot) and
// keeps u when u has the wanted label, is not yet matched, has an edge with
// the wanted label to every required neighbor, (induced) has no edge to an
// earlier step the pattern leaves unlinked, and meets every symmetry
// condition between this step and an earlier one. That set is
//
//   ext_k = (N(m[r_0]) ∩ ... ∩ N(m[r_t]), restricted to low <= u < high)
//           \ N(m[j]) for every earlier j not pattern-adjacent to k
//
// filtered by label and containment: the intersections are "adjacent to
// every required neighbor", the differences (induced only) are the induced
// check, and [low, high) is the symmetry conditions folded into one id
// range. Edge labels are checked per survivor off its edge row, and only on
// graphs with more than one edge label. Kernel outputs are ascending like
// the pivot's list, so the emission order is the scan's too.
FRACTAL_HOT void PatternInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const {
  out->clear();
  if (rows != nullptr) rows->clear();
  const uint32_t step = subgraph.NumVertices();
  if (step >= pattern_.NumVertices()) return;  // complete match

  if (step == 0) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    // No symmetry condition can involve an earlier step yet.
    const Label wanted = FirstLabel();
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v) && graph.VertexLabel(v) == wanted) {
        out->push_back(v);
      }
    }
    return;
  }

  const auto matched = subgraph.Vertices();
  const auto& required = required_neighbors_[step];

  // Seed with the smallest-degree required neighbor's list. EC parity with
  // the scan: it charged one test per pivot neighbor and never exited
  // early, so the charge is the pivot's degree, in bulk.
  uint32_t pivot = 0;
  for (uint32_t i = 1; i < required.size(); ++i) {
    if (graph.Degree(matched[required[i].step]) <
        graph.Degree(matched[required[pivot].step])) {
      pivot = i;
    }
  }
  const auto pivot_neighbors = graph.Neighbors(matched[required[pivot].step]);
  ctx.extension_tests += pivot_neighbors.size();

  // With one edge label in the graph, each required label matches it for
  // every candidate or for none.
  const std::optional<Label> uniform_label = graph.UniformEdgeLabel();
  if (uniform_label) {
    for (const RequiredNeighbor& req : required) {
      if (req.edge_label != *uniform_label) return;
    }
  }

  // Symmetry conditions against earlier steps, as the id range [low, high).
  VertexId low = 0;
  VertexId high = kInvalidVertex;
  for (const SymmetryCondition& condition : plan_conditions_) {
    if (condition.larger == step && condition.smaller < step) {
      low = std::max(low, matched[condition.smaller] + 1);
    } else if (condition.smaller == step && condition.larger < step) {
      high = std::min(high, matched[condition.larger]);
    }
  }
  if (low >= high) return;
  const auto first =
      std::lower_bound(pivot_neighbors.begin(), pivot_neighbors.end(), low);
  const auto last = std::lower_bound(first, pivot_neighbors.end(), high);
  std::span<const uint32_t> candidates = pivot_neighbors.subspan(
      static_cast<size_t>(first - pivot_neighbors.begin()),
      static_cast<size_t>(last - first));

  // Merge/gallop passes against sorted lists first, each reading
  // `candidates` and writing the spare buffer; then the hubs' bitmap
  // filters, in place.
  ScratchArena::BufferLease cur_lease(ctx.arena);
  ScratchArena::BufferLease next_lease(ctx.arena);
  std::vector<uint32_t>* cur = cur_lease.get();
  std::vector<uint32_t>* next = next_lease.get();
  for (uint32_t i = 0; i < required.size() && !candidates.empty(); ++i) {
    const VertexId neighbor = matched[required[i].step];
    if (i == pivot || graph.HubRow(neighbor) != nullptr) continue;
    next->clear();
    adjacency::Intersect(candidates, graph.Neighbors(neighbor), next);
    std::swap(cur, next);
    candidates = *cur;
  }
  const std::vector<uint32_t>& exclusions = induced_exclusions_[step];
  for (const uint32_t earlier : exclusions) {
    if (candidates.empty()) break;
    if (graph.HubRow(matched[earlier]) != nullptr) continue;
    next->clear();
    adjacency::Difference(candidates, graph.Neighbors(matched[earlier]), next);
    std::swap(cur, next);
    candidates = *cur;
  }
  for (uint32_t i = 0; i < required.size() && !candidates.empty(); ++i) {
    if (i == pivot) continue;
    if (const uint64_t* row = graph.HubRow(matched[required[i].step])) {
      candidates = FilterByHub(candidates, row, /*keep_neighbors=*/true, cur);
    }
  }
  for (const uint32_t earlier : exclusions) {
    if (candidates.empty()) break;
    if (const uint64_t* row = graph.HubRow(matched[earlier])) {
      candidates = FilterByHub(candidates, row, /*keep_neighbors=*/false, cur);
    }
  }

  const Label wanted = pattern_.VertexLabel(plan_order_[step]);
  adjacency::EnsureHeadroom(out, candidates.size());
  for (const VertexId u : candidates) {
    if (graph.VertexLabel(u) == wanted && !subgraph.ContainsVertex(u)) {
      out->push_back(u);
    }
  }
  if (out->empty()) return;
  if (rows != nullptr) {
    EmitRows(graph, matched, step, !uniform_label, out, rows);
  } else if (!uniform_label) {
    // The label check reads the rows: fill them into scratch.
    ScratchArena::BufferLease scratch_rows(ctx.arena);
    EmitRows(graph, matched, step, /*check_labels=*/true, out,
             scratch_rows.get());
  }
}

FRACTAL_HOT void PatternInducedStrategy::EmitRows(
    const Graph& graph, std::span<const VertexId> matched, uint32_t step,
    bool check_labels, FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const {
  // Every survivor is adjacent to every required neighbor: no kNoEdge.
  const auto& required = required_neighbors_[step];
  const size_t width = required.size();
  rows->clear();
  adjacency::EnsureHeadroom(rows, out->size() * width);
  rows->resize(out->size() * width);
  for (size_t i = 0; i < width; ++i) {
    FillRowColumn(graph, matched[required[i].step], *out, rows->data() + i,
                  width);
  }
  if (!check_labels) return;
  size_t kept = 0;
  for (size_t c = 0; c < out->size(); ++c) {
    const EdgeId* row = rows->data() + c * width;
    bool labels_match = true;
    for (size_t i = 0; i < width && labels_match; ++i) {
      labels_match = graph.GetEdgeLabel(row[i]) == required[i].edge_label;
    }
    if (!labels_match) continue;
    (*out)[kept] = (*out)[c];
    std::copy(row, row + width, rows->data() + kept * width);
    ++kept;
  }
  out->resize(kept);
  rows->resize(kept * width);
}

FRACTAL_HOT void PatternInducedStrategy::Apply(const Graph& graph,
                                               uint32_t extension,
                                               std::span<const EdgeId> row,
                                               Subgraph* subgraph) const {
  const uint32_t step = subgraph->NumVertices();
  FRACTAL_DCHECK(row.size() == required_neighbors_[step].size());
  subgraph->PushVertexWithEdges(graph, extension, row,
                                required_steps_[step]);
}

FRACTAL_HOT void PatternInducedStrategy::SearchRow(
    const Graph& graph, const Subgraph& subgraph, uint32_t extension,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const {
  row->clear();
  const uint32_t step = subgraph.NumVertices();
  if (step == 0) return;
  const auto& required = required_neighbors_[step];
  const auto matched = subgraph.Vertices();
  adjacency::EnsureHeadroom(row, required.size());
  for (const RequiredNeighbor& req : required) {
    const auto edge = graph.EdgeBetween(matched[req.step], extension);
    FRACTAL_DCHECK(edge.has_value());
    row->push_back(*edge);
  }
}

// Clique extension as a chain of sorted intersections: start from the
// pivot's neighbors above the last clique vertex, then intersect with each
// remaining clique vertex's neighborhood in word order (bitmap filter when
// that vertex is a hub). EC parity with the reference's early-exit probing:
// a candidate eliminated at pass i was charged one test per pass 0..i there,
// and here sits in the working set for exactly those passes — so charging
// |working set| per pass yields the same total.
FRACTAL_HOT void KClistStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* rows) const {
  out->clear();
  if (rows != nullptr) rows->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  const VertexId last = word.back();
  // Pivot on the smallest-degree clique vertex; candidates must be > last
  // (increasing order gives each clique once) and adjacent to all.
  uint32_t pivot = 0;
  for (uint32_t i = 1; i < word.size(); ++i) {
    if (graph.Degree(word[i]) < graph.Degree(word[pivot])) pivot = i;
  }
  const auto neighbors = graph.Neighbors(word[pivot]);
  if (word.size() == 1) {
    // Sole clique vertex is the pivot: every bounded neighbor survives and
    // the reference charges it a single test.
    adjacency::CopyAbove(neighbors, last, out);
    ctx.extension_tests += out->size();
    if (rows != nullptr) AppendWordRows(graph, word, 0, *out, rows);
    return;
  }
  ScratchArena::BufferLease cur_lease(ctx.arena);
  ScratchArena::BufferLease next_lease(ctx.arena);
  std::vector<uint32_t>* cur = cur_lease.get();
  std::vector<uint32_t>* next = next_lease.get();
  adjacency::CopyAbove(neighbors, last, cur);
  for (uint32_t i = 0; i < word.size() && !cur->empty(); ++i) {
    if (i == pivot) continue;
    ctx.extension_tests += cur->size();
    if (const uint64_t* row = graph.HubRow(word[i])) {
      FilterInBitmap(*cur, row);
      continue;
    }
    next->clear();
    adjacency::Intersect(*cur, graph.Neighbors(word[i]), next);
    std::swap(cur, next);
  }
  adjacency::EnsureHeadroom(out, cur->size());
  out->insert(out->end(), cur->begin(), cur->end());
  // Every candidate is adjacent to the whole clique: rows have no kNoEdge.
  if (rows != nullptr) AppendWordRows(graph, word, 0, *out, rows);
}

FRACTAL_HOT void KClistStrategy::Apply(const Graph& graph,
                                       uint32_t extension,
                                       std::span<const EdgeId> row,
                                       Subgraph* subgraph) const {
  FRACTAL_DCHECK(row.size() == subgraph->NumVertices());
  subgraph->PushVertexWithEdges(graph, extension, row);
}

FRACTAL_HOT void KClistStrategy::SearchRow(
    const Graph& graph, const Subgraph& subgraph, uint32_t extension,
    FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const {
  SearchWordRow(graph, subgraph.Vertices(), extension, row);
}

}  // namespace fractal
