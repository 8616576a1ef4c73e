// gSpan DFS-code canonical labeling (Yan & Han 2002), the algorithm the
// paper adopts for pattern canonicalization (§2.1): a pattern's minimum DFS
// code is a string of edge tuples that is identical for all members of an
// isomorphism class. Kept in the tests as an independent oracle for the
// library's adjacency-code canonicalization (pattern/canonical.h): the
// tests assert the two induce the same classes.
#ifndef FRACTAL_TESTS_DFS_CODE_H_
#define FRACTAL_TESTS_DFS_CODE_H_

#include <string>
#include <vector>

#include "pattern/pattern.h"

namespace fractal {

/// One DFS-code edge tuple (i, j, l_i, l_ij, l_j): i and j are discovery
/// indices; a forward edge has i < j (j is discovered by this edge), a
/// backward edge has i > j.
struct DfsEdge {
  uint32_t i = 0;
  uint32_t j = 0;
  Label label_i = 0;
  Label label_ij = 0;
  Label label_j = 0;

  bool IsForward() const { return i < j; }

  friend bool operator==(const DfsEdge&, const DfsEdge&) = default;
};

/// Strict gSpan linear order on extension tuples (≺_e in the paper):
/// backward edges sort before forward ones from the same rightmost path;
/// among backwards smaller destination first; among forwards deeper source
/// first; ties broken by (l_i, l_ij, l_j).
bool DfsEdgeLess(const DfsEdge& a, const DfsEdge& b);

/// A DFS code: an edge-tuple sequence. Comparable lexicographically under
/// DfsEdgeLess; the minimum over all DFS traversals is canonical.
struct DfsCode {
  std::vector<DfsEdge> edges;

  std::string ToString() const;

  friend bool operator==(const DfsCode&, const DfsCode&) = default;
};

/// True iff a < b in the gSpan DFS-code lexicographic order.
bool DfsCodeLess(const DfsCode& a, const DfsCode& b);

/// Computes the minimum DFS code of a connected pattern with >= 1 edge.
DfsCode MinDfsCode(const Pattern& pattern);

/// Rebuilds a pattern (in discovery-index positions) from a DFS code.
Pattern PatternFromDfsCode(const DfsCode& code);

}  // namespace fractal

#endif  // FRACTAL_TESTS_DFS_CODE_H_
