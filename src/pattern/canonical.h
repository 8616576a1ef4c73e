// Canonical labeling of patterns (paper §2.1): maps every member of an
// isomorphism class to one representative, so that pattern equality becomes
// cheap value comparison. Two providers are implemented:
//   * CanonicalForm(): branch-and-bound minimization of the labeled
//     adjacency-matrix code over all position permutations — the reference
//     implementation, also returns the permutation (needed by MNI support
//     counting, which must align embedding positions across subgraphs).
//   * MinDfsCode() (dfs_code.h): the gSpan DFS-code canonicalization the
//     paper adopts. The two providers are cross-checked in tests: they must
//     induce the same equivalence classes.
// CanonicalPatternCache memoizes canonicalization by "quick pattern" (the
// pattern in subgraph addition order), the Arabesque two-phase aggregation
// trick: distinct quick patterns are few, so the expensive canonicalization
// runs once per quick pattern rather than once per subgraph.
#ifndef FRACTAL_PATTERN_CANONICAL_H_
#define FRACTAL_PATTERN_CANONICAL_H_

#include <unordered_map>
#include <vector>

#include "pattern/pattern.h"

namespace fractal {

struct CanonicalResult {
  /// The class representative.
  Pattern pattern;
  /// perm[i] = canonical position of input position i
  /// (pattern == input.Permuted(perm)).
  std::vector<uint32_t> permutation;
  /// orbit[p] = smallest canonical position in p's automorphism orbit.
  /// Needed by MNI support counting: an embedding vertex belongs to the
  /// domain of every position its canonical position is automorphic to.
  std::vector<uint32_t> orbit;
};

/// Computes the canonical form of `pattern` by exact search. Cost grows
/// with NumVertices()! — intended for the small patterns of GPM (<= ~9
/// vertices); memoize with CanonicalPatternCache in hot paths.
CanonicalResult CanonicalForm(const Pattern& pattern);

/// True iff a and b are isomorphic (labels respected).
bool AreIsomorphic(const Pattern& a, const Pattern& b);

/// Memoizing wrapper around CanonicalForm keyed by the quick pattern.
/// A hit allocates nothing (inline Pattern keys); a miss runs CanonicalForm
/// and inserts, an audited cold branch (DESIGN.md §9).
/// Not thread-safe: use one instance per execution thread.
class CanonicalPatternCache {
 public:
  FRACTAL_HOT const CanonicalResult& Canonicalize(
      const Pattern& quick_pattern);

  size_t CacheSize() const { return cache_.size(); }
  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }

 private:
  std::unordered_map<Pattern, CanonicalResult, PatternHash> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace fractal

#endif  // FRACTAL_PATTERN_CANONICAL_H_
