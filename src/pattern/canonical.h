// Canonical labeling of patterns (paper §2.1): maps every member of an
// isomorphism class to one representative, so that pattern equality becomes
// cheap value comparison. CanonicalForm() is a branch-and-bound
// minimization of the labeled adjacency-matrix code over all position
// permutations; it also returns the permutation (needed by MNI support
// counting, which must align embedding positions across subgraphs). The
// tests cross-check it against the gSpan minimum DFS code the paper adopts
// (tests/dfs_code.h): the two must induce the same equivalence classes.
// CanonicalPatternCache memoizes canonicalization by "quick pattern" (the
// pattern in subgraph addition order), the Arabesque two-phase aggregation
// trick: distinct quick patterns are few, so the expensive canonicalization
// runs once per quick pattern rather than once per subgraph. The hot lookup
// takes the subgraph's incremental QuickCode (two words, an open-addressing
// probe, no Pattern built); quick patterns without a code (more than 8
// vertices, wide labels, several edge labels) go through a Pattern-keyed
// map. Both hand out a dense per-cache id per canonical pattern, which
// pattern-keyed aggregations use as a slot index (core/aggregation.h,
// DESIGN.md §8 "Quick codes and pattern ids").
#ifndef FRACTAL_PATTERN_CANONICAL_H_
#define FRACTAL_PATTERN_CANONICAL_H_

#include <deque>
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
  /// Dense id of `pattern` in the CanonicalPatternCache that returned this
  /// result (0 from CanonicalForm).
  uint32_t id = 0;
};

/// Computes the canonical form of `pattern` by exact search. Cost grows
/// with NumVertices()! — intended for the small patterns of GPM (<= ~9
/// vertices); memoize with CanonicalPatternCache in hot paths.
CanonicalResult CanonicalForm(const Pattern& pattern);

/// True iff a and b are isomorphic (labels respected).
bool AreIsomorphic(const Pattern& a, const Pattern& b);

/// Memoizing wrapper around CanonicalForm keyed by the quick pattern.
/// A hit allocates nothing; a miss runs CanonicalForm, assigns the id and
/// inserts (growing the code table when it is half full), an audited cold
/// branch (DESIGN.md §9) counted in "pattern.canonical_misses". Returned
/// references stay valid for the cache's lifetime.
/// Not thread-safe: use one instance per execution thread.
class CanonicalPatternCache {
 public:
  /// Canonical form of the quick pattern `code` encodes with every edge
  /// labelled `edge_label` — the hot lookup. One cache must see a single
  /// `edge_label` (its Computation's graph's uniform edge label).
  FRACTAL_HOT const CanonicalResult& Canonicalize(const QuickCode& code,
                                                  Label edge_label);

  /// Canonical form of a quick pattern given as a Pattern: the path for
  /// quick patterns without a code. Ids are shared with the code path.
  FRACTAL_HOT const CanonicalResult& Canonicalize(
      const Pattern& quick_pattern);

  /// The canonical pattern of id `id` (< NumIds()).
  const Pattern& PatternOf(uint32_t id) const {
    return *patterns_by_id_[id];
  }
  uint32_t NumIds() const {
    return static_cast<uint32_t>(patterns_by_id_.size());
  }

  /// Distinct quick patterns seen (one miss each).
  size_t CacheSize() const { return results_.size(); }
  uint64_t Misses() const { return results_.size(); }

 private:
  struct CodeSlot {
    QuickCode code;
    const CanonicalResult* result = nullptr;  // null: empty slot
  };

  static size_t HashCode(const QuickCode& code) {
    uint64_t h = code.adjacency * 0x9E3779B97F4A7C15ull ^ code.labels;
    h ^= h >> 31;
    h *= 0xD6E8FEB86659FD93ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  /// The miss: canonicalizes `quick_pattern`, assigns its id, stores it.
  const CanonicalResult& Insert(const Pattern& quick_pattern);
  /// Places `result` under `code` in the code table, doubling it first
  /// when it would pass half full.
  void InsertCode(const QuickCode& code, const CanonicalResult* result);

  // Open addressing, linear probing, power-of-two size.
  std::vector<CodeSlot> code_table_;
  size_t code_entries_ = 0;
  std::unordered_map<Pattern, const CanonicalResult*, PatternHash>
      by_pattern_;
  std::deque<CanonicalResult> results_;  // one per quick pattern
  std::unordered_map<Pattern, uint32_t, PatternHash> ids_;
  std::vector<const Pattern*> patterns_by_id_;
  Label code_edge_label_ = 0;
};

}  // namespace fractal

#endif  // FRACTAL_PATTERN_CANONICAL_H_
