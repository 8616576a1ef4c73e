#include "pattern/canonical.h"

#include <algorithm>

#include "obs/metrics.h"
#include "pattern/automorphism.h"
#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {
namespace {

// The code of an ordering places, for each new position d, one entry for the
// vertex label followed by d entries describing (non)adjacency + edge label
// to each earlier position. Minimizing the flat entry sequence
// lexicographically over all orderings yields a canonical form.
class Minimizer {
 public:
  explicit Minimizer(const Pattern& pattern) : pattern_(pattern) {
    n_ = pattern.NumVertices();
    used_.assign(n_, 0);
    order_.reserve(n_);
  }

  CanonicalResult Run() {
    Search();
    CanonicalResult result;
    result.permutation.assign(n_, 0);
    for (uint32_t position = 0; position < n_; ++position) {
      result.permutation[best_order_[position]] = position;
    }
    result.pattern = pattern_.Permuted(result.permutation);
    return result;
  }

 private:
  // One code entry: vertex label, or adjacency slot (0 = non-adjacent,
  // 1+edge label = adjacent).
  using Entry = uint64_t;

  void Search() {
    if (n_ == 0) {
      best_order_.clear();
      have_best_ = true;
      return;
    }
    SearchAt(0);
    FRACTAL_CHECK(have_best_);
  }

  void SearchAt(uint32_t depth) {
    if (depth == n_) {
      if (!have_best_ || current_code_ < best_code_) {
        best_code_ = current_code_;
        best_order_ = order_;
        have_best_ = true;
      }
      return;
    }
    for (uint32_t v = 0; v < n_; ++v) {
      if (used_[v]) continue;
      const size_t code_size_before = current_code_.size();
      AppendColumn(v, depth);
      // Prune: if the prefix already exceeds the best full code, no
      // completion can win.
      if (!have_best_ || !PrefixGreaterThanBest()) {
        used_[v] = 1;
        order_.push_back(v);
        SearchAt(depth + 1);
        order_.pop_back();
        used_[v] = 0;
      }
      current_code_.resize(code_size_before);
    }
  }

  void AppendColumn(uint32_t v, uint32_t depth) {
    current_code_.push_back(pattern_.VertexLabel(v));
    for (uint32_t i = 0; i < depth; ++i) {
      const uint32_t earlier = order_[i];
      if (pattern_.IsAdjacent(earlier, v)) {
        current_code_.push_back(
            1ull + pattern_.EdgeLabelBetween(earlier, v));
      } else {
        current_code_.push_back(0);
      }
    }
  }

  bool PrefixGreaterThanBest() const {
    const size_t len = current_code_.size();
    FRACTAL_DCHECK(len <= best_code_.size());
    for (size_t i = 0; i < len; ++i) {
      if (current_code_[i] != best_code_[i]) {
        return current_code_[i] > best_code_[i];
      }
    }
    return false;  // equal prefix: keep searching
  }

  const Pattern& pattern_;
  uint32_t n_ = 0;
  std::vector<uint8_t> used_;
  std::vector<uint32_t> order_;
  std::vector<Entry> current_code_;
  std::vector<Entry> best_code_;
  std::vector<uint32_t> best_order_;
  bool have_best_ = false;
};

}  // namespace

CanonicalResult CanonicalForm(const Pattern& pattern) {
  CanonicalResult result = Minimizer(pattern).Run();
  const uint32_t n = result.pattern.NumVertices();
  const auto automorphisms = Automorphisms(result.pattern);
  // Union-find by minimum: positions connected by any automorphism share an
  // orbit; iterate to a fixed point.
  result.orbit.resize(n);
  for (uint32_t p = 0; p < n; ++p) result.orbit[p] = p;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& automorphism : automorphisms) {
      for (uint32_t p = 0; p < n; ++p) {
        const uint32_t minimum =
            std::min(result.orbit[p], result.orbit[automorphism[p]]);
        if (result.orbit[p] != minimum ||
            result.orbit[automorphism[p]] != minimum) {
          result.orbit[p] = minimum;
          result.orbit[automorphism[p]] = minimum;
          changed = true;
        }
      }
    }
  }
  return result;
}

bool AreIsomorphic(const Pattern& a, const Pattern& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  return CanonicalForm(a).pattern == CanonicalForm(b).pattern;
}

FRACTAL_HOT const CanonicalResult& CanonicalPatternCache::Canonicalize(
    const QuickCode& code, Label edge_label) {
  if (!code_table_.empty()) {
    const size_t mask = code_table_.size() - 1;
    for (size_t i = HashCode(code) & mask;; i = (i + 1) & mask) {
      const CodeSlot& slot = code_table_[i];
      if (slot.result == nullptr) break;
      if (slot.code == code) return *slot.result;
    }
  }
  FRACTAL_HOT_ESCAPE("cache miss: once per distinct quick pattern per thread");
  AllocGuard::Allow allow("quick-code cache miss: CanonicalForm + insert");
  FRACTAL_DCHECK(code_entries_ == 0 || edge_label == code_edge_label_)
      << "one cache, one edge label";
  code_edge_label_ = edge_label;
  const CanonicalResult& result =
      Insert(Pattern::FromQuickCode(code, edge_label));
  InsertCode(code, &result);
  return result;
}

FRACTAL_HOT const CanonicalResult& CanonicalPatternCache::Canonicalize(
    const Pattern& quick_pattern) {
  const auto it = by_pattern_.find(quick_pattern);
  if (it != by_pattern_.end()) return *it->second;
  FRACTAL_HOT_ESCAPE("cache miss: once per distinct quick pattern per thread");
  AllocGuard::Allow allow("quick-pattern cache miss: CanonicalForm + insert");
  const CanonicalResult& result = Insert(quick_pattern);
  by_pattern_.emplace(quick_pattern, &result);
  return result;
}

const CanonicalResult& CanonicalPatternCache::Insert(
    const Pattern& quick_pattern) {
  obs::CanonicalMissesCounter().Add(1);
  CanonicalResult& result = results_.emplace_back(CanonicalForm(quick_pattern));
  const auto [it, fresh] =
      ids_.emplace(result.pattern, static_cast<uint32_t>(ids_.size()));
  result.id = it->second;
  if (fresh) patterns_by_id_.push_back(&it->first);
  return result;
}

void CanonicalPatternCache::InsertCode(const QuickCode& code,
                                       const CanonicalResult* result) {
  if (2 * (code_entries_ + 1) > code_table_.size()) {
    std::vector<CodeSlot> old = std::move(code_table_);
    code_table_.assign(old.empty() ? 16 : 2 * old.size(), CodeSlot{});
    code_entries_ = 0;
    for (const CodeSlot& slot : old) {
      if (slot.result != nullptr) InsertCode(slot.code, slot.result);
    }
  }
  const size_t mask = code_table_.size() - 1;
  size_t i = HashCode(code) & mask;
  while (code_table_[i].result != nullptr) i = (i + 1) & mask;
  code_table_[i] = CodeSlot{code, result};
  ++code_entries_;
}

}  // namespace fractal
