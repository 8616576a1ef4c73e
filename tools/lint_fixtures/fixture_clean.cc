// Compliant fixture for tools/fractal_lint.py --self-test: hot code written
// under the allocation discipline (DESIGN.md §9) must produce no findings.
// LINT-EXPECT-CLEAN
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/hot_annotations.h"

namespace fractal_fixture {

// Growth goes to annotated arena storage; helper calls resolve in-repo.
FRACTAL_HOT inline void KeepEvens(FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                                  const uint32_t* in, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    if ((in[i] & 1u) == 0u) out->push_back(in[i]);
  }
}

// Whitelisted std calls and a one-time `static` initializer are fine.
FRACTAL_HOT inline uint32_t ClampToLimit(uint32_t v) {
  static const uint32_t limit = 1u << 20;
  return std::min(v, limit);
}

// An audited cold branch may allocate: the escape marker covers the
// remainder of its enclosing block.
FRACTAL_HOT inline uint32_t* ColdStartGrow(uint32_t n) {
  FRACTAL_HOT_ESCAPE("one-time cold-start growth, audited by hand");
  return new uint32_t[n];
}

// Member calls resolve by the receiver's declared class: Tally::Add is the
// callee below, not the same-named, growing Recorder::Add.
class Recorder {
 public:
  void Add(uint32_t v);

 private:
  std::vector<uint32_t> values_;
};
inline void Recorder::Add(uint32_t v) { values_.push_back(v); }

class Tally {
 public:
  void Add(uint32_t v);
  uint64_t total() const { return total_; }

 private:
  uint64_t total_ = 0;
};
inline void Tally::Add(uint32_t v) { total_ += v; }

FRACTAL_HOT inline uint64_t SumAll(const uint32_t* in, uint64_t n) {
  Tally tally;
  for (uint64_t i = 0; i < n; ++i) tally.Add(in[i]);
  return tally.total();
}

// A type-erased callback member is user code: the runtime AllocGuard
// observes it, the static walk does not descend into it.
class Notifier {
 public:
  FRACTAL_HOT void Fire(uint32_t v) const { callback_(v); }

 private:
  std::function<void(uint32_t)> callback_;
};

}  // namespace fractal_fixture
