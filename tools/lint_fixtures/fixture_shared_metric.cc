// Seeded violations for tools/fractal_lint.py --self-test: writes to shared
// metrics (a relaxed RMW on a cache line every execution thread shares)
// reachable from hot roots, through a handle function and through a
// declared handle. The audited forms must stay silent: a per-steal site
// behind FRACTAL_HOT_ESCAPE, and a plain increment on a thread-owned block
// published in batches.
// LINT-EXPECT: shared-metric
#include <atomic>
#include <cstdint>

#include "util/hot_annotations.h"

namespace fractal_fixture {

// Out-of-line definitions so the checker resolves `Counter::Add` and
// `Histogram::Record` by class.
class Counter {
 public:
  void Add(uint64_t n);

 private:
  std::atomic<uint64_t> value_{0};
};
inline void Counter::Add(uint64_t n) {
  value_.fetch_add(n, std::memory_order_relaxed);
}

class Histogram {
 public:
  void Record(uint64_t v);

 private:
  std::atomic<uint64_t> sum_{0};
};
inline void Histogram::Record(uint64_t v) {
  sum_.fetch_add(v, std::memory_order_relaxed);
}

inline Counter& UnitsCounter() {
  static Counter counter;
  return counter;
}

inline Histogram& BatchHistogram() {
  static Histogram histogram;
  return histogram;
}

struct LocalBlock {
  uint64_t units = 0;
};

inline thread_local LocalBlock local_block;

FRACTAL_HOT inline void CountUnit() {
  UnitsCounter().Add(1);  // seeded: one shared RMW per work unit
}

FRACTAL_HOT inline void RecordBatch(uint64_t size) {
  Histogram& batches = BatchHistogram();
  batches.Record(size);  // seeded: one shared RMW per DFS node
}

FRACTAL_HOT inline bool ClaimOne(bool found) {
  if (found) {
    FRACTAL_HOT_ESCAPE("per-steal accounting: a successful claim");
    UnitsCounter().Add(1);  // compliant: audited per-steal site
    return true;
  }
  return false;
}

FRACTAL_HOT inline void CountUnitLocally() {
  ++local_block.units;  // compliant: thread-owned, published in batches
}

}  // namespace fractal_fixture
