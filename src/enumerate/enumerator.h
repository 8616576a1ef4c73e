// SubgraphEnumerator (paper §4.1, Fig. 7): holds an enumeration prefix (the
// subgraph under extension) plus its precomputed extension candidates and a
// consumption cursor. One enumerator lives at each DFS level of each
// execution thread and is *reused* across siblings at that level; the last
// level of a step runs as a batch without one (FractoidStepTask::LeafBatch).
//
// Work stealing (paper §4.2) is implemented directly on this structure: the
// extension cursor is atomic and consumption is thread-safe, so an idle
// thread can claim one pending extension together with a snapshot of the
// prefix — a self-contained piece of work that can also be serialized and
// shipped to another worker (external stealing).
//
// Concurrency contract:
//   * the owner thread Refill()s and Deactivate()s the enumerator and
//     consumes extensions lock-free (only the owner mutates storage);
//   * thieves TrySteal() under the mutex, which guarantees the prefix and
//     extension storage stay valid while they copy.
#ifndef FRACTAL_ENUMERATE_ENUMERATOR_H_
#define FRACTAL_ENUMERATE_ENUMERATOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "enumerate/subgraph.h"
#include "util/hot_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fractal {

class SubgraphEnumerator {
 public:
  SubgraphEnumerator() = default;

  SubgraphEnumerator(const SubgraphEnumerator&) = delete;
  SubgraphEnumerator& operator=(const SubgraphEnumerator&) = delete;

  /// Owner: installs a new prefix, extension set and the extensions' edge
  /// rows (row-major, equal width, possibly empty — see ExtensionStrategy);
  /// resets the cursor and activates the enumerator. `extensions` and
  /// `rows` are consumed (swap), so their grown storage keeps circulating
  /// between the enumerator and the DFS's arena buffers. Hot-path root:
  /// once per DFS node.
  FRACTAL_HOT void Refill(const Subgraph& prefix, uint32_t primitive_index,
                          std::vector<uint32_t>&& extensions,
                          std::vector<EdgeId>&& rows) EXCLUDES(mu_);

  /// Owner: marks the enumerator empty. Blocks until in-flight steals
  /// finish copying, after which the prefix may be invalidated.
  void Deactivate() EXCLUDES(mu_);

  /// Owner: claims the next extension and returns its index (read it with
  /// extension()/row()), or nullopt when exhausted. Lock-free: reads
  /// `extensions_` without mu_, which is sound because only the owner
  /// mutates storage (Refill/Deactivate) and the owner is the sole caller
  /// of ConsumeNext and the accessors — a contract the static analysis
  /// cannot express, hence the opt-out annotations.
  FRACTAL_HOT std::optional<uint32_t> ConsumeNext() NO_THREAD_SAFETY_ANALYSIS {
    if (!active_.load(std::memory_order_acquire)) return std::nullopt;
    const uint32_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= extensions_.size()) return std::nullopt;
    return index;
  }

  /// Owner: the extension claimed as `index` by ConsumeNext.
  uint32_t extension(uint32_t index) const NO_THREAD_SAFETY_ANALYSIS {
    return extensions_[index];
  }

  /// Owner: the edge row of the extension claimed as `index`.
  std::span<const EdgeId> row(uint32_t index) const
      NO_THREAD_SAFETY_ANALYSIS {
    return {rows_.data() + static_cast<size_t>(index) * row_width_,
            row_width_};
  }

  /// One unit of stolen work: prefix + a single claimed extension, plus the
  /// primitive index at which processing of the extended subgraph resumes.
  /// Edge rows stay behind: the thief rebuilds its one row by search
  /// (ExtensionStrategy::ApplyBySearch), so the wire format is unchanged.
  /// When a step runs with a LineageLedger (salvage retry mode), the steal
  /// path stamps the claim and carries the ledger record id here so the
  /// thief can stamp completion; 0 otherwise (runtime/lineage.h).
  struct StolenWork {
    Subgraph prefix;
    uint32_t extension = 0;
    uint32_t primitive_index = 0;
    uint64_t lineage_id = 0;
  };

  /// Thief: claims one extension and snapshots the prefix into `*out`.
  /// Returns false (leaving `*out` unspecified) when inactive or exhausted.
  /// Out-parameter form so callers can reuse one StolenWork across attempts:
  /// the prefix snapshot is then an amortized O(k) copy-assign into grown
  /// storage instead of a fresh allocation per steal. Hot-path root (the
  /// internal steal path runs it in the worker's idle loop).
  FRACTAL_HOT bool TrySteal(StolenWork* out) EXCLUDES(mu_);

  /// Racy hint for victim selection: whether unclaimed extensions remain.
  /// May be stale by the time the caller acts on it; TrySteal() revalidates
  /// under the mutex.
  FRACTAL_HOT bool LooksNonEmpty() const {
    return active_.load(std::memory_order_relaxed) &&
           cursor_.load(std::memory_order_relaxed) <
               size_hint_.load(std::memory_order_relaxed);
  }

  /// Owner-only (same contract as ConsumeNext: the owner is the only
  /// mutator, so its own unlocked read cannot race).
  uint32_t primitive_index() const NO_THREAD_SAFETY_ANALYSIS {
    return primitive_index_;
  }

 private:
  mutable Mutex mu_{"SubgraphEnumerator::mu"};
  std::atomic<uint32_t> cursor_{0};
  std::atomic<bool> active_{false};
  // extensions_.size(), readable without the lock (hint only).
  std::atomic<uint32_t> size_hint_{0};
  uint32_t primitive_index_ GUARDED_BY(mu_) = 0;
  // Recycled through Refill's swap with the DFS expansion buffers.
  FRACTAL_ARENA_OUT std::vector<uint32_t> extensions_ GUARDED_BY(mu_);
  FRACTAL_ARENA_OUT std::vector<EdgeId> rows_ GUARDED_BY(mu_);
  uint32_t row_width_ GUARDED_BY(mu_) = 0;
  Subgraph prefix_ GUARDED_BY(mu_);
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_ENUMERATOR_H_
