// Frequent subgraph mining (paper §2.2, Listing 3): finds all edge-induced
// patterns whose minimum image-based (MNI) support meets a threshold. The
// MNI support of a pattern [Bringmann & Nijssen 2008] is the minimum, over
// pattern positions, of the number of distinct graph vertices appearing at
// that position across all embeddings — anti-monotonic, so frequent
// (k+1)-edge patterns can only extend frequent k-edge patterns (the
// aggregation filter of the workflow).
//
// The driver mirrors Listing 3: a bootstrap step computes frequent single
// edges; each following iteration appends filter -> expand -> aggregate to
// the fractoid and re-executes it. Thanks to cached aggregations, each
// execution only runs the newly appended fractal step (paper §4.1).
#ifndef FRACTAL_APPS_FSM_H_
#define FRACTAL_APPS_FSM_H_

#include <cstdint>
#include <vector>

#include "core/context.h"
#include "runtime/telemetry.h"
#include "pattern/canonical.h"
#include "pattern/pattern.h"
#include "util/hot_annotations.h"

namespace fractal {

/// MNI support accumulator (the paper's DomainSupport): one vertex set per
/// orbit representative of the canonical pattern, filled in place, one
/// embedding at a time (DESIGN.md §8 "MNI domains").
///
/// A set starts as a run: an append buffer whose contents are sort-uniqued
/// whenever the buffer fills, and which doubles only when the compacted run
/// still fills more than half of it. Once the compacted run would be no
/// smaller than a |V|-bit bitmap (about |V|/32 ids), the set is promoted to
/// that bitmap. Adding to a bitmap is a test-and-set and adding to a run
/// with room is a store, so AddEmbedding allocates only when a run outgrows
/// its buffer or is promoted, and when the first embedding sizes the
/// domains: one audited escape (DESIGN.md §9).
class DomainSupport {
 public:
  /// `num_vertices` bounds the vertex ids of the mined graph: the width of
  /// a promoted domain's bitmap.
  DomainSupport(uint32_t threshold, uint32_t num_vertices)
      : threshold_(threshold), num_vertices_(num_vertices) {}

  /// Records one embedding: the subgraph vertex at position i lands in the
  /// domain of the orbit representative of canonical position
  /// `canonical.permutation[i]`.
  FRACTAL_HOT void AddEmbedding(const Subgraph& subgraph,
                                const CanonicalResult& canonical);

  /// Folds `other` into this (the aggregation's reduce function): a set
  /// union per domain, so the result does not depend on merge order.
  void Merge(DomainSupport&& other);

  /// min over orbit representatives of |domain| — the MNI support.
  uint64_t Support() const;

  bool HasEnoughSupport() const { return Support() >= threshold_; }

  uint32_t threshold() const { return threshold_; }

  uint64_t ApproxBytes() const;

  /// Aggregation memory-accounting hook (core/aggregation.h HeapBytesOf):
  /// heap owned by the domains, excluding sizeof(DomainSupport) which the
  /// storage counts inline.
  uint64_t ApproxHeapBytes() const {
    return ApproxBytes() - sizeof(DomainSupport);
  }

 private:
  /// One domain: a run (`run_[0, length_)`, sorted and duplicate-free up to
  /// `sorted_`) until promoted, then a bitmap with its popcount.
  class VertexSet {
   public:
    bool empty() const { return length_ == 0 && bits_.empty(); }
    bool promoted() const { return !bits_.empty(); }

    FRACTAL_HOT void AddId(VertexId v, uint32_t num_vertices) {
      if (bits_.empty()) {
        // Embeddings arrive in DFS order, so consecutive ones often put
        // the same vertex in a domain: skip it before it costs a slot.
        if (length_ > 0 && run_[length_ - 1] == v) return;
        if (length_ == run_.size()) GrowRun(num_vertices);
        if (bits_.empty()) {
          run_[length_++] = v;
          return;
        }
      }
      SetVertexBit(v);
    }

    /// Set union; consumes `other`.
    void Merge(VertexSet&& other, uint32_t num_vertices);

    /// Distinct vertices in the set.
    uint64_t Size() const;

    uint64_t HeapBytes() const {
      return run_.capacity() * sizeof(VertexId) +
             bits_.capacity() * sizeof(uint64_t);
    }

   private:
    FRACTAL_HOT void SetVertexBit(VertexId v) {
      uint64_t& word = bits_[v >> 6];
      const uint64_t mask = uint64_t{1} << (v & 63);
      count_ += (word & mask) == 0;
      word |= mask;
    }
    /// The full-buffer branch of AddId: sort-unique, then promote or
    /// double the buffer.
    void GrowRun(uint32_t num_vertices);
    /// Sorts and de-duplicates run_[0, length_).
    void CompactRun();
    /// Moves the compacted run into a fresh bitmap if it is no smaller.
    void MaybePromote(uint32_t num_vertices);

    std::vector<VertexId> run_;  // buffer; size() is its usable capacity
    uint32_t length_ = 0;
    uint32_t sorted_ = 0;
    std::vector<uint64_t> bits_;  // non-empty once promoted
    uint64_t count_ = 0;          // popcount of bits_
  };

  /// The first embedding's branch of AddEmbedding: one domain per position.
  void SizeDomains(uint32_t num_positions);

  uint32_t threshold_ = 0;
  uint32_t num_vertices_ = 0;
  // Indexed by canonical position; only orbit representatives fill theirs.
  std::vector<VertexSet> domains_;
};

struct FsmResult {
  /// All frequent patterns with their exact MNI supports, in discovery
  /// order (by number of edges, then unspecified within a level).
  std::vector<std::pair<Pattern, uint64_t>> frequent;
  uint32_t iterations = 0;  // number of expansion rounds executed
  double seconds = 0;
  uint64_t total_work_units = 0;
  uint64_t peak_state_bytes = 0;
  /// Telemetry of every fractal step executed across all iterations.
  std::vector<StepTelemetry> step_telemetry;
  /// Edges of the graph the iterations actually mined (== the input's edge
  /// count unless transparent graph reduction shrank it).
  uint32_t mined_graph_edges = 0;
};

struct FsmOptions {
  uint32_t min_support = 1;
  /// Maximum pattern size in edges (0 = mine until nothing is frequent).
  uint32_t max_edges = 0;
  /// Transparent graph reduction (paper §4.3): after the bootstrap step,
  /// drop every edge whose single-edge pattern is infrequent and mine the
  /// remaining iterations on the reduced graph. Sound by anti-monotonicity:
  /// every embedding of a frequent pattern consists solely of edges whose
  /// own patterns are frequent, so frequent sets and supports are
  /// unchanged (asserted by tests).
  bool transparent_graph_reduction = false;
};

/// Runs FSM with MNI support >= `min_support`, mining patterns with at most
/// `max_edges` edges (0 = unbounded, runs until no pattern is frequent).
FsmResult RunFsm(const FractalGraph& graph, uint32_t min_support,
                 uint32_t max_edges, const ExecutionConfig& config = {});

/// Full-control variant (reduction etc.).
FsmResult RunFsmWithOptions(const FractalGraph& graph,
                            const FsmOptions& options,
                            const ExecutionConfig& config = {});

}  // namespace fractal

#endif  // FRACTAL_APPS_FSM_H_
