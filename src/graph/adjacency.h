// Branch-light sorted-set kernels: the algebra the enumeration data plane
// is built on (DESIGN.md §8). Every adjacency list in Graph is sorted, so
// extension computation reduces to intersections and differences of sorted
// uint32 runs. Each kernel appends to `out` (never clears), preserves
// ascending order, and picks between a linear two-pointer merge and a
// galloping (exponential-probe + binary-search) scan of the larger input
// based on the size ratio — galloping wins once one side is much shorter
// than the other, which is the common case deep in the DFS where the
// candidate set has already shrunk but neighbor lists stay large.
//
// Instrumentation: every kernel call bumps "enumerate.intersections" and,
// when the galloping path is chosen, "enumerate.galloped" — one plain
// increment per *call* on the calling thread's obs::HotMetrics block,
// published to the registry in batches (obs/metrics.h).
#ifndef FRACTAL_GRAPH_ADJACENCY_H_
#define FRACTAL_GRAPH_ADJACENCY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/alloc_guard.h"
#include "util/hot_annotations.h"

namespace fractal {
namespace adjacency {

/// Ensures `out` can absorb `extra` more elements without reallocating
/// mid-kernel. Every kernel bounds its output size by its input size, so
/// with headroom secured up front the append loops are allocation-free;
/// amortized high-water-mark growth of the recycled arena buffer happens
/// here, under an AllocGuard::Allow (the runtime twin of the lint escape),
/// and grows geometrically so a stream of new marks stays O(n) total copy.
FRACTAL_HOT inline void EnsureHeadroom(
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out, size_t extra) {
  const size_t needed = out->size() + extra;
  if (out->capacity() < needed) {
    FRACTAL_HOT_ESCAPE("arena-buffer high-water-mark growth");
    AllocGuard::Allow allow("arena-buffer high-water-mark growth");
    const size_t doubled = out->capacity() * 2;
    out->reserve(needed > doubled ? needed : doubled);
  }
}

/// Size ratio (larger/smaller) above which kernels switch from the linear
/// merge to galloping, provided the larger side also clears
/// kGallopMinLarger (probing overhead only pays off on long runs).
inline constexpr size_t kGallopRatio = 8;
inline constexpr size_t kGallopMinLarger = 32;

/// First index >= begin with haystack[index] >= needle, found by doubling
/// probes from `begin` followed by a binary search of the bracketed run.
/// O(log distance) instead of O(log |haystack|) — cheap for the clustered
/// accesses the kernels make.
FRACTAL_HOT size_t GallopLowerBound(std::span<const uint32_t> haystack, size_t begin,
                        uint32_t needle);

/// Appends {x : x in a, x in b} to out, ascending.
FRACTAL_HOT void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

/// Appends {x : x in a, x in b, x > bound} to out, ascending.
FRACTAL_HOT void IntersectAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

/// Appends {x : x in a, x not in b} to out, ascending.
FRACTAL_HOT void Difference(std::span<const uint32_t> a, std::span<const uint32_t> b,
                FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

/// Appends {x : x in a, x not in b, x > bound} to out, ascending.
FRACTAL_HOT void DifferenceAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

/// Appends {x : x in a, x > bound} to out, ascending. Pure restriction —
/// not counted as a kernel invocation.
FRACTAL_HOT void CopyAbove(std::span<const uint32_t> a, uint32_t bound,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out);

/// Position Locate writes for a needle the haystack does not hold.
inline constexpr uint32_t kNotFound = UINT32_MAX;

/// Writes, for each element needles[i] of an ascending run, its index in
/// the ascending `haystack` (kNotFound when absent) to positions[i *
/// stride] — one column of a row-major table, so a single call fills one
/// word position of every candidate's edge row (DESIGN.md §8). Skips to the
/// first needle by galloping, then merges, or keeps galloping when the
/// haystack is much longer than the run (a hub's list). A lookup, not a
/// filter: not counted as a kernel invocation.
FRACTAL_HOT void Locate(std::span<const uint32_t> needles,
                        std::span<const uint32_t> haystack,
                        uint32_t* positions, size_t stride);

}  // namespace adjacency
}  // namespace fractal

#endif  // FRACTAL_GRAPH_ADJACENCY_H_
