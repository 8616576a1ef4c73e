#include "graph/adjacency.h"

#include <algorithm>

#include "obs/metrics.h"

namespace fractal {
namespace adjacency {
namespace {

FRACTAL_HOT bool ShouldGallop(size_t smaller, size_t larger) {
  return larger >= kGallopMinLarger && larger / (smaller + 1) >= kGallopRatio;
}

FRACTAL_HOT void IntersectMerge(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) out->push_back(x);
    // Branch-light advance: both cursors move on equality.
    i += static_cast<size_t>(x <= y);
    j += static_cast<size_t>(y <= x);
  }
}

/// `small` drives; membership is probed in `large` by galloping.
FRACTAL_HOT void IntersectGallop(std::span<const uint32_t> small,
                     std::span<const uint32_t> large,
                     FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t cursor = 0;
  for (const uint32_t x : small) {
    cursor = GallopLowerBound(large, cursor, x);
    if (cursor == large.size()) return;
    if (large[cursor] == x) {
      out->push_back(x);
      ++cursor;
    }
  }
}

FRACTAL_HOT void DifferenceMerge(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x < y) {
      out->push_back(x);
      ++i;
    } else if (x == y) {
      ++i;
      ++j;
    } else {
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

/// `a` drives; each element's absence from the much larger `b` is decided
/// by a galloping probe.
FRACTAL_HOT void DifferenceGallopProbe(std::span<const uint32_t> a,
                           std::span<const uint32_t> b,
                           FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t cursor = 0;
  for (const uint32_t x : a) {
    cursor = GallopLowerBound(b, cursor, x);
    if (cursor == b.size() || b[cursor] != x) out->push_back(x);
  }
}

/// `b` is much smaller than `a`: copy the runs of `a` between consecutive
/// elements of `b`, galloping over `a` to find each run boundary.
FRACTAL_HOT void DifferenceGallopCopy(std::span<const uint32_t> a,
                          std::span<const uint32_t> b,
                          FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  size_t i = 0;
  for (const uint32_t y : b) {
    const size_t end = GallopLowerBound(a, i, y);
    out->insert(out->end(), a.begin() + i, a.begin() + end);
    i = end;
    if (i < a.size() && a[i] == y) ++i;
    if (i == a.size()) return;
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

/// Restricts a sorted span to elements > bound.
FRACTAL_HOT std::span<const uint32_t> Above(std::span<const uint32_t> s, uint32_t bound) {
  const auto it = std::upper_bound(s.begin(), s.end(), bound);
  return s.subspan(static_cast<size_t>(it - s.begin()));
}

}  // namespace

FRACTAL_HOT size_t GallopLowerBound(std::span<const uint32_t> haystack, size_t begin,
                        uint32_t needle) {
  if (begin >= haystack.size() || haystack[begin] >= needle) return begin;
  // Doubling probes: bracket the needle in (begin + step/2, begin + step].
  size_t step = 1;
  size_t low = begin;
  while (low + step < haystack.size() && haystack[low + step] < needle) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(low + step + 1, haystack.size());
  const auto it = std::lower_bound(haystack.begin() + low + 1,
                                   haystack.begin() + high, needle);
  return static_cast<size_t>(it - haystack.begin());
}

FRACTAL_HOT void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  obs::HotMetrics& metrics = obs::LocalHotMetrics();
  ++metrics.intersections;
  if (a.size() > b.size()) std::swap(a, b);
  EnsureHeadroom(out, a.size());  // output is a subset of the smaller side
  if (ShouldGallop(a.size(), b.size())) {
    ++metrics.galloped;
    IntersectGallop(a, b, out);
  } else {
    IntersectMerge(a, b, out);
  }
}

FRACTAL_HOT void IntersectAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  Intersect(Above(a, bound), Above(b, bound), out);
}

FRACTAL_HOT void Difference(std::span<const uint32_t> a, std::span<const uint32_t> b,
                FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  obs::HotMetrics& metrics = obs::LocalHotMetrics();
  ++metrics.intersections;
  EnsureHeadroom(out, a.size());  // output is a subset of a
  if (ShouldGallop(a.size(), b.size())) {
    ++metrics.galloped;
    DifferenceGallopProbe(a, b, out);
  } else if (ShouldGallop(b.size(), a.size())) {
    ++metrics.galloped;
    DifferenceGallopCopy(a, b, out);
  } else {
    DifferenceMerge(a, b, out);
  }
}

FRACTAL_HOT void DifferenceAbove(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     uint32_t bound, FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  Difference(Above(a, bound), Above(b, bound), out);
}

FRACTAL_HOT void CopyAbove(std::span<const uint32_t> a, uint32_t bound,
               FRACTAL_ARENA_OUT std::vector<uint32_t>* out) {
  const std::span<const uint32_t> tail = Above(a, bound);
  EnsureHeadroom(out, tail.size());
  out->insert(out->end(), tail.begin(), tail.end());
}

FRACTAL_HOT void Locate(std::span<const uint32_t> needles,
                        std::span<const uint32_t> haystack,
                        uint32_t* positions, size_t stride) {
  if (needles.empty()) return;
  size_t j = GallopLowerBound(haystack, 0, needles[0]);
  if (ShouldGallop(needles.size(), haystack.size() - j)) {
    for (size_t i = 0; i < needles.size(); ++i) {
      j = GallopLowerBound(haystack, j, needles[i]);
      positions[i * stride] =
          j < haystack.size() && haystack[j] == needles[i]
              ? static_cast<uint32_t>(j)
              : kNotFound;
    }
    return;
  }
  for (size_t i = 0; i < needles.size(); ++i) {
    const uint32_t x = needles[i];
    while (j < haystack.size() && haystack[j] < x) ++j;
    positions[i * stride] = j < haystack.size() && haystack[j] == x
                                ? static_cast<uint32_t>(j)
                                : kNotFound;
  }
}

}  // namespace adjacency
}  // namespace fractal
