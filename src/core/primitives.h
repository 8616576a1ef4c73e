// Primitive descriptors: the units a fractoid workflow is made of
// (paper §3: Extension E, Filtering F — local and aggregation-based — and
// Aggregation A).
#ifndef FRACTAL_CORE_PRIMITIVES_H_
#define FRACTAL_CORE_PRIMITIVES_H_

#include <functional>
#include <memory>
#include <string>

#include "core/aggregation.h"
#include "enumerate/subgraph.h"

namespace fractal {

class Computation;

/// Local filter predicate (W3): keep the subgraph iff true.
using LocalFilterFn = std::function<bool(const Subgraph&, Computation&)>;

/// Local filter on counts only (W3): keep the subgraph iff true, given
/// nothing but its vertex and edge counts. A plain function pointer, so it
/// captures no state, and a step may judge leaf candidates off their edge
/// rows without pushing them (DESIGN.md §8 "Leaf batches").
using SizeFilterFn = bool (*)(uint32_t num_vertices, uint32_t num_edges);

/// Aggregation filter predicate (W4): receives the completed upstream
/// aggregation result (type-erased; typed wrappers downcast).
using AggregationFilterFn = std::function<bool(
    const Subgraph&, Computation&, const AggregationStorageBase&)>;

struct Primitive {
  enum class Kind {
    kExpand,             // E: one extension level
    kLocalFilter,        // F (local)
    kAggregationFilter,  // F (aggregation-based) — a synchronization point
    kAggregate,          // A
  };

  Kind kind = Kind::kExpand;

  // kLocalFilter: exactly one of the two is set.
  LocalFilterFn local_filter;
  SizeFilterFn size_filter = nullptr;

  // kAggregationFilter
  std::string source_name;        // aggregation name this filter reads
  int32_t source_primitive = -1;  // resolved index of the source A primitive
  AggregationFilterFn aggregation_filter;

  // kAggregate
  std::shared_ptr<const AggregationSpecBase> aggregation;
};

}  // namespace fractal

#endif  // FRACTAL_CORE_PRIMITIVES_H_
