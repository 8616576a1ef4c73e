#include "core/fractoid.h"

#include "core/executor.h"

namespace fractal {

Fractoid::Fractoid(std::shared_ptr<const Graph> graph,
                   std::shared_ptr<const ExtensionStrategy> strategy)
    : graph_(std::move(graph)),
      strategy_(std::move(strategy)),
      state_(std::make_shared<ExecutionState>()) {
  FRACTAL_CHECK(graph_ != nullptr);
  FRACTAL_CHECK(strategy_ != nullptr);
}

Fractoid Fractoid::Expand(uint32_t depth) const {
  Fractoid derived = *this;
  for (uint32_t i = 0; i < depth; ++i) {
    Primitive primitive;
    primitive.kind = Primitive::Kind::kExpand;
    derived.primitives_.push_back(std::move(primitive));
  }
  return derived;
}

Fractoid Fractoid::Filter(LocalFilterFn filter) const {
  FRACTAL_CHECK(filter != nullptr);
  Fractoid derived = *this;
  Primitive primitive;
  primitive.kind = Primitive::Kind::kLocalFilter;
  primitive.local_filter = std::move(filter);
  derived.primitives_.push_back(std::move(primitive));
  return derived;
}

Fractoid Fractoid::FilterBySize(SizeFilterFn filter) const {
  FRACTAL_CHECK(filter != nullptr);
  Fractoid derived = *this;
  Primitive primitive;
  primitive.kind = Primitive::Kind::kLocalFilter;
  primitive.size_filter = filter;
  derived.primitives_.push_back(std::move(primitive));
  return derived;
}

Fractoid Fractoid::WithAggregationFilter(const std::string& name,
                                         AggregationFilterFn filter) const {
  Fractoid derived = *this;
  Primitive primitive;
  primitive.kind = Primitive::Kind::kAggregationFilter;
  primitive.source_name = name;
  primitive.aggregation_filter = std::move(filter);
  // Resolve the source now: the nearest preceding A primitive with the name.
  primitive.source_primitive = -1;
  for (int32_t i = static_cast<int32_t>(primitives_.size()) - 1; i >= 0; --i) {
    if (primitives_[i].kind == Primitive::Kind::kAggregate &&
        primitives_[i].aggregation->name() == name) {
      primitive.source_primitive = i;
      break;
    }
  }
  FRACTAL_CHECK(primitive.source_primitive >= 0)
      << "FilterByAggregation('" << name
      << "') has no preceding Aggregate with that name";
  derived.primitives_.push_back(std::move(primitive));
  return derived;
}

Fractoid Fractoid::WithAggregate(
    std::shared_ptr<const AggregationSpecBase> spec) const {
  Fractoid derived = *this;
  Primitive primitive;
  primitive.kind = Primitive::Kind::kAggregate;
  primitive.aggregation = std::move(spec);
  derived.primitives_.push_back(std::move(primitive));
  return derived;
}

Fractoid Fractoid::CountByPattern(
    const std::string& name,
    AggregationStorageByPattern<uint64_t>::PostFilterFn post_filter) const {
  return WithAggregate(std::make_shared<AggregationSpecByPattern<uint64_t>>(
      name, /*zero=*/0, /*add_fn=*/nullptr,
      /*count_fn=*/[](uint64_t& count, uint64_t n) { count += n; },
      /*reduce_fn=*/[](uint64_t& into, uint64_t&& from) { into += from; },
      std::move(post_filter)));
}

Fractoid Fractoid::Explore(uint32_t times) const {
  Fractoid derived = *this;
  const std::vector<Primitive> fragment = primitives_;
  for (uint32_t i = 0; i < times; ++i) {
    // Aggregation-filter sources keep their absolute indices only within
    // the original fragment; re-resolve relative offsets per copy.
    const size_t base = derived.primitives_.size();
    for (const Primitive& primitive : fragment) {
      Primitive copy = primitive;
      if (copy.kind == Primitive::Kind::kAggregationFilter) {
        copy.source_primitive += static_cast<int32_t>(base);
      }
      derived.primitives_.push_back(std::move(copy));
    }
  }
  return derived;
}

// --- Output operators (Fig. 5): compile + execute via the executor. -------

ExecutionResult Fractoid::Execute(const ExecutionConfig& config) const {
  return ExecuteFractoid(*this, config);
}

// The convenience wrappers drop ExecutionResult::status, so they CHECK it:
// callers that inject faults (and can see ResourceExhausted) must use
// Execute() and handle the status themselves.
uint64_t Fractoid::CountSubgraphs(const ExecutionConfig& config) const {
  const ExecutionResult result = ExecuteFractoid(*this, config);
  FRACTAL_CHECK(result.status.ok()) << result.status;
  return result.num_subgraphs;
}

std::vector<Subgraph> Fractoid::CollectSubgraphs(
    const ExecutionConfig& config) const {
  ExecutionConfig collecting = config;
  collecting.collect_subgraphs = true;
  ExecutionResult result = ExecuteFractoid(*this, collecting);
  FRACTAL_CHECK(result.status.ok()) << result.status;
  return std::move(result.subgraphs);
}

uint64_t Fractoid::ForEachSubgraph(
    const std::function<void(const Subgraph&)>& sink,
    const ExecutionConfig& config) const {
  FRACTAL_CHECK(sink != nullptr);
  const ExecutionResult result = ExecuteFractoidStreaming(*this, config, sink);
  FRACTAL_CHECK(result.status.ok()) << result.status;
  return result.num_subgraphs;
}

uint32_t Fractoid::NumExpansions() const {
  uint32_t count = 0;
  for (const Primitive& primitive : primitives_) {
    if (primitive.kind == Primitive::Kind::kExpand) ++count;
  }
  return count;
}

}  // namespace fractal
