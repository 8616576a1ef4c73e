#include "core/context.h"

#include "graph/graph_io.h"

namespace fractal {

StatusOr<FractalGraph> FractalContext::AdjacencyList(
    const std::string& path) const {
  auto graph = LoadAdjacencyListFile(path);
  if (!graph.ok()) return graph.status();
  return FractalGraph(std::make_shared<const Graph>(std::move(graph).value()),
                      config_);
}

FractalGraph FractalContext::FromGraph(Graph graph) const {
  return FractalGraph(std::make_shared<const Graph>(std::move(graph)),
                      config_);
}

Fractoid FractalGraph::VFractoid() const {
  return Fractoid(graph_, std::make_shared<VertexInducedStrategy>());
}

Fractoid FractalGraph::EFractoid() const {
  return Fractoid(graph_, std::make_shared<EdgeInducedStrategy>());
}

Fractoid FractalGraph::PFractoid(Pattern pattern) const {
  return Fractoid(graph_,
                  std::make_shared<PatternInducedStrategy>(std::move(pattern)));
}

Fractoid FractalGraph::CustomFractoid(
    std::shared_ptr<const ExtensionStrategy> strategy) const {
  return Fractoid(graph_, std::move(strategy));
}

FractalGraph FractalGraph::VFilter(const VertexPredicate& keep) const {
  return Reduce(keep, nullptr);
}

FractalGraph FractalGraph::EFilter(const EdgePredicate& keep) const {
  return Reduce(nullptr, keep);
}

FractalGraph FractalGraph::Reduce(const VertexPredicate& vertex_keep,
                                  const EdgePredicate& edge_keep) const {
  return FractalGraph(std::make_shared<const Graph>(
                          ReduceGraph(*graph_, vertex_keep, edge_keep)),
                      config_);
}

}  // namespace fractal
