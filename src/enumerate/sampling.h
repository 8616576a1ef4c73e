// Sampling extension strategy — the custom-enumerator use case the paper's
// Appendix B names explicitly ("a specific policy for generating extension
// candidates, such as sampling"). Wraps any base strategy and keeps each
// extension candidate with probability p, decided by a deterministic hash
// of (seed, subgraph content, candidate): the same candidate of the same
// prefix gets the same decision on every thread and after every steal, so
// sampled results stay deterministic and unbiased.
//
// Because canonical enumeration gives every depth-k subgraph exactly one
// generation path, a subgraph survives with probability p^k — so dividing
// sampled counts by p^k yields unbiased estimates (see apps/estimation.h).
#ifndef FRACTAL_ENUMERATE_SAMPLING_H_
#define FRACTAL_ENUMERATE_SAMPLING_H_

#include <algorithm>
#include <memory>

#include "enumerate/extension.h"

namespace fractal {

class SamplingStrategy : public ExtensionStrategy {
 public:
  SamplingStrategy(std::shared_ptr<const ExtensionStrategy> base,
                   double keep_probability, uint64_t seed)
      : base_(std::move(base)),
        keep_probability_(keep_probability),
        seed_(seed) {
    FRACTAL_CHECK(base_ != nullptr);
    FRACTAL_CHECK(keep_probability_ > 0.0 && keep_probability_ <= 1.0);
  }

  void ComputeExtensions(const Graph& graph, const Subgraph& subgraph,
                         ExtensionContext& ctx,
                         FRACTAL_ARENA_OUT std::vector<uint32_t>* out,
                         FRACTAL_ARENA_OUT std::vector<EdgeId>* rows)
      const override {
    base_->ComputeExtensions(graph, subgraph, ctx, out, rows);
    if (keep_probability_ >= 1.0) return;
    const uint64_t prefix_hash = HashSubgraph(subgraph);
    auto keep = [this, prefix_hash](uint32_t extension) {
      uint64_t h = prefix_hash ^ (0x9e3779b97f4a7c15ull * (extension + 1));
      h = Mix(h);
      return (h >> 11) * 0x1.0p-53 < keep_probability_;
    };
    // Compact candidates and their edge rows in lockstep.
    const size_t width =
        rows == nullptr || out->empty() ? 0 : rows->size() / out->size();
    size_t kept = 0;
    for (size_t i = 0; i < out->size(); ++i) {
      if (!keep((*out)[i])) continue;
      (*out)[kept] = (*out)[i];
      if (width > 0) {
        std::copy_n(rows->begin() + i * width, width,
                    rows->begin() + kept * width);
      }
      ++kept;
    }
    out->resize(kept);
    if (width > 0) rows->resize(kept * width);
  }

  void Apply(const Graph& graph, uint32_t extension,
             std::span<const EdgeId> row, Subgraph* subgraph) const override {
    base_->Apply(graph, extension, row, subgraph);
  }
  void SearchRow(const Graph& graph, const Subgraph& subgraph,
                 uint32_t extension,
                 FRACTAL_ARENA_OUT std::vector<EdgeId>* row) const override {
    base_->SearchRow(graph, subgraph, extension, row);
  }
  void Undo(const Graph& graph, Subgraph* subgraph) const override {
    base_->Undo(graph, subgraph);
  }
  uint32_t MaxDepth() const override { return base_->MaxDepth(); }
  uint32_t NumExtensionIds(const Graph& graph) const override {
    return base_->NumExtensionIds(graph);
  }
  // Candidates are dropped with their rows; the survivors' rows are the
  // base's.
  bool WordOrderedRows() const override { return base_->WordOrderedRows(); }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t HashSubgraph(const Subgraph& subgraph) const {
    uint64_t h = seed_ ^ 0xD6E8FEB86659FD93ull;
    for (const VertexId v : subgraph.Vertices()) h = Mix(h ^ v);
    for (const EdgeId e : subgraph.Edges()) h = Mix(h ^ (e + 0x51ull));
    return h;
  }

  std::shared_ptr<const ExtensionStrategy> base_;
  double keep_probability_;
  uint64_t seed_;
};

}  // namespace fractal

#endif  // FRACTAL_ENUMERATE_SAMPLING_H_
