#include "baselines/scalemine_like.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "enumerate/extension.h"
#include "enumerate/subgraph.h"
#include "pattern/canonical.h"
#include "util/random.h"
#include "util/timer.h"

namespace fractal {
namespace baselines {
namespace {

/// Capped MNI domains: insertion stops once every populated orbit domain
/// reaches the threshold — ScaleMine's approximate support counting.
struct CappedDomains {
  uint32_t threshold = 0;
  bool enough = false;
  std::vector<std::unordered_set<VertexId>> sets;

  void Add(const Subgraph& subgraph, const CanonicalResult& canonical) {
    if (enough) return;
    const uint32_t k = subgraph.NumVertices();
    if (sets.size() < k) sets.resize(k);
    for (uint32_t i = 0; i < k; ++i) {
      sets[canonical.orbit[canonical.permutation[i]]].insert(
          subgraph.VertexAt(i));
    }
    uint64_t support = UINT64_MAX;
    bool any = false;
    for (const auto& domain : sets) {
      if (domain.empty()) continue;
      support = std::min<uint64_t>(support, domain.size());
      any = true;
    }
    if (any && support >= threshold) enough = true;
  }
};

}  // namespace

ScaleMineResult RunScaleMineFsm(const Graph& graph, uint32_t min_support,
                                uint32_t max_edges,
                                const ScaleMineOptions& options) {
  ScaleMineResult result;
  WallTimer total_timer;

  // --- Phase 1: sampled search-space estimation -------------------------
  // Random embedding walks estimate per-pattern frequency; ScaleMine uses
  // these estimates for load balancing and pruning decisions. The cost is
  // real (and fixed), which is why ScaleMine loses at high supports where
  // the actual mining work is tiny.
  {
    WallTimer phase1;
    SplitMix64 rng(options.seed);
    EdgeInducedStrategy strategy;
    ExtensionContext ctx;
    CanonicalPatternCache cache;
    std::unordered_map<Pattern, uint64_t, PatternHash> estimates;
    Subgraph subgraph;
    std::vector<uint32_t> extensions;
    for (uint32_t walk = 0; walk < options.sample_walks; ++walk) {
      subgraph.Clear();
      const uint32_t length = 1 + rng.NextBounded(max_edges);
      bool alive = true;
      for (uint32_t step = 0; step < length && alive; ++step) {
        strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, nullptr);
        if (extensions.empty()) {
          alive = false;
          break;
        }
        subgraph.PushEdgeInduced(
            graph, extensions[rng.NextBounded(extensions.size())]);
      }
      if (alive && !subgraph.Empty()) {
        ++estimates[cache.Canonicalize(subgraph.QuickPattern(graph)).pattern];
      }
    }
    result.phase1_seconds = phase1.ElapsedSeconds();
  }

  // --- Phase 2: exact frequent-pattern mining with capped supports ------
  WallTimer phase2;
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  CanonicalPatternCache cache;
  std::unordered_map<Pattern, uint64_t, PatternHash> frequent_all;
  Subgraph subgraph;

  for (uint32_t level = 1; level <= max_edges; ++level) {
    std::unordered_map<Pattern, CappedDomains, PatternHash> domains;
    std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
      if (depth > 0) {
        const CanonicalResult& canonical =
            cache.Canonicalize(subgraph.QuickPattern(graph));
        if (depth == level) {
          auto [it, inserted] = domains.try_emplace(canonical.pattern);
          if (inserted) it->second.threshold = min_support;
          it->second.Add(subgraph, canonical);
          return;
        }
        if (level > 1 && !frequent_all.count(canonical.pattern)) {
          return;  // anti-monotone pruning on the prefix pattern
        }
      }
      std::vector<uint32_t> extensions;
      strategy.ComputeExtensions(graph, subgraph, ctx, &extensions, nullptr);
      for (const uint32_t extension : extensions) {
        subgraph.PushEdgeInduced(graph, extension);
        recurse(depth + 1);
        subgraph.Pop();
      }
    };
    recurse(0);

    uint32_t frequent_this_level = 0;
    for (const auto& [pattern, capped] : domains) {
      if (capped.enough) {
        frequent_all[pattern] = min_support;  // clamped support
        ++frequent_this_level;
      }
    }
    if (frequent_this_level == 0) break;
  }
  result.phase2_seconds = phase2.ElapsedSeconds();
  result.frequent = std::move(frequent_all);
  result.seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace baselines
}  // namespace fractal
