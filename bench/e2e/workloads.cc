// The five end-to-end workloads. Generator parameters and seeds follow
// src/graph/datasets.cc, with fewer vertices so that a 20 s run holds well
// over 100 queries; --seed renumbers the generated graph's vertices (a
// seeded random permutation) and orders the keyword query pool.
//
// Why a renumbering and not a generator seed: a power-law graph's mining
// cost swings with where its hubs land (FSM work varies 7x across
// generator seeds at this size), so per-seed generator graphs would measure
// the seed, not the code. A renumbered graph has the same structure and
// results on every seed, while everything that depends on vertex order
// changes with it: the root partition across threads and workers, stealing,
// symmetry breaking by id, adjacency layout and hub-bitmap placement.
//
// Each workload calls the public entry points a user would (Fractoid
// Execute, the apps/ kernels, ExecuteFractoidAsync) and renders its result
// canonically so every query can be compared against an oracle computed by
// an independent implementation.
#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/keyword_search.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "baselines/single_thread.h"
#include "bench/e2e/e2e.h"
#include "graph/generators.h"
#include "graph/graph_reduce.h"
#include "graph/inverted_index.h"
#include "util/random.h"
#include "util/strings.h"

namespace fractal {
namespace e2e {
namespace {

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

/// `graph` with its vertex ids permuted by `seed`; labels and keyword sets
/// travel with their vertex. Edge ids keep the generator's order: the
/// edge-induced strategy reaches a subgraph through its canonical parent by
/// edge order, and FSM prunes parents with infrequent patterns, so its work
/// (not its result) would move 8% with an edge permutation.
std::shared_ptr<const Graph> Renumber(const Graph& graph, uint64_t seed) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5EEDull);
  std::vector<VertexId> old_of(graph.NumVertices());
  std::iota(old_of.begin(), old_of.end(), VertexId{0});
  Shuffle(old_of, rng);
  std::vector<VertexId> new_of(old_of.size());
  GraphBuilder builder;
  for (VertexId v = 0; v < old_of.size(); ++v) {
    new_of[old_of[v]] = builder.AddVertex(graph.VertexLabel(old_of[v]));
    if (graph.HasKeywords()) {
      const std::span<const uint32_t> keywords =
          graph.VertexKeywords(old_of[v]);
      builder.SetVertexKeywords(v, {keywords.begin(), keywords.end()});
    }
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    const EdgeEndpoints& ends = graph.Endpoints(e);
    const EdgeId id = builder.AddEdge(new_of[ends.src], new_of[ends.dst],
                                      graph.GetEdgeLabel(e));
    if (graph.HasKeywords()) {
      const std::span<const uint32_t> keywords = graph.EdgeKeywords(e);
      builder.SetEdgeKeywords(id, {keywords.begin(), keywords.end()});
    }
  }
  return std::make_shared<const Graph>(std::move(builder).Build());
}

std::shared_ptr<const Graph> PowerLawGraph(uint32_t vertices,
                                           uint32_t edges_per_vertex,
                                           uint32_t vertex_labels,
                                           double closure,
                                           uint64_t dataset_seed,
                                           uint64_t seed) {
  PowerLawParams params;
  params.num_vertices = vertices;
  params.edges_per_vertex = edges_per_vertex;
  params.num_vertex_labels = vertex_labels;
  params.label_skew = 1.6;
  params.triangle_closure = closure;
  params.seed = dataset_seed;
  return Renumber(GeneratePowerLaw(params), seed);
}

ClusterOptions Topology(uint32_t workers, uint32_t threads) {
  ClusterOptions options;
  options.num_workers = workers;
  options.threads_per_worker = threads;
  options.internal_work_stealing = true;
  options.external_work_stealing = workers > 1;
  // bench::DefaultCluster's simulated network.
  options.network.latency_micros = 20;
  return options;
}

std::string RenderCount(uint64_t count) { return std::to_string(count); }

/// Canonical rendering of a pattern -> value map: sorted lines.
template <typename Map>
std::string RenderPatternMap(const Map& map) {
  std::vector<std::string> lines;
  lines.reserve(map.size());
  for (const auto& [pattern, value] : map) {
    lines.push_back(pattern.ToString() + " " + std::to_string(value));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void Account(ExecutionResult&& execution, QueryOutcome* out) {
  out->status = execution.status;
  out->work_units = execution.telemetry.TotalWorkUnits();
  out->extension_tests = execution.telemetry.TotalExtensionTests();
  out->peak_state_bytes = execution.peak_state_bytes;
  out->steps = std::move(execution.telemetry.steps);
}

/// Executes `fractoid` synchronously, or through the scheduler when the
/// environment has one (submit + wait, each under its own span).
ExecutionResult ExecuteIn(const Fractoid& fractoid, const QueryEnv& env) {
  if (env.scheduler == nullptr) {
    ScopedSpan span(env.spans, "execute", env.query_id, env.parent_span);
    return fractoid.Execute(env.config);
  }
  StatusOr<QueryHandle> handle = [&] {
    ScopedSpan span(env.spans, "submit", env.query_id, env.parent_span);
    return ExecuteFractoidAsync(fractoid, env.config, *env.scheduler);
  }();
  if (!handle.ok()) {
    ExecutionResult refused;
    refused.status = handle.status();
    return refused;
  }
  ScopedSpan span(env.spans, "wait", env.query_id, env.parent_span);
  return handle->Wait();
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

// --- cliques_orkut ----------------------------------------------------------
// Listing-2 triangles on a dense Orkut-like graph: set-algebra kernels and
// the vertex-induced strategy do nearly all the work, one step per query.

class CliquesOrkut : public Workload {
 public:
  const char* name() const override { return "cliques_orkut"; }

  WorkloadShape shape() const override {
    WorkloadShape shape;
    shape.cluster = Topology(1, 4);
    return shape;
  }

  void BuildInputs(uint64_t seed, SpanRecorder* spans) override {
    ScopedSpan span(spans, "build_graph");
    graph_ = PowerLawGraph(900, 24, 1, 0.5, 0x0B44, seed);
  }

  QueryOutcome RunQuery(uint64_t, const QueryEnv& env) override {
    const FractalGraph graph(graph_, env.config);
    QueryOutcome out;
    ExecutionResult execution = ExecuteIn(CliquesFractoid(graph, 3), env);
    out.result = RenderCount(execution.num_subgraphs);
    Account(std::move(execution), &out);
    return out;
  }

  std::string Oracle(uint64_t, const ExecutionConfig&) override {
    return RenderCount(baselines::TunedTriangleCount(*graph_));
  }

  double RunTunedBaseline() override {
    return TimeSeconds([&] { (void)baselines::TunedTriangleCount(*graph_); });
  }

  std::vector<Pattern> ResultPatterns() const override {
    return {Pattern::Clique(3)};
  }

 private:
  std::shared_ptr<const Graph> graph_;
};

// --- motifs_youtube ---------------------------------------------------------
// 3-vertex motifs on a sparse Youtube-like graph: short kernels, so the
// quick-pattern canonical cache and the per-thread aggregation maps merged
// at the barrier dominate.

class MotifsYoutube : public Workload {
 public:
  const char* name() const override { return "motifs_youtube"; }

  WorkloadShape shape() const override {
    WorkloadShape shape;
    shape.cluster = Topology(1, 4);
    return shape;
  }

  void BuildInputs(uint64_t seed, SpanRecorder* spans) override {
    ScopedSpan span(spans, "build_graph");
    graph_ = PowerLawGraph(4000, 6, 1, 0.45, 0xCAFE2, seed);
  }

  QueryOutcome RunQuery(uint64_t, const QueryEnv& env) override {
    const FractalGraph graph(graph_, env.config);
    QueryOutcome out;
    MotifsResult motifs = [&] {
      ScopedSpan span(env.spans, "execute", env.query_id, env.parent_span);
      return CountMotifs(graph, 3, env.config);
    }();
    out.result = RenderPatternMap(motifs.counts);
    Account(std::move(motifs.execution), &out);
    return out;
  }

  std::string Oracle(uint64_t, const ExecutionConfig&) override {
    return RenderPatternMap(baselines::TunedMotifCounts(*graph_, 3));
  }

  double RunTunedBaseline() override {
    return TimeSeconds([&] { (void)baselines::TunedMotifCounts(*graph_, 3); });
  }

  std::vector<Pattern> ResultPatterns() const override {
    return {Pattern::PathPattern(3), Pattern::Clique(3)};
  }

 private:
  std::shared_ptr<const Graph> graph_;
};

// --- fsm_mico ---------------------------------------------------------------
// Three short FSM steps per query over 2 workers: step barrier, dispatch,
// MNI DomainSupport merges, the edge-induced strategy, and the only
// workload that crosses the worker boundary (codec and message bus).

class FsmMico : public Workload {
 public:
  static constexpr uint32_t kSupport = 40;
  static constexpr uint32_t kMaxEdges = 3;

  const char* name() const override { return "fsm_mico"; }

  WorkloadShape shape() const override {
    WorkloadShape shape;
    shape.cluster = Topology(2, 2);
    return shape;
  }

  void BuildInputs(uint64_t seed, SpanRecorder* spans) override {
    ScopedSpan span(spans, "build_graph");
    graph_ = PowerLawGraph(1000, 9, 29, 0.5, 0xA11CE, seed);
  }

  QueryOutcome RunQuery(uint64_t, const QueryEnv& env) override {
    const FractalGraph graph(graph_, env.config);
    QueryOutcome out;
    FsmResult fsm = [&] {
      ScopedSpan span(env.spans, "execute", env.query_id, env.parent_span);
      return RunFsm(graph, kSupport, kMaxEdges, env.config);
    }();
    out.result = RenderPatternMap(fsm.frequent);
    out.work_units = fsm.total_work_units;
    for (const StepTelemetry& step : fsm.step_telemetry) {
      out.extension_tests += step.TotalExtensionTests();
    }
    out.peak_state_bytes = fsm.peak_state_bytes;
    out.steps = std::move(fsm.step_telemetry);
    return out;
  }

  std::string Oracle(uint64_t, const ExecutionConfig&) override {
    return RenderPatternMap(baselines::TunedFsm(*graph_, kSupport, kMaxEdges));
  }

  double RunTunedBaseline() override {
    return TimeSeconds(
        [&] { (void)baselines::TunedFsm(*graph_, kSupport, kMaxEdges); });
  }

  std::vector<Pattern> ResultPatterns() const override {
    std::vector<Pattern> patterns;
    for (const auto& [pattern, support] :
         baselines::TunedFsm(*graph_, kSupport, kMaxEdges)) {
      patterns.push_back(pattern);
    }
    return patterns;
  }

 private:
  std::shared_ptr<const Graph> graph_;
};

// --- queries_concurrent -----------------------------------------------------
// SEED q2 (square) through the pattern-induced, symmetry-broken strategy,
// three clients contending at the scheduler's admission gate.

class QueriesConcurrent : public Workload {
 public:
  const char* name() const override { return "queries_concurrent"; }

  WorkloadShape shape() const override {
    WorkloadShape shape;
    shape.cluster = Topology(1, 4);
    shape.clients = 3;
    shape.scheduler_max_active = 3;
    shape.scheduler_max_queued = 6;
    return shape;
  }

  void BuildInputs(uint64_t seed, SpanRecorder* spans) override {
    ScopedSpan span(spans, "build_graph");
    graph_ = PowerLawGraph(4000, 6, 1, 0.45, 0xCAFE2, seed);
  }

  QueryOutcome RunQuery(uint64_t, const QueryEnv& env) override {
    const FractalGraph graph(graph_, env.config);
    QueryOutcome out;
    // A fresh fractoid per submission: executions must not share cached
    // state, and the scheduler requires it to outlive the wait below.
    const Fractoid fractoid = QueryFractoid(graph, SeedQuery(2));
    ExecutionResult execution = ExecuteIn(fractoid, env);
    out.result = RenderCount(execution.num_subgraphs);
    Account(std::move(execution), &out);
    return out;
  }

  std::string Oracle(uint64_t, const ExecutionConfig&) override {
    return RenderCount(baselines::TunedQueryCount(*graph_, SeedQuery(2)));
  }

  double RunTunedBaseline() override {
    return TimeSeconds(
        [&] { (void)baselines::TunedQueryCount(*graph_, SeedQuery(2)); });
  }

  std::vector<Pattern> ResultPatterns() const override {
    return {SeedQuery(2)};
  }

 private:
  std::shared_ptr<const Graph> graph_;
};

// --- keyword_wikidata -------------------------------------------------------
// Tiny enumerations behind per-query fixed costs: reduction, index build,
// plan compile, one dispatch and one barrier. The same public calls
// RunKeywordSearch makes, composed here so each gets its own span.

class KeywordWikidata : public Workload {
 public:
  static constexpr uint32_t kPoolSize = 256;
  static constexpr uint32_t kKeywordsPerQuery = 3;
  static constexpr uint32_t kMaxKeyword = 100;  // ids in [1, kMaxKeyword)

  const char* name() const override { return "keyword_wikidata"; }

  WorkloadShape shape() const override {
    WorkloadShape shape;
    shape.cluster = Topology(1, 4);
    shape.min_queries = kPoolSize;
    return shape;
  }

  void BuildInputs(uint64_t seed, SpanRecorder* spans) override {
    {
      ScopedSpan span(spans, "build_graph");
      PowerLawParams params;
      params.num_vertices = 12000;
      params.edges_per_vertex = 1;
      params.num_vertex_labels = 64;
      params.num_edge_labels = 200;
      params.label_skew = 1.6;
      params.triangle_closure = 0.05;
      params.seed = 0xD00D3;
      graph_ = Renumber(AttachKeywords(GeneratePowerLaw(params),
                                       /*vocabulary_size=*/4000,
                                       /*min_keywords=*/1, /*max_keywords=*/4,
                                       /*skew=*/2.5, /*seed=*/0x5EED5),
                        seed);
    }
    // The pool is the same on every seed (a seeded pool's mean work swings
    // by 20% between seeds); the seed sets the order the loop visits it in.
    SplitMix64 pool_rng(0x900D);
    std::set<std::vector<uint32_t>> pool;
    while (pool.size() < kPoolSize) {
      std::set<uint32_t> keywords;
      while (keywords.size() < kKeywordsPerQuery) {
        keywords.insert(
            1 + static_cast<uint32_t>(pool_rng.NextBounded(kMaxKeyword - 1)));
      }
      pool.emplace(keywords.begin(), keywords.end());
    }
    pool_.assign(pool.begin(), pool.end());
    SplitMix64 order_rng(seed ^ 0x900Dull);
    Shuffle(pool_, order_rng);
  }

  QueryOutcome RunQuery(uint64_t index, const QueryEnv& env) override {
    QueryOutcome out;
    out.key = index % pool_.size();
    const std::vector<uint32_t>& keywords = pool_[out.key];
    std::shared_ptr<const Graph> reduced;
    {
      ScopedSpan span(env.spans, "reduce", env.query_id, env.parent_span);
      reduced = std::make_shared<const Graph>(ReduceToKeywords(*graph_, keywords));
    }
    std::shared_ptr<const InvertedIndex> index_ptr;
    {
      ScopedSpan span(env.spans, "index", env.query_id, env.parent_span);
      index_ptr = std::make_shared<const InvertedIndex>(*reduced);
    }
    const FractalGraph graph(reduced, env.config);
    ExecutionResult execution =
        ExecuteIn(KeywordSearchFractoid(graph, index_ptr, keywords), env);
    out.result = RenderCount(execution.num_subgraphs);
    Account(std::move(execution), &out);
    return out;
  }

  std::string Oracle(uint64_t key, const ExecutionConfig& config) override {
    const FractalGraph graph(graph_, config);
    return RenderCount(
        RunKeywordSearch(graph, pool_[key], /*use_graph_reduction=*/false,
                         config)
            .num_matches);
  }

  double RunTunedBaseline() override { return 0; }

  std::vector<Pattern> ResultPatterns() const override {
    return {Pattern::PathPattern(3), Pattern::PathPattern(4),
            Pattern::StarPattern(4)};
  }

 private:
  std::shared_ptr<const Graph> graph_;
  std::vector<std::vector<uint32_t>> pool_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"cliques_orkut", "motifs_youtube", "fsm_mico", "queries_concurrent",
          "keyword_wikidata"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "cliques_orkut") return std::make_unique<CliquesOrkut>();
  if (name == "motifs_youtube") return std::make_unique<MotifsYoutube>();
  if (name == "fsm_mico") return std::make_unique<FsmMico>();
  if (name == "queries_concurrent") return std::make_unique<QueriesConcurrent>();
  if (name == "keyword_wikidata") return std::make_unique<KeywordWikidata>();
  return nullptr;
}

}  // namespace e2e
}  // namespace fractal
