// Ablations of three design choices DESIGN.md calls out:
//   1. Quick-pattern memoized canonicalization (the Arabesque "two-phase
//      aggregation" trick the motifs/FSM key functions rely on) — disable
//      it and canonicalize every subgraph from scratch.
//   2. The KClist custom subgraph enumerator (paper Appendix B) vs the
//      generic expand+filter clique pipeline (Listing 2) — extension work
//      and runtime.
//   3. Transparent FSM graph reduction (paper §4.3) — edges mined and
//      runtime with/without, results asserted identical.
#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/motifs.h"
#include "bench/bench_util.h"
#include "pattern/canonical.h"
#include "util/alloc_guard.h"

using namespace fractal;

int main(int argc, char** argv) {
  fractal::bench::TraceSession trace_session(argc, argv);
  bench::Header("Ablations: quick-pattern cache, KClist enumerator, "
                "transparent FSM reduction",
                "DESIGN.md design-choice index");
  const ExecutionConfig config = bench::DefaultCluster();

  // --- 1. Quick-pattern memoization ---------------------------------------
  {
    Graph mico = bench::SmallMico(/*num_labels=*/4);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(mico));

    WallTimer cached_timer;
    const MotifsResult cached = CountMotifs(graph, 4, config);
    const double cached_seconds = cached_timer.ElapsedSeconds();

    // Same aggregation but the key function canonicalizes from scratch.
    WallTimer uncached_timer;
    auto uncached_result =
        graph.VFractoid()
            .Expand(4)
            .Aggregate<Pattern, uint64_t, PatternHash>(
                "motifs",
                [](const Subgraph& s, Computation& comp) {
                  AllocGuard::Allow allow(
                      "ablation: uncached canonicalization");
                  return CanonicalForm(s.QuickPattern(comp.graph())).pattern;
                },
                [](const Subgraph&, Computation&) -> uint64_t { return 1; },
                [](uint64_t& into, uint64_t&& from) { into += from; })
            .Execute(config);
    const double uncached_seconds = uncached_timer.ElapsedSeconds();
    const auto& storage =
        uncached_result.Aggregation<Pattern, uint64_t, PatternHash>("motifs");
    FRACTAL_CHECK(storage.NumEntries() == cached.counts.size());

    std::printf("\n1. quick-pattern cache (motifs k=4, %zu labeled shapes):\n",
                cached.counts.size());
    std::printf("   memoized:   %s\n", bench::Secs(cached_seconds).c_str());
    std::printf("   per-subgraph CanonicalForm: %s\n",
                bench::Secs(uncached_seconds).c_str());
    bench::Verdict(uncached_seconds > 1.5 * cached_seconds,
                   StrFormat("memoization is %.1fx faster",
                             uncached_seconds / cached_seconds));
  }

  // --- 2. KClist enumerator vs generic pipeline ---------------------------
  {
    Graph youtube = bench::CliqueRichYoutube();
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(youtube));
    const uint32_t k = 5;

    WallTimer generic_timer;
    const ExecutionResult generic =
        CliquesFractoid(graph, k).Execute(config);
    const double generic_seconds = generic_timer.ElapsedSeconds();

    WallTimer optimized_timer;
    const ExecutionResult optimized =
        OptimizedCliquesFractoid(graph, k).Execute(config);
    const double optimized_seconds = optimized_timer.ElapsedSeconds();
    FRACTAL_CHECK(generic.num_subgraphs == optimized.num_subgraphs);

    std::printf("\n2. KClist custom enumerator (%u-cliques, %llu found):\n",
                k, (unsigned long long)generic.num_subgraphs);
    std::printf("   generic expand+filter: %s, %s work units\n",
                bench::Secs(generic_seconds).c_str(),
                WithThousands(generic.telemetry.TotalWorkUnits()).c_str());
    std::printf("   KClist enumerator:     %s, %s work units\n",
                bench::Secs(optimized_seconds).c_str(),
                WithThousands(optimized.telemetry.TotalWorkUnits()).c_str());
    bench::Verdict(optimized.telemetry.TotalWorkUnits() <
                       generic.telemetry.TotalWorkUnits(),
                   StrFormat("custom enumerator does %.1fx less extension "
                             "work",
                             static_cast<double>(
                                 generic.telemetry.TotalWorkUnits()) /
                                 optimized.telemetry.TotalWorkUnits()));
  }

  // --- 3. Transparent FSM graph reduction ---------------------------------
  {
    PowerLawParams params;
    params.num_vertices = 900;
    params.edges_per_vertex = 4;
    params.num_vertex_labels = 12;
    params.label_skew = 1.2;  // spread labels: many infrequent edges
    params.seed = 0xBEEF1;
    Graph labeled = GeneratePowerLaw(params);
    FractalContext fctx;
    FractalGraph graph = fctx.FromGraph(Graph(labeled));

    FsmOptions plain;
    plain.min_support = 50;
    plain.max_edges = 3;
    FsmOptions reducing = plain;
    reducing.transparent_graph_reduction = true;

    WallTimer plain_timer;
    const FsmResult base = RunFsmWithOptions(graph, plain, config);
    const double plain_seconds = plain_timer.ElapsedSeconds();
    WallTimer reduced_timer;
    const FsmResult reduced = RunFsmWithOptions(graph, reducing, config);
    const double reduced_seconds = reduced_timer.ElapsedSeconds();
    FRACTAL_CHECK(base.frequent.size() == reduced.frequent.size());

    std::printf("\n3. transparent FSM reduction (support %u, %zu frequent "
                "patterns):\n",
                plain.min_support, base.frequent.size());
    std::printf("   full graph:    %u edges mined, %s, %s work units\n",
                base.mined_graph_edges, bench::Secs(plain_seconds).c_str(),
                WithThousands(base.total_work_units).c_str());
    std::printf("   reduced graph: %u edges mined, %s, %s work units\n",
                reduced.mined_graph_edges,
                bench::Secs(reduced_seconds).c_str(),
                WithThousands(reduced.total_work_units).c_str());
    bench::Verdict(reduced.mined_graph_edges < base.mined_graph_edges &&
                       reduced.total_work_units <= base.total_work_units,
                   StrFormat("reduction drops %.0f%% of edges with identical "
                             "results",
                             100.0 * (1.0 - static_cast<double>(
                                                reduced.mined_graph_edges) /
                                                base.mined_graph_edges)));
  }
  return 0;
}
