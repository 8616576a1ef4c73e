#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "apps/queries.h"
#include "core/context.h"
#include "enumerate/extension.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "runtime/cluster.h"
#include "runtime/codec.h"
#include "runtime/lineage.h"
#include "runtime/message_bus.h"
#include "runtime/telemetry.h"
#include "runtime/worker.h"
#include "util/alloc_guard.h"

namespace fractal {
namespace {

TEST(CodecTest, SubgraphRoundTrip) {
  const Graph g = testgraphs::PaperFigure1();
  Subgraph s;
  s.PushVertexInduced(g, 0);
  s.PushVertexInduced(g, 1);
  s.PushVertexInduced(g, 4);

  ByteWriter writer;
  SubgraphCodec::EncodeSubgraph(s, &writer);
  ByteReader reader(writer.bytes());
  Subgraph decoded;
  ASSERT_TRUE(SubgraphCodec::DecodeSubgraph(&reader, &decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded, s);
  EXPECT_EQ(decoded.Depth(), s.Depth());

  // Pop works on the decoded subgraph (records survived).
  decoded.Pop();
  EXPECT_EQ(decoded.NumVertices(), 2u);
}

TEST(CodecTest, EmptySubgraphRoundTrip) {
  Subgraph s;
  ByteWriter writer;
  SubgraphCodec::EncodeSubgraph(s, &writer);
  ByteReader reader(writer.bytes());
  Subgraph decoded;
  ASSERT_TRUE(SubgraphCodec::DecodeSubgraph(&reader, &decoded));
  EXPECT_TRUE(decoded.Empty());
}

TEST(CodecTest, StolenWorkRoundTrip) {
  const Graph g = testgraphs::Complete(5);
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(g, 1);
  work.prefix.PushVertexInduced(g, 3);
  work.extension = 4;
  work.primitive_index = 2;
  // Lineage ids are 64-bit task indices; use a value past 2^32 to cover
  // both encoded halves.
  work.lineage_id = (uint64_t{7} << 32) | 12345u;

  const std::vector<uint8_t> bytes = SubgraphCodec::EncodeStolenWork(work);
  SubgraphEnumerator::StolenWork decoded;
  ASSERT_TRUE(SubgraphCodec::DecodeStolenWork(bytes, nullptr, &decoded));
  EXPECT_EQ(decoded.prefix, work.prefix);
  EXPECT_EQ(decoded.extension, 4u);
  EXPECT_EQ(decoded.primitive_index, 2u);
  EXPECT_EQ(decoded.lineage_id, (uint64_t{7} << 32) | 12345u);
}

// Edge rows never cross the wire: StolenWork's encoding is the same bytes
// it was before extensions carried rows. Pinned byte for byte, so a change
// to the format (and to runtime.bytes_shipped per steal) fails here.
TEST(CodecTest, StolenWorkWireFormatIsPinned) {
  const Graph g = testgraphs::Complete(5);
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(g, 1);
  work.prefix.PushVertexInduced(g, 3);
  work.extension = 4;
  work.primitive_index = 2;
  work.lineage_id = 9;
  const std::vector<uint8_t> expected = {
      2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0,  // vertex word {1, 3}
      1, 0, 0, 0, 5, 0, 0, 0,              // edge word {5}
      2, 0, 0, 0, 1, 0, 1, 1,              // push records
      4, 0, 0, 0,                          // extension
      2, 0, 0, 0,                          // primitive index
      9, 0, 0, 0, 0, 0, 0, 0};             // lineage id
  EXPECT_EQ(SubgraphCodec::EncodeStolenWork(work), expected);
}

// The owner pushes a consumed extension with the edge row ComputeExtensions
// emitted. Stolen work carries no rows, so every thief rebuilds the row by
// search (ExtensionStrategy::ApplyBySearch): after an internal steal, after
// an external steal shipped through SubgraphCodec, and when a salvage pass
// replays a lineage descriptor. All must build the owner's edge word. Walks
// the strategy's DFS to `depth` pushes, alternately stealing and consuming from
// each node's enumerator; stolen interior work is stamped into a ledger as
// claimed by worker 1, whose crash then makes it the replay set.
void CheckThiefPushesMatchOwner(const Graph& g,
                                const ExtensionStrategy& strategy,
                                uint32_t depth) {
  using Key = std::pair<std::vector<VertexId>, uint32_t>;
  auto key = [](const Subgraph& prefix, uint32_t extension) {
    return Key({prefix.Vertices().begin(), prefix.Vertices().end()},
               extension);
  };
  auto edges = [](const Subgraph& s) {
    return std::vector<EdgeId>(s.Edges().begin(), s.Edges().end());
  };
  ExtensionContext ctx;
  std::vector<uint32_t> roots;
  strategy.ComputeExtensions(g, Subgraph(), ctx, &roots, nullptr);
  LineageLedger ledger;
  ledger.BeginAttempt(roots, /*live_mask=*/0b11, /*threads_per_worker=*/1);
  std::map<Key, std::vector<EdgeId>> claimed;  // owner edge word per claim
  uint64_t steals = 0;

  Subgraph subgraph;
  std::function<void()> walk = [&] {
    if (subgraph.Depth() == depth) return;
    std::vector<uint32_t> extensions;
    std::vector<EdgeId> rows;
    strategy.ComputeExtensions(g, subgraph, ctx, &extensions, &rows);
    const size_t width =
        extensions.empty() ? 0 : rows.size() / extensions.size();
    SubgraphEnumerator frame;
    frame.Refill(subgraph, 1, std::vector<uint32_t>(extensions),
                 std::vector<EdgeId>(rows));
    for (bool steal = true;; steal = !steal) {
      if (!steal) {
        const auto index = frame.ConsumeNext();
        if (!index) break;
        strategy.Apply(g, frame.extension(*index), frame.row(*index),
                       &subgraph);
        walk();
        strategy.Undo(g, &subgraph);
        if (::testing::Test::HasFatalFailure()) return;
        continue;
      }
      SubgraphEnumerator::StolenWork work;
      if (!frame.TrySteal(&work)) break;
      ++steals;
      const size_t i = static_cast<size_t>(
          std::find(extensions.begin(), extensions.end(), work.extension) -
          extensions.begin());
      ASSERT_LT(i, extensions.size());
      Subgraph owner = subgraph;
      strategy.Apply(g, work.extension,
                     std::span<const EdgeId>(rows.data() + i * width, width),
                     &owner);

      Subgraph internal = work.prefix;
      strategy.ApplyBySearch(g, work.extension, &internal, ctx.arena);
      ASSERT_EQ(edges(internal), edges(owner)) << owner.ToString();

      SubgraphEnumerator::StolenWork shipped;
      ASSERT_TRUE(SubgraphCodec::DecodeStolenWork(
          SubgraphCodec::EncodeStolenWork(work), nullptr, &shipped));
      Subgraph external = shipped.prefix;
      strategy.ApplyBySearch(g, shipped.extension, &external, ctx.arena);
      ASSERT_EQ(edges(external), edges(owner)) << owner.ToString();

      if (!work.prefix.Empty()) {
        ledger.StampClaim(/*victim_worker=*/0, /*thief_worker=*/1, &work);
        claimed[key(work.prefix, work.extension)] = edges(owner);
      }
    }
    frame.Deactivate();
  };
  walk();
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(claimed.size(), 0u);

  // Worker 1 crashes before completing anything: its claims are replayed.
  const uint32_t replays = ledger.PrepareSalvage(
      /*crashed_worker=*/1, /*new_live_mask=*/0b01, /*threads_per_worker=*/1);
  size_t replayed = 0;
  for (uint32_t r = 0; r < replays; ++r) {
    const SubgraphEnumerator::StolenWork& work = ledger.replay_root(r);
    if (work.prefix.Empty()) continue;  // a root owned by worker 1
    Subgraph replay = work.prefix;
    strategy.ApplyBySearch(g, work.extension, &replay, ctx.arena);
    const auto it = claimed.find(key(work.prefix, work.extension));
    ASSERT_NE(it, claimed.end());
    EXPECT_EQ(edges(replay), it->second) << replay.ToString();
    ++replayed;
  }
  EXPECT_EQ(replayed, claimed.size());
  EXPECT_GT(steals, claimed.size());  // root-level steals were checked too
}

TEST(StealPathTest, ThiefSearchPushMatchesOwnerRowPush) {
  // Two edge labels: the pattern strategy's rows also carry its label
  // check.
  const Graph g = GenerateRandomGraph(28, 140, 1, 2, /*seed=*/41);
  Pattern diamond;
  for (int i = 0; i < 4; ++i) diamond.AddVertex(0);
  diamond.AddEdge(0, 1, 0);
  diamond.AddEdge(1, 2, 1);
  diamond.AddEdge(2, 3, 0);
  diamond.AddEdge(3, 0, 1);
  diamond.AddEdge(0, 2, 1);
  {
    SCOPED_TRACE("vertex-induced");
    CheckThiefPushesMatchOwner(g, VertexInducedStrategy{}, 3);
  }
  {
    SCOPED_TRACE("kclist");
    CheckThiefPushesMatchOwner(g, KClistStrategy{}, 3);
  }
  {
    SCOPED_TRACE("edge-induced");
    CheckThiefPushesMatchOwner(g, EdgeInducedStrategy{}, 2);
  }
  for (const auto& [name, pattern] :
       {std::pair{"q2", SeedQuery(2)}, std::pair{"diamond", diamond}}) {
    for (const MatchSemantics semantics :
         {MatchSemantics::kSubgraph, MatchSemantics::kInduced}) {
      SCOPED_TRACE(std::string(name) +
                   (semantics == MatchSemantics::kInduced ? " induced" : ""));
      CheckThiefPushesMatchOwner(
          g, PatternInducedStrategy(pattern, semantics), 3);
    }
  }
}

TEST(CodecTest, RejectsCorruptedPayloads) {
  const Graph g = testgraphs::Complete(4);
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(g, 0);
  work.extension = 1;
  work.primitive_index = 1;
  std::vector<uint8_t> bytes = SubgraphCodec::EncodeStolenWork(work);

  SubgraphEnumerator::StolenWork decoded;
  // Truncated payload.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(
      SubgraphCodec::DecodeStolenWork(truncated, nullptr, &decoded));
  // Trailing garbage.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(SubgraphCodec::DecodeStolenWork(padded, nullptr, &decoded));
  // Inconsistent structure: claim 2 vertices but records say 1.
  std::vector<uint8_t> inconsistent = bytes;
  inconsistent[0] = 2;
  EXPECT_FALSE(
      SubgraphCodec::DecodeStolenWork(inconsistent, nullptr, &decoded));
}

TEST(CodecTest, RejectsOversizedCountBeforeAllocating) {
  // A 12-byte steal payload claiming 2^20 vertices: decoding used to size
  // the vertex words (4 MB) before noticing the payload cannot hold them.
  ByteWriter writer;
  writer.PutU32(1u << 20);
  writer.PutU32(0);
  writer.PutU32(0);
  const std::vector<uint8_t> bytes = writer.bytes();
  SubgraphEnumerator::StolenWork decoded;
  bool ok = true;
  uint64_t allocations = 0;
  {
    AllocGuard guard(AllocGuard::Mode::kCount);
    ok = SubgraphCodec::DecodeStolenWork(bytes, nullptr, &decoded);
    allocations = guard.allocations();
  }
  EXPECT_FALSE(ok);
  if (AllocGuard::Active()) {
    EXPECT_EQ(allocations, 0u);
  }
  EXPECT_EQ(decoded.prefix.NumVertices(), 0u);
}

// A payload whose ids fall outside the step's graph or plan is rejected
// before the prefix bitsets are rebuilt (a vertex id of 0xFFFFFFFF would
// grow them by 512 MB) and before anything searches adjacency by it. The
// rejection allocates nothing, and the same StolenWork then decodes a good
// payload exactly.
TEST(CodecTest, RejectsIdsOutsideTheStepBounds) {
  const Graph g = testgraphs::Complete(5);
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(g, 1);
  work.prefix.PushVertexInduced(g, 3);
  work.extension = 4;
  work.primitive_index = 3;  // after the third E of an E-E-E plan
  work.lineage_id = 9;
  const std::vector<uint8_t> good = SubgraphCodec::EncodeStolenWork(work);
  const uint32_t expansions_before[] = {0, 1, 2, 3};
  StolenWorkBounds bounds;
  bounds.num_vertices = g.NumVertices();
  bounds.num_edges = g.NumEdges();
  bounds.num_extensions = g.NumVertices();
  bounds.expansions_before = expansions_before;
  bounds.num_replay_roots = 2;

  // Byte offsets from the pinned wire format above.
  auto with = [&good](size_t offset, uint32_t value) {
    std::vector<uint8_t> bytes = good;
    for (int shift = 0; shift < 32; shift += 8) {
      bytes[offset++] = static_cast<uint8_t>(value >> shift);
    }
    return bytes;
  };
  const std::vector<std::vector<uint8_t>> crafted = {
      with(4, 0xFFFFFFFFu),           // vertex id
      with(8, g.NumVertices()),       // vertex id, one past the end
      with(16, g.NumEdges()),         // edge id
      with(28, g.NumVertices()),      // extension
      with(32, 4),                    // primitive index past the plan
      with(32, 2),                    // primitive index of a shallower frame
      with(32, kReplayRootPrimitive)  // replay root with a prefix
  };
  SubgraphEnumerator::StolenWork decoded;
  ASSERT_TRUE(SubgraphCodec::DecodeStolenWork(good, &bounds, &decoded));
  for (size_t i = 0; i < crafted.size(); ++i) {
    bool ok = true;
    uint64_t allocations = 0;
    {
      AllocGuard guard(AllocGuard::Mode::kCount);
      ok = SubgraphCodec::DecodeStolenWork(crafted[i], &bounds, &decoded);
      allocations = guard.allocations();
    }
    EXPECT_FALSE(ok) << "payload " << i;
    if (AllocGuard::Active()) {
      EXPECT_EQ(allocations, 0u) << "payload " << i;
    }
    EXPECT_TRUE(decoded.prefix.Empty()) << "payload " << i;
    // Untrusted or not, the words are well formed: without bounds they
    // decode.
    if (i > 0) {
      SubgraphEnumerator::StolenWork unchecked;
      EXPECT_TRUE(
          SubgraphCodec::DecodeStolenWork(crafted[i], nullptr, &unchecked));
    }
  }
  ASSERT_TRUE(SubgraphCodec::DecodeStolenWork(good, &bounds, &decoded));
  EXPECT_EQ(decoded.prefix, work.prefix);
  EXPECT_EQ(decoded.extension, work.extension);
  EXPECT_EQ(decoded.primitive_index, work.primitive_index);

  // Replay roots: an empty prefix naming a replay index of this pass.
  SubgraphEnumerator::StolenWork replay;
  replay.primitive_index = kReplayRootPrimitive;
  replay.extension = 1;
  EXPECT_TRUE(SubgraphCodec::DecodeStolenWork(
      SubgraphCodec::EncodeStolenWork(replay), &bounds, &decoded));
  replay.extension = 2;
  EXPECT_FALSE(SubgraphCodec::DecodeStolenWork(
      SubgraphCodec::EncodeStolenWork(replay), &bounds, &decoded));
}

/// Worker 0's only frame holds extensions outside the step's bounds, which
/// its steal service ships to worker 1 like any claim. Every root is
/// ordinary work drained by its owner.
class HostileFrameTask : public StepTask {
 public:
  static constexpr uint32_t kBound = 16;
  static constexpr uint32_t kHostile = 6;

  void DrainRoots(ThreadContext& t, std::vector<uint32_t> roots) override {
    SubgraphEnumerator& frame = *t.frames[0];
    if (t.worker_id == 0) {
      std::vector<uint32_t> hostile;
      for (uint32_t i = 0; i < kHostile; ++i) hostile.push_back(kBound + i);
      frame.Refill(Subgraph(), /*primitive_index=*/1, std::move(hostile), {});
    }
    for (const uint32_t root : roots) {
      if (root >= kBound || !t.ConsumeWorkUnit()) return;
      drained_.fetch_add(1, std::memory_order_relaxed);
    }
    if (t.worker_id == 0) {
      // Hold the step open until the thief has claimed every hostile entry.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (frame.LooksNonEmpty() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      frame.Deactivate();
    }
  }
  void ProcessStolen(ThreadContext&,
                     const SubgraphEnumerator::StolenWork&) override {
    stolen_.fetch_add(1, std::memory_order_relaxed);
  }
  void FinishThread(ThreadContext&) override {}
  StolenWorkBounds StealBounds() const override {
    StolenWorkBounds bounds;
    bounds.num_vertices = kBound;
    bounds.num_edges = kBound;
    bounds.num_extensions = kBound;
    bounds.expansions_before = expansions_before_;
    return bounds;
  }

  uint64_t drained() const { return drained_.load(); }
  uint64_t stolen() const { return stolen_.load(); }

 private:
  const uint32_t expansions_before_[2] = {0, 1};
  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> stolen_{0};
};

TEST(ExternalStealTest, RejectedPayloadsLoseNoWork) {
  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.external_work_stealing = true;
  options.network.latency_micros = 0;
  options.network.per_kb_micros = 0;
  Cluster cluster(options);
  HostileFrameTask task;
  std::vector<uint32_t> roots;
  for (uint32_t r = 0; r < HostileFrameTask::kBound; ++r) roots.push_back(r);

  const uint64_t rejected_before = obs::PayloadsRejectedCounter().Value();
  Cluster::StepOptions step;
  step.num_levels = 1;
  const Cluster::StepResult result = cluster.RunStep(task, roots, step);
  ASSERT_TRUE(result.ok());
  // Every hostile entry was shipped and rejected: none was executed.
  EXPECT_EQ(obs::PayloadsRejectedCounter().Value() - rejected_before,
            HostileFrameTask::kHostile);
  EXPECT_EQ(task.stolen(), 0u);
  EXPECT_EQ(result.telemetry.TotalExternalSteals(), 0u);
  // Every root ran exactly once.
  EXPECT_EQ(task.drained(), HostileFrameTask::kBound);
  EXPECT_EQ(result.telemetry.TotalWorkUnits(), HostileFrameTask::kBound);
}

TEST(MessageBusTest, RequestReplyRoundTrip) {
  NetworkConfig network;
  network.latency_micros = 0;
  MessageBus bus(2, network);

  std::thread service([&bus] {
    auto token = bus.WaitForRequest(1);
    ASSERT_TRUE(token.has_value());
    bus.Reply(*token, std::vector<uint8_t>{1, 2, 3});
    // Next request gets "no work".
    token = bus.WaitForRequest(1);
    ASSERT_TRUE(token.has_value());
    bus.Reply(*token, std::nullopt);
    // Shutdown unblocks the final wait.
    EXPECT_FALSE(bus.WaitForRequest(1).has_value());
  });

  StealReply reply = bus.RequestSteal(0, 1);
  ASSERT_EQ(reply.outcome, StealOutcome::kWork);
  EXPECT_EQ(reply.payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kNoWork);
  bus.Shutdown();
  EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kShutdown);
  service.join();
}

TEST(MessageBusTest, ShutdownFailsFast) {
  MessageBus bus(2, NetworkConfig{.latency_micros = 0});
  bus.Shutdown();
  EXPECT_EQ(bus.RequestSteal(0, 1).outcome, StealOutcome::kShutdown);
  EXPECT_FALSE(bus.WaitForRequest(0).has_value());
}

TEST(MessageBusTest, ManyConcurrentRequesters) {
  MessageBus bus(3, NetworkConfig{.latency_micros = 0});
  std::atomic<int> served{0};
  std::thread service([&bus, &served] {
    while (auto token = bus.WaitForRequest(0)) {
      bus.Reply(*token, std::vector<uint8_t>{42});
      ++served;
    }
  });
  std::vector<std::thread> requesters;
  for (int i = 0; i < 8; ++i) {
    requesters.emplace_back([&bus, i] {
      for (int j = 0; j < 20; ++j) {
        const StealReply reply = bus.RequestSteal(1 + (i % 2), 0);
        ASSERT_EQ(reply.outcome, StealOutcome::kWork);
      }
    });
  }
  for (auto& t : requesters) t.join();
  bus.Shutdown();
  service.join();
  EXPECT_EQ(served.load(), 160);
}

TEST(ClusterTest, ValidateRejectsBadOptions) {
  ClusterOptions zero_workers;
  zero_workers.num_workers = 0;
  EXPECT_FALSE(Cluster::Validate(zero_workers).ok());

  ClusterOptions zero_threads;
  zero_threads.threads_per_worker = 0;
  EXPECT_FALSE(Cluster::Validate(zero_threads).ok());

  ClusterOptions lone_external;
  lone_external.num_workers = 1;
  lone_external.external_work_stealing = true;
  EXPECT_FALSE(Cluster::Validate(lone_external).ok());
  EXPECT_FALSE(Cluster::Create(lone_external).ok());

  ClusterOptions good;
  good.num_workers = 2;
  good.threads_per_worker = 2;
  good.external_work_stealing = true;
  EXPECT_TRUE(Cluster::Validate(good).ok());
  auto cluster = Cluster::Create(good);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->TotalThreads(), 4u);
}

TEST(ClusterTest, ReuseAcrossExecutionsMatchesFreshClusters) {
  const Graph g = GenerateRandomGraph(14, 40, 1, 1, 1234);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));

  ExecutionConfig fresh;
  fresh.num_workers = 2;
  fresh.threads_per_worker = 2;
  fresh.network.latency_micros = 1;
  const uint64_t expected_v = graph.VFractoid().Expand(3).CountSubgraphs(fresh);
  const uint64_t expected_e = graph.EFractoid().Expand(2).CountSubgraphs(fresh);

  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  options.external_work_stealing = true;
  options.network.latency_micros = 1;
  Cluster cluster(options);

  // Two different fractoid executions share the same parked threads; the
  // counts must match the fresh-cluster-per-execution runs exactly.
  ExecutionConfig shared = fresh;
  shared.cluster = &cluster;
  EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(shared), expected_v);
  EXPECT_EQ(graph.EFractoid().Expand(2).CountSubgraphs(shared), expected_e);
  EXPECT_EQ(cluster.steps_run(), 2u);

  // And again, to prove the cluster survives repeated reuse.
  EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(shared), expected_v);
  EXPECT_EQ(cluster.steps_run(), 3u);
}

TEST(ClusterTest, ReuseAcrossStepsOfMultiStepWorkflow) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Star(5));
  auto multi_step = [&graph] {
    return graph.EFractoid()
        .Expand(1)
        .Aggregate<uint64_t, uint64_t>(
            "deg", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
            [](const Subgraph&, Computation&) -> uint64_t { return 1; },
            [](uint64_t& a, uint64_t&& b) { a += b; })
        .FilterByAggregation<uint64_t, uint64_t>(
            "deg", [](const Subgraph&, Computation&,
                      const AggregationStorage<uint64_t, uint64_t>& agg) {
              return *agg.Find(0) == 4;
            })
        .Expand(1);
  };

  ExecutionConfig fresh;
  fresh.num_workers = 2;
  fresh.threads_per_worker = 2;
  fresh.network.latency_micros = 1;
  const ExecutionResult expected = multi_step().Execute(fresh);

  ClusterOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  options.external_work_stealing = true;
  options.network.latency_micros = 1;
  Cluster cluster(options);
  ExecutionConfig shared = fresh;
  shared.cluster = &cluster;
  const ExecutionResult result = multi_step().Execute(shared);

  // Both steps ran on the same persistent threads (no respawn between
  // steps) and produced identical results.
  EXPECT_EQ(result.steps_executed, 2u);
  EXPECT_EQ(cluster.steps_run(), 2u);
  EXPECT_EQ(result.num_subgraphs, expected.num_subgraphs);
  EXPECT_EQ(result.telemetry.steps.size(), expected.telemetry.steps.size());
  for (size_t i = 0; i < result.telemetry.steps.size(); ++i) {
    EXPECT_EQ(result.telemetry.steps[i].TotalWorkUnits(),
              expected.telemetry.steps[i].TotalWorkUnits());
  }
}

TEST(ClusterTest, StealServiceThreadsTerminateCleanlyOnDestruction) {
  // Construct/run/destroy repeatedly: destruction must join the per-worker
  // steal-service threads (blocked on the bus) and the parked execution
  // threads without hanging or racing — this case runs under TSan in CI.
  const Graph g = GenerateRandomGraph(12, 30, 1, 1, 7);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  for (int round = 0; round < 3; ++round) {
    ClusterOptions options;
    options.num_workers = 3;
    options.threads_per_worker = 2;
    options.external_work_stealing = true;
    options.network.latency_micros = 1;
    Cluster cluster(options);
    if (round > 0) {  // round 0: destroy without ever running a step
      ExecutionConfig config;
      config.cluster = &cluster;
      EXPECT_GT(graph.VFractoid().Expand(2).CountSubgraphs(config), 0u);
    }
  }
}

/// Minimal StepTask: core 0 sleeps (busy), everyone else has nothing to do
/// and idles in the steal loop's backoff until the barrier.
class SleepyCountTask : public StepTask {
 public:
  void DrainRoots(ThreadContext& t, std::vector<uint32_t> roots) override {
    if (t.core_id == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    for (size_t i = 0; i < roots.size(); ++i) {
      if (!t.ConsumeWorkUnit()) return;
    }
  }
  void ProcessStolen(ThreadContext&,
                     const SubgraphEnumerator::StolenWork&) override {}
  void FinishThread(ThreadContext&) override {}
};

TEST(ClusterTest, BusySecondsExcludesIdleBackoff) {
  ClusterOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 2;
  Cluster cluster(options);

  SleepyCountTask task;
  Cluster::StepOptions step_options;
  step_options.num_levels = 1;
  const Cluster::StepResult result =
      cluster.RunStep(task, {1, 2, 3, 4}, step_options);

  ASSERT_EQ(result.telemetry.threads.size(), 2u);
  EXPECT_EQ(result.telemetry.TotalWorkUnits(), 4u);
  const ThreadStats& busy_thread = result.telemetry.threads[0];
  const ThreadStats& idle_thread = result.telemetry.threads[1];
  // Core 0 really was busy for the sleep; core 1 drained two roots
  // instantly and then only waited — its backoff sleeps must NOT count as
  // busy time (the seed stamped whole-lifetime busy_seconds ~= wall).
  EXPECT_GE(busy_thread.busy_seconds, 0.05);
  EXPECT_LT(idle_thread.busy_seconds, result.telemetry.wall_seconds / 2);
}

TEST(TelemetryTest, AggregatesAndMakespan) {
  StepTelemetry step;
  ThreadStats a;
  a.work_units = 100;
  a.extension_tests = 500;
  a.external_steals = 2;
  ThreadStats b;
  b.work_units = 40;
  b.internal_steals = 3;
  b.bytes_shipped = 128;
  step.threads = {a, b};

  EXPECT_EQ(step.TotalWorkUnits(), 140u);
  EXPECT_EQ(step.TotalExtensionTests(), 500u);
  EXPECT_EQ(step.TotalInternalSteals(), 3u);
  EXPECT_EQ(step.TotalExternalSteals(), 2u);
  EXPECT_EQ(step.TotalBytesShipped(), 128u);
  // Makespan without steal cost: max work = 100; with cost 30: 100+60=160.
  EXPECT_EQ(step.SimulatedMakespanUnits(0), 100u);
  EXPECT_EQ(step.SimulatedMakespanUnits(30), 160u);
  EXPECT_DOUBLE_EQ(step.IdealMakespanUnits(), 70.0);
  EXPECT_DOUBLE_EQ(step.BalanceEfficiency(0), 0.7);
  EXPECT_FALSE(step.ToTable().empty());
}

TEST(TelemetryTest, DegenerateStepsHaveDefinedBalance) {
  // No threads at all: vacuously balanced, ideal makespan zero.
  StepTelemetry empty;
  EXPECT_DOUBLE_EQ(empty.IdealMakespanUnits(), 0.0);
  EXPECT_DOUBLE_EQ(empty.BalanceEfficiency(0), 1.0);
  EXPECT_DOUBLE_EQ(empty.BalanceEfficiency(50), 1.0);

  // Threads that did no work: still balanced (no 0/0), even when steal
  // costs make the simulated makespan nonzero.
  StepTelemetry idle;
  ThreadStats stole_but_empty;
  stole_but_empty.external_steals = 4;
  idle.threads = {ThreadStats{}, stole_but_empty};
  EXPECT_EQ(idle.TotalWorkUnits(), 0u);
  EXPECT_DOUBLE_EQ(idle.IdealMakespanUnits(), 0.0);
  EXPECT_DOUBLE_EQ(idle.BalanceEfficiency(0), 1.0);
  EXPECT_DOUBLE_EQ(idle.BalanceEfficiency(25), 1.0);
}

TEST(TelemetryTest, ExecutionTotals) {
  ExecutionTelemetry execution;
  StepTelemetry s1, s2;
  ThreadStats t;
  t.work_units = 10;
  t.extension_tests = 20;
  s1.threads = {t};
  s2.threads = {t, t};
  execution.steps = {s1, s2};
  EXPECT_EQ(execution.TotalWorkUnits(), 30u);
  EXPECT_EQ(execution.TotalExtensionTests(), 60u);
}

}  // namespace
}  // namespace fractal
