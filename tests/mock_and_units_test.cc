// Unit tests for the remaining public surface: the scriptable mock contexts
// (the building blocks of generated tests), Vertex mutation helpers,
// CaptureManager target resolution, DebugConfig defaults, and TextTable.
#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "debug/capture_manager.h"
#include "debug/mock_context.h"
#include "debug/views/text_table.h"
#include "graph/generators.h"
#include "io/trace_sink.h"
#include "io/trace_store.h"
#include "pregel/loader.h"
#include "pregel/vertex.h"

namespace graft {
namespace debug {
namespace {

using algos::CCTraits;
using pregel::Int64Value;
using pregel::NullValue;

// ------------------------------------------------------ MockComputeContext --

TEST(MockComputeContextTest, ScriptsGlobalDataAndAggregators) {
  MockComputeContext<CCTraits> ctx;
  ctx.set_superstep(41);
  ctx.set_total_num_vertices(1'000'000'000);
  ctx.set_total_num_edges(3'000'000'000);
  ctx.set_aggregated("phase", pregel::AggValue{std::string("X")});
  EXPECT_EQ(ctx.superstep(), 41);
  EXPECT_EQ(ctx.total_num_vertices(), 1'000'000'000);
  EXPECT_EQ(ctx.total_num_edges(), 3'000'000'000);
  EXPECT_EQ(ctx.GetAggregated("phase").AsText(), "X");
  EXPECT_TRUE(ctx.GetAggregated("missing").IsNull());
  EXPECT_EQ(ctx.VisibleAggregators().size(), 1u);
}

TEST(MockComputeContextTest, RecordsEverySideEffect) {
  MockComputeContext<CCTraits> ctx;
  ctx.SendMessage(7, Int64Value{3});
  ctx.Aggregate("sum", pregel::AggValue{int64_t{1}});
  ctx.RemoveVertexRequest(9);
  ctx.AddEdgeRequest(1, 2, NullValue{});
  ctx.RemoveEdgeRequest(2, 1);
  ASSERT_EQ(ctx.sent_messages().size(), 1u);
  EXPECT_EQ(ctx.sent_messages()[0].first, 7);
  EXPECT_EQ(ctx.sent_messages()[0].second, (Int64Value{3}));
  ASSERT_EQ(ctx.aggregations().size(), 1u);
  EXPECT_EQ(ctx.aggregations()[0].first, "sum");
  EXPECT_EQ(ctx.removed_vertices(), std::vector<VertexId>{9});
  EXPECT_EQ(ctx.added_edges().size(), 1u);
  EXPECT_EQ(ctx.removed_edges().size(), 1u);
}

TEST(MockComputeContextTest, RngStateReproducesStream) {
  Rng reference(0xabcdef);
  MockComputeContext<CCTraits> ctx;
  ctx.set_rng_state(0xabcdef);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ctx.rng().Next64(), reference.Next64());
  }
}

// ------------------------------------------------------ MockMasterContext --

TEST(MockMasterContextTest, RegistrationSeedsInitialValues) {
  MockMasterContext ctx;
  ASSERT_TRUE(ctx.RegisterAggregator(
                     "phase", {pregel::AggregatorOp::kOverwrite,
                               pregel::AggValue{std::string("INIT")}, true})
                  .ok());
  EXPECT_EQ(ctx.GetAggregated("phase").AsText(), "INIT");
  ASSERT_TRUE(
      ctx.SetAggregated("phase", pregel::AggValue{std::string("GO")}).ok());
  EXPECT_EQ(ctx.GetAggregated("phase").AsText(), "GO");
  ASSERT_EQ(ctx.set_calls().size(), 1u);
  EXPECT_FALSE(ctx.IsHalted());
  ctx.HaltComputation();
  EXPECT_TRUE(ctx.IsHalted());
}

// ------------------------------------------------------------------ Vertex --

TEST(VertexTest, EdgeMutationHelpers) {
  pregel::Vertex<CCTraits> v(1, Int64Value{0},
                             {{2, NullValue{}}, {3, NullValue{}},
                              {2, NullValue{}}});
  EXPECT_EQ(v.num_edges(), 3u);
  EXPECT_EQ(v.RemoveEdgesTo(2), 2u);  // removes both parallel edges
  EXPECT_EQ(v.num_edges(), 1u);
  v.AddEdge(9, NullValue{});
  EXPECT_EQ(v.edges().back().target, 9);
  EXPECT_EQ(v.RemoveEdgesTo(42), 0u);
}

TEST(VertexTest, HaltAndActivate) {
  pregel::Vertex<CCTraits> v(1, Int64Value{0}, {});
  EXPECT_FALSE(v.halted());
  v.VoteToHalt();
  EXPECT_TRUE(v.halted());
  v.Activate();
  EXPECT_FALSE(v.halted());
  EXPECT_TRUE(v.alive());
  v.set_alive(false);
  EXPECT_FALSE(v.alive());
}

// ---------------------------------------------------------- CaptureManager --

TEST(CaptureManagerTest, PrepareTargetsMergesReasons) {
  // Vertex 5 is both specified and a neighbor of specified vertex 4.
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({4, 5}).set_capture_neighbors(true);
  InMemoryTraceStore store;
  SyncTraceSink sink(&store);
  CaptureManager<CCTraits> manager(&store, &sink, &config, "m",
                                   /*num_workers=*/1);
  auto vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(10), [](VertexId) { return Int64Value{0}; });
  manager.PrepareTargets(vertices);
  EXPECT_EQ(manager.TargetReasons(4), kReasonSpecified | kReasonNeighbor);
  EXPECT_EQ(manager.TargetReasons(5), kReasonSpecified | kReasonNeighbor);
  EXPECT_EQ(manager.TargetReasons(3), kReasonNeighbor);
  EXPECT_EQ(manager.TargetReasons(6), kReasonNeighbor);
  EXPECT_EQ(manager.TargetReasons(0), 0u);
}

TEST(CaptureManagerTest, RandomTargetsAreDistinctVertices) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_num_random(8);
  InMemoryTraceStore store;
  SyncTraceSink sink(&store);
  CaptureManager<CCTraits> manager(&store, &sink, &config, "m",
                                   /*num_workers=*/1);
  auto vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(50), [](VertexId) { return Int64Value{0}; });
  manager.PrepareTargets(vertices);
  int targeted = 0;
  for (const auto& v : vertices) {
    uint32_t reasons = manager.TargetReasons(v.id());
    if (reasons != 0) {
      EXPECT_EQ(reasons, kReasonRandom);
      ++targeted;
    }
  }
  EXPECT_EQ(targeted, 8);
}

TEST(CaptureManagerTest, CountersAndBytes) {
  ConfigurableDebugConfig<CCTraits> config;
  InMemoryTraceStore store;
  SyncTraceSink sink(&store);
  CaptureManager<CCTraits> manager(&store, &sink, &config, "m",
                                   /*num_workers=*/1);
  VertexTrace<CCTraits> trace;
  trace.superstep = 3;
  trace.id = 1;
  trace.reasons = kReasonSpecified;
  VertexRecordBuilder<CCTraits> record;
  record.Build(trace);
  auto recorded = manager.RecordVertex(record, 0, /*build_seconds=*/0.0);
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  EXPECT_TRUE(*recorded);
  EXPECT_EQ(manager.num_captures(), 1u);
  EXPECT_GT(manager.TraceBytes(), 0u);
  EXPECT_TRUE(store.Exists("m/superstep_000003/worker_000.vtrace"));
}

// ------------------------------------------------------------ DebugConfig --

TEST(DebugConfigTest, BaseDefaultsCaptureOnlyExceptions) {
  DebugConfig<CCTraits> config;
  EXPECT_TRUE(config.VerticesToCapture().empty());
  EXPECT_EQ(config.NumRandomVerticesToCapture(), 0);
  EXPECT_FALSE(config.CaptureNeighborsOfVertices());
  EXPECT_FALSE(config.HasVertexValueConstraint());
  EXPECT_FALSE(config.HasMessageValueConstraint());
  EXPECT_TRUE(config.CaptureExceptions());
  EXPECT_TRUE(config.AbortOnException());
  EXPECT_FALSE(config.CaptureAllActiveVertices());
  EXPECT_TRUE(config.ShouldCaptureSuperstep(0));
  EXPECT_TRUE(config.ShouldCaptureSuperstep(1'000'000));
  EXPECT_GT(config.MaxCaptures(), 0u);
  // Unconstrained predicates accept everything.
  EXPECT_TRUE(config.VertexValueConstraint(Int64Value{-5}, 1, 0));
  EXPECT_TRUE(config.MessageValueConstraint(Int64Value{-5}, 1, 2, 0));
}

// -------------------------------------------------------------- TextTable --

TEST(TextTableTest, AlignsColumnsAndCountsRows) {
  TextTable table({"id", "value"});
  table.AddRow({"1", "short"});
  table.AddRow({"10000", "x"});
  std::string out = table.Render();
  EXPECT_NE(out.find("id    | value"), std::string::npos);
  EXPECT_NE(out.find("------+------"), std::string::npos);
  EXPECT_NE(out.find("10000 | x"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TextTableTest, EmptyTableRendersHeaderOnly) {
  TextTable table({"a"});
  std::string out = table.Render();
  EXPECT_EQ(out, "a\n-\n");
}

}  // namespace
}  // namespace debug
}  // namespace graft
