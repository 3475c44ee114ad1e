// Edge-case tests: degenerate graphs, self-messages, empty jobs, and other
// boundary conditions of the engine and the debugger.
#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "debug/debug_session.h"
#include "graph/generators.h"
#include "graph/graph_text.h"
#include "io/trace_store.h"
#include "pregel/engine.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::CCTraits;
using pregel::Int64Value;
using pregel::NullValue;

struct EdgeTraits {
  using VertexValue = Int64Value;
  using EdgeValue = NullValue;
  using Message = Int64Value;
};

TEST(EngineEdgeCases, EmptyGraphTerminatesImmediately) {
  pregel::Engine<EdgeTraits>::Options options;
  pregel::Engine<EdgeTraits> engine(options, {}, [] {
    struct Noop : pregel::Computation<EdgeTraits> {
      void Compute(pregel::ComputeContext<EdgeTraits>&,
                   pregel::Vertex<EdgeTraits>& v,
                   const std::vector<Int64Value>&) override {
        v.VoteToHalt();
      }
    };
    return std::make_unique<Noop>();
  });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps, 0);
  EXPECT_EQ(stats->termination, pregel::TerminationReason::kAllHalted);
  EXPECT_EQ(engine.NumAliveVertices(), 0u);
}

TEST(EngineEdgeCases, SingleVertexNoEdges) {
  struct CountOnce : pregel::Computation<EdgeTraits> {
    void Compute(pregel::ComputeContext<EdgeTraits>& ctx,
                 pregel::Vertex<EdgeTraits>& v,
                 const std::vector<Int64Value>&) override {
      v.set_value(Int64Value{ctx.superstep() + 1});
      v.VoteToHalt();
    }
  };
  std::vector<pregel::Vertex<EdgeTraits>> vertices;
  vertices.emplace_back(42, Int64Value{0},
                        std::vector<pregel::Edge<NullValue>>{});
  pregel::Engine<EdgeTraits>::Options options;
  pregel::Engine<EdgeTraits> engine(options, std::move(vertices), [] {
    return std::make_unique<CountOnce>();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.FindVertex(42).value()->value().value, 1);
}

TEST(EngineEdgeCases, SelfMessageDeliveredNextSuperstep) {
  struct SelfPing : pregel::Computation<EdgeTraits> {
    void Compute(pregel::ComputeContext<EdgeTraits>& ctx,
                 pregel::Vertex<EdgeTraits>& v,
                 const std::vector<Int64Value>& messages) override {
      if (ctx.superstep() == 0) {
        ctx.SendMessage(v.id(), Int64Value{99});
      } else {
        ASSERT_EQ(messages.size(), 1u);
        v.set_value(messages[0]);
      }
      v.VoteToHalt();
    }
  };
  std::vector<pregel::Vertex<EdgeTraits>> vertices;
  vertices.emplace_back(7, Int64Value{0},
                        std::vector<pregel::Edge<NullValue>>{});
  pregel::Engine<EdgeTraits>::Options options;
  pregel::Engine<EdgeTraits> engine(options, std::move(vertices), [] {
    return std::make_unique<SelfPing>();
  });
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.FindVertex(7).value()->value().value, 99);
}

TEST(EngineEdgeCases, MoreWorkersThanVertices) {
  auto graph = graph::GenerateRing(3);
  auto result = algos::RunConnectedComponents(graph, /*num_workers=*/8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_components, 1);
}

TEST(DebugEdgeCases, CaptureTargetsMissingFromGraphAreIgnored) {
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({12345});  // not in the graph
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "missing-target";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(5), [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(summary->captures, 0u);
}

TEST(DebugEdgeCases, ZeroMaxCapturesCapturesNothing) {
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_capture_all_active(true).set_max_captures(0);
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "zero-cap";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(5), [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(summary->captures, 0u);
  EXPECT_GT(summary->dropped_by_capture_limit, 0u);
}

TEST(DebugEdgeCases, ReadTraceFromWrongSuperstepIsNotFound) {
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({0});
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "wrong-ss";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(5), [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  ASSERT_TRUE(pregel::RunJob(std::move(spec)).ok());
  auto session = debug::DebugSession<CCTraits>::Open(&store, "wrong-ss");
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(session->FindVertexTrace(500, 0).status().IsNotFound());
  EXPECT_TRUE(session->FindVertexTrace(0, 3).status().IsNotFound());
}

TEST(GraphTextEdgeCases, NegativeIdsRoundTrip) {
  graph::SimpleGraph g;
  g.AddEdge(-5, -6, 2.0);
  auto parsed = graph::ParseAdjacencyText(graph::WriteAdjacencyText(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->HasEdge(-5, -6));
  EXPECT_EQ(parsed->EdgeWeight(-5, -6).value(), 2.0);
}

TEST(GraphTextEdgeCases, EmptyInputYieldsEmptyGraph) {
  auto parsed = graph::ParseAdjacencyText("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumVertices(), 0u);
}

}  // namespace
}  // namespace graft
