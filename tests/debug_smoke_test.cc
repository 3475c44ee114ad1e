// Smoke/integration tests exercising the full stack: engine + algorithms +
// Graft capture + trace round-trip + replay fidelity.
#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "algos/graph_coloring.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::CCTraits;
using algos::GCTraits;

TEST(DebugSmoke, ConnectedComponentsOnRing) {
  graph::SimpleGraph g = graph::GenerateRing(10);
  auto result = algos::RunConnectedComponents(g);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_components, 1);
  for (const auto& [id, comp] : result->component) EXPECT_EQ(comp, 0);
}

TEST(DebugSmoke, GraphColoringFixedIsProper) {
  graph::SimpleGraph g = graph::GenerateRegularBipartite(40, 3, 7);
  auto result = algos::RunGraphColoring(g, /*buggy=*/false);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(algos::FindColoringConflicts(g, result->color).empty());
  // A bipartite graph needs few colors; MIS-based coloring may use a few
  // more than 2, but never more than max degree + 1 = 4.
  EXPECT_LE(result->num_colors, 4);
}

TEST(DebugSmoke, CaptureSpecifiedVerticesAndReplay) {
  graph::SimpleGraph g = graph::GenerateRing(12);
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({3, 7}).set_capture_neighbors(true);

  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "cc-smoke";
  spec.options.num_workers = 2;
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      g, [](VertexId) { return pregel::Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  pregel::JobRunSummary summary = std::move(summary_or).value();
  ASSERT_TRUE(summary.job_status.ok()) << summary.job_status;
  EXPECT_GT(summary.captures, 0u);
  EXPECT_GT(summary.trace_bytes, 0u);

  auto session = debug::DebugSession<CCTraits>::Open(&store, "cc-smoke");
  ASSERT_TRUE(session.ok()) << session.status();

  // Superstep 0 must have captured vertices 3, 7 and their ring neighbors.
  auto traces = session->VertexTraces(0);
  ASSERT_TRUE(traces.ok()) << traces.status();
  std::set<VertexId> ids;
  for (const auto& t : traces.value()) ids.insert(t.id);
  EXPECT_EQ(ids, (std::set<VertexId>{2, 3, 4, 6, 7, 8}));

  // Replay fidelity on every captured trace, every superstep.
  algos::ConnectedComponentsComputation computation;
  for (int64_t s : session->supersteps()) {
    auto step_traces = session->VertexTraces(s);
    ASSERT_TRUE(step_traces.ok());
    for (const auto& trace : step_traces.value()) {
      debug::ReplayFidelity fidelity =
          debug::CheckReplayFidelity(trace, computation);
      EXPECT_TRUE(fidelity.Faithful())
          << "vertex " << trace.id << " superstep " << s << ": "
          << fidelity.mismatch_detail;
    }
  }
}

TEST(DebugSmoke, GraphColoringCapturesMasterTraces) {
  graph::SimpleGraph g = graph::GenerateComplete(6);
  debug::ConfigurableDebugConfig<GCTraits> config;
  config.set_num_random(2).set_capture_neighbors(true);

  InMemoryTraceStore store;
  pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = "gc-smoke";
  spec.vertices = algos::LoadGraphColoringVertices(g);
  spec.computation = algos::MakeGraphColoringFactory(false);
  spec.master = algos::MakeGraphColoringMasterFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  pregel::JobRunSummary summary = std::move(summary_or).value();
  ASSERT_TRUE(summary.job_status.ok()) << summary.job_status;
  EXPECT_GT(summary.captures, 0u);

  auto session = debug::DebugSession<GCTraits>::Open(&store, "gc-smoke");
  ASSERT_TRUE(session.ok()) << session.status();
  const std::vector<int64_t>& supersteps = session->supersteps();
  ASSERT_FALSE(supersteps.empty());
  auto master0 = session->Master(0);
  ASSERT_TRUE(master0.ok()) << master0.status();
  EXPECT_EQ(master0->superstep, 0);
  // The GC master sets the phase aggregator at superstep 0.
  ASSERT_TRUE(master0->aggregators_after.count(algos::kGCPhaseAggregator));
  EXPECT_EQ(master0->aggregators_after.at(algos::kGCPhaseAggregator).AsText(),
            algos::kGCPhaseSelect);

  // Master replay fidelity across all captured supersteps.
  algos::GraphColoringMaster master;
  for (int64_t s : supersteps) {
    auto trace = session->Master(s);
    if (!trace.ok()) continue;
    debug::ReplayFidelity fidelity =
        debug::CheckMasterReplayFidelity(trace.value(), master);
    EXPECT_TRUE(fidelity.Faithful())
        << "master superstep " << s << ": " << fidelity.mismatch_detail;
  }

  // Replay fidelity for captured GC vertices (randomized algorithm — this
  // is the deterministic-RNG guarantee at work).
  algos::GraphColoringComputation computation(false);
  for (int64_t s : supersteps) {
    auto traces = session->VertexTraces(s);
    ASSERT_TRUE(traces.ok());
    for (const auto& trace : traces.value()) {
      debug::ReplayFidelity fidelity =
          debug::CheckReplayFidelity(trace, computation);
      EXPECT_TRUE(fidelity.Faithful())
          << "vertex " << trace.id << " superstep " << s << ": "
          << fidelity.mismatch_detail;
    }
  }
}

}  // namespace
}  // namespace graft
