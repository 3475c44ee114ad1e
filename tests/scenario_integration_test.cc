// Integration tests reproducing the paper's three demo scenarios (§4) end
// to end, in miniature: each test performs the full capture → visualize →
// reproduce cycle and asserts the artifact at every step.
#include <gtest/gtest.h>

#include "algos/graph_coloring.h"
#include "algos/max_weight_matching.h"
#include "algos/random_walk.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "debug/views/gui_views.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::GCTraits;
using algos::MWMTraits;
using algos::RWShortTraits;

// ------------------------------------------------------- §4.1 graph coloring --

TEST(Scenario41GraphColoring, CaptureVisualizeReproduce) {
  // Scaled bipartite-1M-3M; the bug needs several seeds to manifest at this
  // size, exactly like a real debugging hunt.
  graph::DatasetOptions dopts;
  dopts.scale_denominator = 250;
  uint64_t seed = 0;
  graph::SimpleGraph graph;
  std::map<VertexId, int32_t> color;
  std::vector<std::pair<VertexId, VertexId>> conflicts;
  for (uint64_t s = 1; s <= 12 && conflicts.empty(); ++s) {
    auto g = graph::MakeDataset("bipartite-1M-3M", dopts);
    ASSERT_TRUE(g.ok());
    auto run = algos::RunGraphColoring(*g, /*buggy=*/true, 2, s);
    ASSERT_TRUE(run.ok());
    conflicts = algos::FindColoringConflicts(*g, run->color);
    if (!conflicts.empty()) {
      seed = s;
      graph = std::move(g).value();
      color = run->color;
    }
  }
  ASSERT_FALSE(conflicts.empty()) << "bug never manifested across 12 seeds";
  auto [u, v] = conflicts.front();
  EXPECT_EQ(color[u], color[v]);

  // Capture the conflicting pair + neighbors across the whole run.
  debug::ConfigurableDebugConfig<GCTraits> config;
  config.set_vertices({u, v}).set_capture_neighbors(true);
  InMemoryTraceStore store;
  pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = "s41";
  spec.options.seed = seed;
  spec.vertices = algos::LoadGraphColoringVertices(graph);
  spec.computation = algos::MakeGraphColoringFactory(true);
  spec.master = algos::MakeGraphColoringMasterFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  ASSERT_GT(summary->captures, 0u);

  auto session = debug::DebugSession<GCTraits>::Open(&store, "s41");
  ASSERT_TRUE(session.ok()) << session.status();

  // Visualize: find the superstep where both entered the MIS together.
  int64_t suspicious = -1;
  for (int64_t s : session->supersteps()) {
    auto tu = session->FindVertexTrace(s, u);
    auto tv = session->FindVertexTrace(s, v);
    if (tu.ok() && tv.ok() &&
        tu->value_after.state == algos::GCState::kInSet &&
        tv->value_after.state == algos::GCState::kInSet) {
      suspicious = s;
      break;
    }
  }
  ASSERT_GE(suspicious, 0) << "joint MIS entry not found in traces";

  // The node-link view of that superstep shows both vertices.
  debug::GraftGui<GCTraits> gui(&store, "s41");
  ASSERT_TRUE(gui.SeekTo(suspicious).ok());
  auto view = gui.NodeLinkView();
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find("(" + std::to_string(u) + ")"), std::string::npos);

  // Reproduce: at least one of the two vertices behaves differently under
  // the fixed computation in some captured superstep <= suspicious (the
  // wrong MIS entry may happen at either endpoint).
  algos::GraphColoringComputation buggy(true);
  algos::GraphColoringComputation fixed(false);
  bool diverges = false;
  for (int64_t s : session->supersteps()) {
    if (s > suspicious) break;
    for (VertexId w : {u, v}) {
      auto trace = session->FindVertexTrace(s, w);
      if (!trace.ok()) continue;
      EXPECT_TRUE(debug::CheckReplayFidelity(*trace, buggy).Faithful());
      if (!debug::CheckReplayFidelity(*trace, fixed).Faithful()) {
        diverges = true;
      }
    }
  }
  EXPECT_TRUE(diverges);

  // The generated test file names the suspicious superstep and vertex.
  auto trace = session->FindVertexTrace(suspicious, u);
  ASSERT_TRUE(trace.ok());
  debug::CodegenBinding binding;
  binding.traits_type = "graft::algos::GCTraits";
  binding.includes = {"algos/graph_coloring.h"};
  binding.computation_decl =
      "graft::algos::GraphColoringComputation computation(true);";
  binding.test_suite = "GCVertexGraftTest";
  std::string code = debug::GenerateVertexTestCode(*trace, binding);
  EXPECT_NE(code.find(StrFormat("ReproduceVertex%lldSuperstep%lld",
                                static_cast<long long>(u),
                                static_cast<long long>(suspicious))),
            std::string::npos);

  // And the fix closes the loop.
  auto fixed_run = algos::RunGraphColoring(graph, false, 2, seed);
  ASSERT_TRUE(fixed_run.ok());
  EXPECT_TRUE(algos::FindColoringConflicts(graph, fixed_run->color).empty());
}

// --------------------------------------------------------- §4.2 random walk --

TEST(Scenario42RandomWalk, MessageConstraintCatchesShortOverflow) {
  graph::DatasetOptions dopts;
  dopts.scale_denominator = 400;  // small but hub-y enough to overflow
  auto graph = graph::MakeDataset("web-BS", dopts);
  ASSERT_TRUE(graph.ok());

  debug::ConfigurableDebugConfig<RWShortTraits> config;
  config.set_message_value_constraint(
      [](const pregel::ShortValue& m, VertexId, VertexId, int64_t) {
        return m.value >= 0;
      });
  InMemoryTraceStore store;
  pregel::JobSpec<RWShortTraits> spec;
  spec.options.job_id = "s42";
  spec.vertices = pregel::LoadUnweighted<RWShortTraits>(
      *graph, [](VertexId) { return pregel::Int64Value{0}; });
  // 400 walkers/vertex keeps the total walker mass of a 4x larger run, so
  // the funnel chain overflows a short counter within a few supersteps.
  spec.computation = algos::MakeRandomWalkFactory<RWShortTraits>(10, 400);
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  ASSERT_GT(summary->violations, 0u) << "no overflow at this scale";

  // The GUI finds a red-[M] superstep; its violations view lists negative
  // counters.
  debug::GraftGui<RWShortTraits> gui(&store, "s42");
  gui.SeekFirst();
  while (true) {
    auto snapshot = gui.Snapshot();
    ASSERT_TRUE(snapshot.ok());
    if (snapshot->AnyMessageViolation()) break;
    ASSERT_TRUE(gui.NextSuperstep()) << "no red superstep found";
  }
  auto violations = gui.ViolationsView();
  ASSERT_TRUE(violations.ok());
  EXPECT_NE(violations->find("message-value"), std::string::npos);
  EXPECT_NE(violations->find("-"), std::string::npos);

  // Reproduce: replaying an offender resends the negative counter.
  auto snapshot = gui.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const debug::VertexTrace<RWShortTraits>* offender = nullptr;
  for (const auto& t : snapshot->traces) {
    if ((t.reasons & debug::kReasonMessageValue) != 0) {
      offender = &t;
      break;
    }
  }
  ASSERT_NE(offender, nullptr);
  EXPECT_GT(offender->value_after.value, 32767)
      << "offender should hold more walkers than a short can count";
  algos::RandomWalkComputation<RWShortTraits> computation(10, 400);
  auto outcome = debug::ReplayVertex(*offender, computation);
  bool negative = false;
  for (const auto& [target, m] : outcome.sent) {
    (void)target;
    if (m.value < 0) negative = true;
  }
  EXPECT_TRUE(negative);

  // The fixed (64-bit) variant conserves walkers on the same graph.
  auto fixed = algos::RunRandomWalk(*graph, 10, 400);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->total_walkers,
            400 * static_cast<int64_t>(graph->NumVertices()));
}

// ------------------------------------------------------------- §4.3 MWM --

TEST(Scenario43Matching, CaptureAllActiveFindsInputGraphError) {
  graph::DatasetOptions dopts;
  dopts.scale_denominator = 150;
  dopts.undirected = true;
  auto clean = graph::MakeDataset("soc-Epinions", dopts);
  ASSERT_TRUE(clean.ok());
  graph::AssignRandomWeights(&*clean, 1.0, 100.0, 7, /*symmetric=*/true);
  graph::SimpleGraph corrupted = *clean;
  auto cycle = graph::InjectPreferenceCycle(&corrupted);
  ASSERT_TRUE(cycle.ok());

  // Plain run "enters an infinite loop" (superstep cap).
  auto looping = algos::RunMaxWeightMatching(corrupted, 2, 120);
  ASSERT_TRUE(looping.ok());
  EXPECT_FALSE(looping->converged);

  // Debug run: capture all active vertices late in the run.
  debug::ConfigurableDebugConfig<MWMTraits> config;
  config.set_capture_all_active(true).set_superstep_filter(
      [](int64_t s) { return s >= 100; });
  InMemoryTraceStore store;
  pregel::JobSpec<MWMTraits> spec;
  spec.options.job_id = "s43";
  spec.options.max_supersteps = 120;
  spec.vertices = algos::LoadMatchingVertices(corrupted);
  spec.computation = algos::MakeMaxWeightMatchingFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  ASSERT_GT(summary->captures, 0u);

  // The active remnant contains the corrupted triangle, and inspecting the
  // captured edges against the input graph reveals the weight asymmetry.
  debug::GraftGui<MWMTraits> gui(&store, "s43");
  gui.SeekLast();
  auto snapshot = gui.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto [u, v, w] = *cycle;
  std::set<VertexId> active_ids;
  for (const auto& t : snapshot->traces) active_ids.insert(t.id);
  EXPECT_TRUE(active_ids.count(u) != 0 || active_ids.count(v) != 0 ||
              active_ids.count(w) != 0)
      << "cycle vertices not among the active remnant";
  int asymmetric = 0;
  for (const auto& t : snapshot->traces) {
    for (const auto& e : t.edges) {
      auto reverse = corrupted.EdgeWeight(e.target, t.id);
      if (reverse.ok() && *reverse != e.value.value) ++asymmetric;
    }
  }
  EXPECT_GT(asymmetric, 0) << "asymmetric weights not visible in traces";

  // Repairing the input graph fixes convergence (no code change!).
  auto repaired = algos::RunMaxWeightMatching(*clean, 2, 1000);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->converged);
  EXPECT_EQ(algos::ValidateMatching(*clean, repaired->matching), "");
}

}  // namespace
}  // namespace graft
