// Tests for the Reproduce step (§3.3-3.4): trace round-trips, in-process
// replay fidelity across algorithms, master replay, generated test code
// (including a real compiler syntax check), end-to-end test generation, and
// the GUI views.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "algos/connected_components.h"
#include "algos/graph_coloring.h"
#include "algos/random_walk.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/end_to_end.h"
#include "debug/reproducer.h"
#include "debug/views/gui_views.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace debug {
namespace {

using algos::CCTraits;
using algos::GCTraits;
using algos::RWShortTraits;
using pregel::Int64Value;

/// Spec for a debugged graph-coloring run — the workhorse job of this file.
pregel::JobSpec<GCTraits> GCSpec(const graph::SimpleGraph& g, bool buggy,
                                 const DebugConfig<GCTraits>& config,
                                 InMemoryTraceStore* store,
                                 const std::string& job) {
  pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = job;
  spec.vertices = algos::LoadGraphColoringVertices(g);
  spec.computation = algos::MakeGraphColoringFactory(buggy);
  spec.master = algos::MakeGraphColoringMasterFactory();
  spec.debug_config = &config;
  spec.trace_store = store;
  return spec;
}

/// Opens one read session over a finished job's traces.
template <pregel::JobTraits Traits>
DebugSession<Traits> OpenJob(const TraceStore& store, const std::string& job) {
  auto session = DebugSession<Traits>::Open(&store, job);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

// ---------------------------------------------------- trace serialization --

VertexTrace<GCTraits> SampleTrace() {
  VertexTrace<GCTraits> trace;
  trace.superstep = 41;
  trace.id = 672;
  trace.reasons = kReasonSpecified | kReasonNeighbor;
  trace.value_before =
      algos::GCVertexValue{-1, algos::GCState::kTentativelyInSet, 2, 0.4};
  trace.edges.push_back({671, {}});
  trace.edges.push_back({673, {}});
  trace.incoming.push_back(
      algos::GCMessage{algos::GCMessageType::kTentative, 671, 0.9});
  trace.aggregators["gc.phase"] =
      pregel::AggValue{std::string("CONFLICT-RESOLUTION")};
  trace.total_vertices = 1'000'000'000;
  trace.total_edges = 3'000'000'000;
  trace.rng_state = 0xfeedULL;
  trace.value_after =
      algos::GCVertexValue{-1, algos::GCState::kInSet, 2, 0.4};
  trace.halted_after = false;
  trace.outgoing.emplace_back(
      671, algos::GCMessage{algos::GCMessageType::kInSet, 672, 0.0});
  trace.aggregations.emplace_back("gc.undecided",
                                  pregel::AggValue{int64_t{1}});
  trace.violations.push_back(ViolationInfo{
      ViolationInfo::Kind::kMessageValue, 672, 671, "detail text"});
  trace.exception =
      ExceptionInfo{"std::runtime_error", "boom", "at vertex 672"};
  return trace;
}

TEST(VertexTraceTest, SerializationRoundTripsEveryField) {
  VertexTrace<GCTraits> trace = SampleTrace();
  std::string record = trace.Serialize();
  auto decoded = VertexTrace<GCTraits>::Deserialize(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->superstep, trace.superstep);
  EXPECT_EQ(decoded->id, trace.id);
  EXPECT_EQ(decoded->reasons, trace.reasons);
  EXPECT_EQ(decoded->value_before, trace.value_before);
  EXPECT_EQ(decoded->edges, trace.edges);
  EXPECT_EQ(decoded->incoming, trace.incoming);
  EXPECT_EQ(decoded->aggregators, trace.aggregators);
  EXPECT_EQ(decoded->total_vertices, trace.total_vertices);
  EXPECT_EQ(decoded->total_edges, trace.total_edges);
  EXPECT_EQ(decoded->rng_state, trace.rng_state);
  EXPECT_EQ(decoded->value_after, trace.value_after);
  EXPECT_EQ(decoded->halted_after, trace.halted_after);
  EXPECT_EQ(decoded->outgoing, trace.outgoing);
  EXPECT_EQ(decoded->aggregations, trace.aggregations);
  EXPECT_EQ(decoded->violations, trace.violations);
  ASSERT_TRUE(decoded->exception.has_value());
  EXPECT_EQ(*decoded->exception, *trace.exception);
}

TEST(VertexTraceTest, CorruptRecordIsError) {
  std::string record = SampleTrace().Serialize();
  record.resize(record.size() / 2);
  EXPECT_FALSE(VertexTrace<GCTraits>::Deserialize(record).ok());
  std::string bad_version = record;
  bad_version[0] = 99;
  EXPECT_TRUE(VertexTrace<GCTraits>::Deserialize(bad_version)
                  .status()
                  .IsInvalidArgument());
}

TEST(MasterTraceTest, RoundTripsBothAggregatorMaps) {
  MasterTrace trace;
  trace.superstep = 9;
  trace.total_vertices = 100;
  trace.total_edges = 300;
  trace.aggregators["phase"] = pregel::AggValue{std::string("SELECT")};
  trace.aggregators_after["phase"] =
      pregel::AggValue{std::string("CONFLICT-RESOLUTION")};
  trace.halted = true;
  auto decoded = MasterTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->aggregators.at("phase").AsText(), "SELECT");
  EXPECT_EQ(decoded->aggregators_after.at("phase").AsText(),
            "CONFLICT-RESOLUTION");
  EXPECT_TRUE(decoded->halted);
}

// ------------------------------------------------------- replay fidelity --

/// Property: every captured vertex of a randomized GC run replays exactly.
TEST(ReplayFidelityTest, HoldsForAllCapturesOfARandomizedRun) {
  graph::SimpleGraph g =
      graph::MakeUndirected(graph::GeneratePowerLaw(60, 3, 3));
  ConfigurableDebugConfig<GCTraits> config;
  config.set_capture_all_active(true);
  InMemoryTraceStore store;
  auto spec = GCSpec(g, /*buggy=*/true, config, &store, "fidelity");
  spec.options.num_workers = 3;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  const pregel::JobRunSummary& summary = *summary_or;
  ASSERT_TRUE(summary.job_status.ok());
  ASSERT_GT(summary.captures, 100u);

  algos::GraphColoringComputation computation(true);
  uint64_t checked = 0;
  DebugSession<GCTraits> session = OpenJob<GCTraits>(store, "fidelity");
  for (int64_t s : session.supersteps()) {
    auto traces = session.VertexTraces(s);
    ASSERT_TRUE(traces.ok());
    for (const auto& trace : traces.value()) {
      ReplayFidelity fidelity = CheckReplayFidelity(trace, computation);
      ASSERT_TRUE(fidelity.Faithful())
          << "vertex " << trace.id << " superstep " << s << ": "
          << fidelity.mismatch_detail;
      ++checked;
    }
  }
  EXPECT_EQ(checked, summary.captures);
}

TEST(ReplayFidelityTest, DetectsWrongComputation) {
  // Replaying a buggy-run trace through the FIXED computation must diverge
  // for at least one captured vertex (that is the §4.1 diagnosis step).
  // First find a seed whose run actually exercises the buggy branch — i.e.
  // produces a coloring conflict — then assert its traces betray the bug.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    graph::SimpleGraph g =
        graph::MakeUndirected(graph::GeneratePowerLaw(300, 4, seed));
    auto buggy_run = algos::RunGraphColoring(g, /*buggy=*/true, 2, seed);
    ASSERT_TRUE(buggy_run.ok());
    if (algos::FindColoringConflicts(g, buggy_run->color).empty()) continue;

    ConfigurableDebugConfig<GCTraits> config;
    config.set_capture_all_active(true);
    InMemoryTraceStore store;
    auto spec = GCSpec(g, /*buggy=*/true, config, &store, "diverge");
    spec.options.seed = seed;
    auto summary = pregel::RunJob(std::move(spec));
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_TRUE(summary->job_status.ok());
    algos::GraphColoringComputation fixed(false);
    bool diverged = false;
    DebugSession<GCTraits> session = OpenJob<GCTraits>(store, "diverge");
    for (int64_t s : session.supersteps()) {
      auto traces = session.VertexTraces(s);
      ASSERT_TRUE(traces.ok());
      for (const auto& trace : traces.value()) {
        if (!CheckReplayFidelity(trace, fixed).Faithful()) {
          diverged = true;
          break;
        }
      }
      if (diverged) break;
    }
    EXPECT_TRUE(diverged)
        << "run had coloring conflicts but the fixed computation replayed "
           "all captures identically (seed "
        << seed << ")";
    return;
  }
  GTEST_FAIL() << "no seed in 1..10 manifested the injected GC bug";
}

TEST(ReplayFidelityTest, ExceptionTraceReplaysException) {
  struct ThrowOnOddSuperstep : pregel::Computation<CCTraits> {
    void Compute(pregel::ComputeContext<CCTraits>& ctx,
                 pregel::Vertex<CCTraits>& vertex,
                 const std::vector<Int64Value>&) override {
      if (ctx.superstep() % 2 == 1) throw std::runtime_error("odd superstep");
      ctx.SendMessageToAllEdges(vertex, Int64Value{1});
    }
  };
  ConfigurableDebugConfig<CCTraits> config;
  config.set_abort_on_exception(false);
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "exc-replay";
  spec.options.max_supersteps = 2;
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(4), [](VertexId) { return Int64Value{0}; });
  spec.computation = [] { return std::make_unique<ThrowOnOddSuperstep>(); };
  spec.debug_config = &config;
  spec.trace_store = &store;
  ASSERT_TRUE(pregel::RunJob(std::move(spec)).ok());
  auto trace = OpenJob<CCTraits>(store, "exc-replay").FindVertexTrace(1, 0);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_TRUE(trace->exception.has_value());
  ThrowOnOddSuperstep computation;
  ReplayFidelity fidelity = CheckReplayFidelity(*trace, computation);
  EXPECT_TRUE(fidelity.Faithful()) << fidelity.mismatch_detail;
}

TEST(ReplayFidelityTest, MasterReplayMatchesGCPhases) {
  graph::SimpleGraph g = graph::GenerateComplete(5);
  ConfigurableDebugConfig<GCTraits> config;
  InMemoryTraceStore store;
  ASSERT_TRUE(pregel::RunJob(
                  GCSpec(g, /*buggy=*/false, config, &store, "master-replay"))
                  .ok());
  algos::GraphColoringMaster master;
  int checked = 0;
  DebugSession<GCTraits> session = OpenJob<GCTraits>(store, "master-replay");
  for (int64_t s : session.supersteps()) {
    auto trace = session.Master(s);
    if (!trace.ok()) continue;
    ReplayFidelity fidelity = CheckMasterReplayFidelity(*trace, master);
    EXPECT_TRUE(fidelity.Faithful())
        << "superstep " << s << ": " << fidelity.mismatch_detail;
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

// ---------------------------------------------------------------- codegen --

CodegenBinding GCBinding() {
  CodegenBinding binding;
  binding.traits_type = "graft::algos::GCTraits";
  binding.includes = {"algos/graph_coloring.h"};
  binding.computation_decl =
      "graft::algos::GraphColoringComputation computation(true);";
  binding.test_suite = "GCVertexGraftTest";
  return binding;
}

TEST(CodegenTest, GeneratedCodeContainsTheWholeContext) {
  VertexTrace<GCTraits> trace = SampleTrace();
  trace.exception.reset();  // normal-outcome flavor
  std::string code = GenerateVertexTestCode(trace, GCBinding());
  EXPECT_NE(code.find("TEST(GCVertexGraftTest, ReproduceVertex672Superstep41)"),
            std::string::npos);
  EXPECT_NE(code.find("ctx.set_superstep(41);"), std::string::npos);
  EXPECT_NE(code.find("ctx.set_total_num_vertices(1000000000);"),
            std::string::npos);
  EXPECT_NE(code.find("CONFLICT-RESOLUTION"), std::string::npos);
  EXPECT_NE(code.find("ctx.set_rng_state(0xfeedULL);"), std::string::npos);
  EXPECT_NE(code.find("vertex(672,"), std::string::npos);
  EXPECT_NE(code.find("{671, graft::pregel::NullValue{}}"), std::string::npos);
  EXPECT_NE(code.find("computation.Compute(ctx, vertex, messages);"),
            std::string::npos);
  EXPECT_NE(code.find("EXPECT_EQ(vertex.value(), ("), std::string::npos);
}

TEST(CodegenTest, ExceptionTraceGeneratesExpectThrow) {
  std::string code = GenerateVertexTestCode(SampleTrace(), GCBinding());
  EXPECT_NE(code.find("EXPECT_THROW"), std::string::npos);
}

TEST(CodegenTest, EmptyMessageListGeneratesComment) {
  VertexTrace<GCTraits> trace = SampleTrace();
  trace.incoming.clear();
  trace.exception.reset();
  std::string code = GenerateVertexTestCode(trace, GCBinding());
  EXPECT_NE(code.find("// No incoming messages for this vertex."),
            std::string::npos);
}

TEST(CodegenTest, MasterTestCodeStructure) {
  MasterTrace trace;
  trace.superstep = 12;
  trace.aggregators["gc.phase"] = pregel::AggValue{std::string("UPDATE")};
  trace.aggregators_after["gc.phase"] =
      pregel::AggValue{std::string("SELECT")};
  MasterCodegenBinding binding;
  binding.includes = {"algos/graph_coloring.h"};
  binding.master_decl = "graft::algos::GraphColoringMaster master;";
  binding.test_suite = "GCMasterGraftTest";
  std::string code = GenerateMasterTestCode(trace, binding);
  EXPECT_NE(code.find("ReproduceMasterSuperstep12"), std::string::npos);
  EXPECT_NE(code.find("master.Compute(ctx);"), std::string::npos);
  EXPECT_NE(code.find("EXPECT_FALSE(ctx.IsHalted());"), std::string::npos);
}

/// The strongest check: generated code from a real captured trace passes a
/// real compiler front-end (g++ -fsyntax-only) against this repository's
/// headers — i.e. the artifact the paper's user pastes into their IDE
/// actually builds.
TEST(CodegenTest, GeneratedCodeCompiles) {
  graph::SimpleGraph g = graph::GenerateComplete(6);
  ConfigurableDebugConfig<GCTraits> config;
  config.set_vertices({0, 1});
  InMemoryTraceStore store;
  ASSERT_TRUE(
      pregel::RunJob(GCSpec(g, /*buggy=*/true, config, &store, "codegen"))
          .ok());
  auto trace = OpenJob<GCTraits>(store, "codegen").FindVertexTrace(1, 0);
  ASSERT_TRUE(trace.ok()) << trace.status();
  std::string code = GenerateVertexTestCode(*trace, GCBinding());

  std::string path = ::testing::TempDir() + "/graft_generated_test.cc";
  std::ofstream out(path);
  out << code;
  out.close();
  std::string command = "g++ -std=c++20 -fsyntax-only -I" +
                        std::string(GRAFT_SOURCE_DIR) + "/src -I" +
                        std::string(GRAFT_GTEST_INCLUDE_DIR) + " " + path +
                        " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string compiler_output;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    compiler_output += buffer;
  }
  int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << "generated code failed to compile:\n"
                   << compiler_output << "\n--- generated code ---\n" << code;
}

// ------------------------------------------------------------- end-to-end --

TEST(EndToEndGenTest, GeneratesGraphConstructionAndAssertions) {
  graph::SimpleGraph g;
  g.AddUndirectedEdge(1, 2, 2.5);
  g.AddVertex(9);
  EndToEndBinding binding;
  binding.includes = {"algos/connected_components.h"};
  binding.test_suite = "CCEndToEnd";
  binding.test_name = "Small";
  binding.runner_snippet =
      "std::map<graft::VertexId, std::string> final_values;";
  std::string code =
      GenerateEndToEndTest(g, {{1, "1"}, {2, "1"}, {9, "9"}}, binding);
  EXPECT_NE(code.find("graph.AddEdge(1, 2, 2.5);"), std::string::npos);
  EXPECT_NE(code.find("graph.AddVertex(9);"), std::string::npos);
  EXPECT_NE(code.find("EXPECT_EQ(final_values[9], \"9\");"),
            std::string::npos);
  // From-scratch flavor emits TODOs instead.
  std::string scratch = GenerateEndToEndTest(g, {}, binding);
  EXPECT_NE(scratch.find("// TODO: assert"), std::string::npos);
}

// ------------------------------------------------------------------ views --

void RunForViews(const std::string& job, InMemoryTraceStore* store_out) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({2, 5}).set_capture_neighbors(true);
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = job;
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(8), [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = store_out;
  ASSERT_TRUE(pregel::RunJob(std::move(spec)).ok());
}

TEST(ViewsTest, NodeLinkViewShowsVerticesAndMessages) {
  InMemoryTraceStore store;
  RunForViews("views", &store);
  GraftGui<CCTraits> gui(&store, "views");
  ASSERT_TRUE(gui.HasCaptures());
  gui.SeekFirst();
  auto view = gui.NodeLinkView();
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find("Node-link View"), std::string::npos);
  EXPECT_NE(view->find("(2)"), std::string::npos);
  EXPECT_NE(view->find("[M] OK"), std::string::npos);
  EXPECT_NE(view->find("reasons=spec"), std::string::npos);
  EXPECT_NE(view->find("out: ->"), std::string::npos);
}

TEST(ViewsTest, TabularViewSearchFilters) {
  InMemoryTraceStore store;
  RunForViews("views2", &store);
  GraftGui<CCTraits> gui(&store, "views2");
  gui.SeekFirst();
  auto all = gui.TabularView();
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all->find("6 vertices"), std::string::npos);  // 2,5 + 4 nbrs
  auto filtered = gui.TabularView("5");
  ASSERT_TRUE(filtered.ok());
  // "5" matches vertex 5 itself plus its neighbors (4 and 6) by nbr-id.
  EXPECT_NE(filtered->find("3 vertices"), std::string::npos);
}

TEST(ViewsTest, SuperstepSteppingClampsAtEnds) {
  InMemoryTraceStore store;
  RunForViews("views3", &store);
  GraftGui<CCTraits> gui(&store, "views3");
  gui.SeekFirst();
  EXPECT_FALSE(gui.PreviousSuperstep());
  int64_t first = gui.current_superstep();
  gui.SeekLast();
  EXPECT_FALSE(gui.NextSuperstep());
  EXPECT_GT(gui.current_superstep(), first);
  EXPECT_TRUE(gui.SeekTo(first).ok());
  EXPECT_TRUE(gui.SeekTo(99999).IsNotFound());
}

TEST(ViewsTest, ViolationsViewListsConstraintHits) {
  InMemoryTraceStore store;
  ConfigurableDebugConfig<CCTraits> config;
  config.set_message_value_constraint(
      [](const Int64Value& m, VertexId, VertexId, int64_t) {
        return m.value >= 3;
      });
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "viol";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(8), [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  ASSERT_TRUE(pregel::RunJob(std::move(spec)).ok());
  GraftGui<CCTraits> gui(&store, "viol");
  gui.SeekFirst();
  auto view = gui.ViolationsView();
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find("message-value"), std::string::npos);
  auto snapshot = gui.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->AnyMessageViolation());
  EXPECT_FALSE(snapshot->AnyException());
}

TEST(ViewsTest, DotExportIsWellFormed) {
  InMemoryTraceStore store;
  RunForViews("views4", &store);
  GraftGui<CCTraits> gui(&store, "views4");
  gui.SeekFirst();
  auto dot = gui.DotExport();
  ASSERT_TRUE(dot.ok());
  EXPECT_EQ(dot->find("digraph graft {"), 0u);
  EXPECT_NE(dot->find("v2 ["), std::string::npos);
  EXPECT_NE(dot->find("->"), std::string::npos);
  EXPECT_EQ((*dot)[dot->size() - 2], '}');
}

TEST(ViewsTest, JsonExportParsesStructurally) {
  InMemoryTraceStore store;
  RunForViews("views5", &store);
  GraftGui<CCTraits> gui(&store, "views5");
  gui.SeekFirst();
  auto json = gui.JsonExport();
  ASSERT_TRUE(json.ok());
  // Structural sanity: balanced braces/brackets, expected keys present.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : *json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json->find("\"vertices\":["), std::string::npos);
  EXPECT_NE(json->find("\"superstep\":0"), std::string::npos);
}

TEST(ViewsTest, HtmlExportIsWellFormedAndComplete) {
  InMemoryTraceStore store;
  RunForViews("views6", &store);
  GraftGui<CCTraits> gui(&store, "views6");
  gui.SeekFirst();
  auto html = gui.HtmlExport();
  ASSERT_TRUE(html.ok());
  EXPECT_EQ(html->find("<!DOCTYPE html>"), 0u);
  EXPECT_NE(html->find("superstep 0"), std::string::npos);
  EXPECT_NE(html->find("<td>2</td>"), std::string::npos);  // captured vertex
  EXPECT_NE(html->find("</html>"), std::string::npos);
  // Balanced table tags.
  size_t opens = 0, closes = 0, pos = 0;
  while ((pos = html->find("<table>", pos)) != std::string::npos) {
    ++opens;
    ++pos;
  }
  pos = 0;
  while ((pos = html->find("</table>", pos)) != std::string::npos) {
    ++closes;
    ++pos;
  }
  EXPECT_EQ(opens, closes);
}

TEST(TraceReaderTest, VertexHistoryWalksSuperstepsInOrder) {
  InMemoryTraceStore store;
  RunForViews("history", &store);
  DebugSession<CCTraits> session = OpenJob<CCTraits>(store, "history");
  auto history = session.VertexHistory(2);
  ASSERT_TRUE(history.ok());
  ASSERT_GE(history->size(), 2u);
  for (size_t i = 0; i < history->size(); ++i) {
    EXPECT_EQ((*history)[i].id, 2);
    if (i > 0) {
      EXPECT_GT((*history)[i].superstep, (*history)[i - 1].superstep);
    }
  }
  // Missing vertex yields an empty history, not an error.
  auto none = session.VertexHistory(999);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ViewsTest, NodeLinkShowsMasterAggregatorPanel) {
  // A GC job has a master; the view's aggregator panel must show its
  // values (paper Figure 3, upper-right corner).
  graph::SimpleGraph g = graph::GenerateComplete(5);
  ConfigurableDebugConfig<GCTraits> config;
  config.set_vertices({0});
  InMemoryTraceStore store;
  ASSERT_TRUE(
      pregel::RunJob(GCSpec(g, /*buggy=*/false, config, &store, "agg-panel"))
          .ok());
  GraftGui<GCTraits> gui(&store, "agg-panel");
  gui.SeekFirst();
  auto view = gui.NodeLinkView();
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find("Aggregators:"), std::string::npos);
  EXPECT_NE(view->find("gc.phase=\"SELECT\""), std::string::npos);
}

TEST(ViewsTest, EmptyJobReportsNoCaptures) {
  InMemoryTraceStore store;
  GraftGui<CCTraits> gui(&store, "ghost");
  EXPECT_FALSE(gui.HasCaptures());
  EXPECT_TRUE(gui.NodeLinkView().status().IsNotFound());
}

}  // namespace
}  // namespace debug
}  // namespace graft
