// §4.1 Graph Coloring scenario, end to end:
//
//   "Our implementation of GC contains a bug that incorrectly puts some
//    adjacent vertices into the same MIS, so they are assigned the same
//    color. [...] We run our implementation on the bipartite-1M-3M graph and
//    use Graft to capture a random set of 10 vertices. We then go to the
//    final superstep from the GUI [...] we see that some vertices and their
//    neighbors are assigned the same color [...] We generate a JUnit test
//    case from the GUI replicating the lines of code that executed [...]"
//
// We run on a scaled-down bipartite-1M-3M (env GRAFT_SCALE, default 1/100),
// capture 10 random vertices + neighbors, detect the same-color conflict in
// the final state, walk the GUI back to the superstep where both conflict
// endpoints entered the MIS, and emit the generated reproduction test.

#include <cstdio>
#include <cstdlib>

#include "algos/graph_coloring.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "debug/views/gui_views.h"
#include "graph/datasets.h"
#include "io/trace_store.h"
#include "pregel/job.h"

using graft::VertexId;
using graft::algos::GCTraits;

namespace {

uint64_t ScaleFromEnv() {
  const char* env = std::getenv("GRAFT_SCALE");
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v >= 1) return static_cast<uint64_t>(v);
  }
  return 100;
}

/// The paper-style DebugConfig for this scenario (cf. Figure 2).
class GCDebugConfig : public graft::debug::DebugConfig<GCTraits> {
 public:
  int NumRandomVerticesToCapture() const override { return 10; }
  bool CaptureNeighborsOfVertices() const override { return true; }
  uint64_t RandomSeed() const override { return 20150605; }
};

}  // namespace

int main() {
  uint64_t scale = ScaleFromEnv();
  std::printf("== Graft scenario 4.1: graph coloring ==\n");
  std::printf("dataset bipartite-1M-3M at scale 1/%llu\n\n",
              static_cast<unsigned long long>(scale));
  graft::graph::DatasetOptions dopts;
  dopts.scale_denominator = scale;
  auto graph = graft::graph::MakeDataset("bipartite-1M-3M", dopts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  graft::InMemoryTraceStore store;
  GCDebugConfig config;
  graft::pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = "gc-scenario";
  spec.options.num_workers = 2;
  spec.vertices = graft::algos::LoadGraphColoringVertices(*graph);
  spec.computation = graft::algos::MakeGraphColoringFactory(/*buggy=*/true);
  spec.master = graft::algos::MakeGraphColoringMasterFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  std::map<VertexId, int32_t> final_color;
  spec.post_run = [&](graft::pregel::Engine<GCTraits>& engine) {
    engine.ForEachVertex([&](const graft::pregel::Vertex<GCTraits>& v) {
      final_color[v.id()] = v.value().color;
    });
  };
  auto summary_or = graft::pregel::RunJob(std::move(spec));
  if (!summary_or.ok()) {
    std::fprintf(stderr, "%s\n", summary_or.status().ToString().c_str());
    return 1;
  }
  graft::pregel::JobRunSummary summary = std::move(summary_or).value();
  std::printf("run: %s\n", summary.stats.ToString().c_str());
  std::printf("captures: %llu (%llu trace bytes)\n\n",
              static_cast<unsigned long long>(summary.captures),
              static_cast<unsigned long long>(summary.trace_bytes));

  // "We go to the final superstep from the GUI to verify that the algorithm
  // is correct" — here we verify the whole coloring programmatically.
  auto conflicts = graft::algos::FindColoringConflicts(*graph, final_color);
  std::printf("adjacent same-color pairs: %zu\n", conflicts.size());
  if (conflicts.empty()) {
    std::printf("no conflict manifested at this scale; rerun with a larger "
                "graph (GRAFT_SCALE=10)\n");
    return 0;
  }
  auto [u, v] = conflicts.front();
  std::printf("focusing on conflicting pair (%lld, %lld), both color %d\n\n",
              static_cast<long long>(u), static_cast<long long>(v),
              final_color[u]);

  // "We replay the computation superstep by superstep and investigate how
  // they end up with the same color": find the superstep where a captured
  // vertex entered the MIS next to a same-set neighbor. The conflicting
  // pair may not be among the 10 random captures, so rerun capturing the
  // pair and its neighborhood specifically — the capture-by-id workflow.
  graft::debug::ConfigurableDebugConfig<GCTraits> focus_config;
  focus_config.set_vertices({u, v}).set_capture_neighbors(true);
  graft::InMemoryTraceStore focus_store;
  graft::pregel::JobSpec<GCTraits> focus_spec;
  focus_spec.options.job_id = "gc-scenario-focus";
  focus_spec.options.num_workers = 2;
  focus_spec.vertices = graft::algos::LoadGraphColoringVertices(*graph);
  focus_spec.computation = graft::algos::MakeGraphColoringFactory(true);
  focus_spec.master = graft::algos::MakeGraphColoringMasterFactory();
  focus_spec.debug_config = &focus_config;
  focus_spec.trace_store = &focus_store;
  if (auto focus = graft::pregel::RunJob(std::move(focus_spec));
      !focus.ok()) {
    std::fprintf(stderr, "%s\n", focus.status().ToString().c_str());
    return 1;
  }

  auto session = graft::debug::DebugSession<GCTraits>::Open(
      &focus_store, "gc-scenario-focus");
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  int64_t suspicious_superstep = -1;
  for (int64_t s : session->supersteps()) {
    auto tu = session->FindVertexTrace(s, u);
    auto tv = session->FindVertexTrace(s, v);
    if (tu.ok() && tv.ok() &&
        tu->value_after.state == graft::algos::GCState::kInSet &&
        tv->value_after.state == graft::algos::GCState::kInSet) {
      suspicious_superstep = s;
      break;
    }
  }
  if (suspicious_superstep < 0) {
    std::printf("could not locate the joint MIS-entry superstep\n");
    return 1;
  }
  std::printf(
      "both vertices entered the MIS in superstep %lld — suspicious!\n\n",
      static_cast<long long>(suspicious_superstep));

  graft::debug::GraftGui<GCTraits> gui(&focus_store, "gc-scenario-focus");
  if (gui.SeekTo(suspicious_superstep).ok()) {
    auto view = gui.NodeLinkView();
    if (view.ok()) std::printf("%s\n", view->c_str());
  }

  // "We generate a JUnit test case from the GUI replicating the lines of
  // code that executed for vertex u in superstep s."
  auto trace = session->FindVertexTrace(suspicious_superstep, u);
  if (trace.ok()) {
    graft::debug::CodegenBinding binding;
    binding.traits_type = "graft::algos::GCTraits";
    binding.includes = {"algos/graph_coloring.h"};
    binding.computation_decl =
        "graft::algos::GraphColoringComputation computation(/*buggy=*/true);";
    binding.test_suite = "GCVertexGraftTest";
    std::printf("--- generated reproduction test (paper Figure 6) ---\n%s\n",
                graft::debug::GenerateVertexTestCode(*trace, binding).c_str());

    // During line-by-line replay the user identifies the buggy code. Here
    // we demonstrate the diagnosis programmatically: replaying the same
    // context through the FIXED computation gives a different outcome.
    graft::algos::GraphColoringComputation buggy(true);
    graft::algos::GraphColoringComputation fixed(false);
    auto buggy_outcome = graft::debug::ReplayVertex(*trace, buggy);
    auto fixed_outcome = graft::debug::ReplayVertex(*trace, fixed);
    std::printf("replay (buggy): state -> %s\n",
                std::string(graft::algos::GCStateName(
                    buggy_outcome.value_after.state)).c_str());
    std::printf("replay (fixed): state -> %s\n",
                std::string(graft::algos::GCStateName(
                    fixed_outcome.value_after.state)).c_str());
  }

  // Confirm the fix end to end.
  auto fixed_run = graft::algos::RunGraphColoring(*graph, /*buggy=*/false);
  if (fixed_run.ok()) {
    auto fixed_conflicts =
        graft::algos::FindColoringConflicts(*graph, fixed_run->color);
    std::printf("\nfixed implementation: %zu conflicts, %d colors\n",
                fixed_conflicts.size(), fixed_run->num_colors);
  }
  return 0;
}
