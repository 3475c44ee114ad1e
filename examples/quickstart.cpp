// Quickstart: run a Pregel job under the Graft debugger, step through the
// captured supersteps in the (terminal) GUI, and generate a reproduction
// test for one vertex.
//
//   $ ./quickstart [trace_dir]
//
// With a trace_dir argument, traces are written as real files (the "HDFS"
// layout); otherwise an in-memory store is used.

#include <cstdio>
#include <memory>

#include "algos/connected_components.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "debug/views/gui_views.h"
#include "debug/views/text_table.h"
#include "graph/builder.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

using graft::VertexId;
using graft::algos::CCTraits;

int main(int argc, char** argv) {
  // 1. Build a small input graph: two components (a ring and a path).
  graft::graph::GraphBuilder builder;
  for (VertexId v = 0; v < 6; ++v) (void)builder.AddVertex(v);
  (void)builder.AddUndirectedEdge(0, 1);
  (void)builder.AddUndirectedEdge(1, 2);
  (void)builder.AddUndirectedEdge(2, 0);
  (void)builder.AddUndirectedEdge(3, 4);
  (void)builder.AddUndirectedEdge(4, 5);
  graft::graph::SimpleGraph graph = builder.Build();

  // 2. Pick a trace store (the paper logs to HDFS; we log to a directory or
  //    to memory).
  std::unique_ptr<graft::TraceStore> store;
  if (argc > 1) {
    auto opened = graft::LocalDirTraceStore::Open(argv[1]);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open trace dir: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
  } else {
    store = std::make_unique<graft::InMemoryTraceStore>();
  }

  // 3. Describe what to capture — a DebugConfig, as in the paper's Fig. 2.
  class QuickstartDebugConfig : public graft::debug::DebugConfig<CCTraits> {
   public:
    std::vector<VertexId> VerticesToCapture() const override { return {0, 4}; }
    bool CaptureNeighborsOfVertices() const override { return true; }
  };
  QuickstartDebugConfig config;

  // 4. Run connected components under Graft: one JobSpec carries the
  //    engine options, the input graph, the computation, and the debugger
  //    configuration.
  graft::pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "quickstart-cc";
  spec.options.num_workers = 2;
  spec.vertices = graft::pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return graft::pregel::Int64Value{0}; });
  spec.computation = graft::algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = store.get();
  auto summary_or = graft::pregel::RunJob(std::move(spec));
  if (!summary_or.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 summary_or.status().ToString().c_str());
    return 1;
  }
  graft::pregel::JobRunSummary summary = std::move(summary_or).value();
  std::printf("job: %s\n", summary.stats.ToString().c_str());
  std::printf("Graft captured %llu vertex contexts (%llu trace bytes)\n\n",
              static_cast<unsigned long long>(summary.captures),
              static_cast<unsigned long long>(summary.trace_bytes));

  // 4b. Where did the time go? The engine's run report breaks every
  //     superstep into phases, and the capture accounting shows what the
  //     debugger itself cost.
  std::printf("--- per-superstep profile ---\n%s\n",
              graft::debug::RenderSuperstepProfile(summary.stats.report)
                  .c_str());
  std::printf("%s\n",
              graft::debug::RenderCaptureProfile(summary.stats.report)
                  .c_str());

  // 5. Step through the captured supersteps in the GUI.
  graft::debug::GraftGui<CCTraits> gui(store.get(), "quickstart-cc");
  gui.SeekFirst();
  do {
    auto view = gui.NodeLinkView();
    if (view.ok()) std::printf("%s\n", view->c_str());
  } while (gui.NextSuperstep());

  gui.SeekLast();
  auto tabular = gui.TabularView();
  if (tabular.ok()) std::printf("%s\n", tabular->c_str());

  // 6. "Reproduce Vertex Context": open the job's DebugSession (manifest-
  //    indexed point lookups) and generate a standalone test replaying
  //    vertex 4 in superstep 1.
  auto session =
      graft::debug::DebugSession<CCTraits>::Open(store.get(), "quickstart-cc");
  if (session.ok()) {
    graft::debug::CodegenBinding binding;
    binding.traits_type = "graft::algos::CCTraits";
    binding.includes = {"algos/connected_components.h"};
    binding.computation_decl =
        "graft::algos::ConnectedComponentsComputation computation;";
    binding.test_suite = "CCGraftTest";
    auto code = graft::debug::GenerateVertexTestCodeAt(*session, 1, 4, binding);
    if (code.ok()) {
      std::printf("--- generated reproduction test ---\n%s\n", code->c_str());
    }

    // ...and prove in-process that the replay is faithful.
    auto trace = session->FindVertexTrace(1, 4);
    if (trace.ok()) {
      graft::algos::ConnectedComponentsComputation computation;
      auto fidelity = graft::debug::CheckReplayFidelity(*trace, computation);
      std::printf(
          "replay fidelity: %s\n",
          fidelity.Faithful() ? "exact" : fidelity.mismatch_detail.c_str());
    }
  }
  return 0;
}
