// §3.4 "Debugging Master.compute()": Graft captures the master's context —
// the aggregator values — in every superstep automatically, and can
// reproduce any superstep's master.compute() execution.
//
// The paper: "the most common bug inside master.compute() is setting the
// phase of the computation incorrectly, which generally leads to infinite
// superstep executions or premature termination."
//
// Our buggy GraphColoringMaster consults the wrong aggregator after a COLOR
// phase (gc.undecided instead of gc.uncolored) and halts the job after the
// very first color. This walkthrough: run the buggy job, notice most
// vertices are uncolored, step through the captured master contexts, spot
// the halt decision that contradicts the uncolored count, generate the
// master reproduction test, and confirm the fixed master replays
// differently on the very same context.

#include <cstdio>

#include "algos/graph_coloring.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"

using graft::VertexId;
using graft::algos::GCTraits;

int main() {
  std::printf("== Graft walkthrough: debugging master.compute() ==\n\n");
  graft::graph::SimpleGraph graph =
      graft::graph::GenerateRegularBipartite(2000, 3, /*seed=*/5);

  // 1. Run graph coloring with the BUGGY master under Graft. No vertex
  //    capture configured — master contexts are captured automatically.
  graft::debug::ConfigurableDebugConfig<GCTraits> config;
  graft::InMemoryTraceStore store;
  graft::pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = "gc-master-bug";
  spec.vertices = graft::algos::LoadGraphColoringVertices(graph);
  spec.computation = graft::algos::MakeGraphColoringFactory(/*buggy=*/false);
  spec.master =
      graft::algos::MakeGraphColoringMasterFactory(/*buggy_master=*/true);
  spec.debug_config = &config;
  spec.trace_store = &store;
  int64_t uncolored = 0;
  spec.post_run = [&](graft::pregel::Engine<GCTraits>& engine) {
    engine.ForEachVertex([&](const graft::pregel::Vertex<GCTraits>& v) {
      if (v.value().color < 0) ++uncolored;
    });
  };
  auto summary_or = graft::pregel::RunJob(std::move(spec));
  if (!summary_or.ok()) {
    std::fprintf(stderr, "%s\n", summary_or.status().ToString().c_str());
    return 1;
  }
  graft::pregel::JobRunSummary summary = std::move(summary_or).value();
  std::printf("run: %s\n", summary.stats.ToString().c_str());
  std::printf("uncolored vertices at termination: %lld of %zu  <-- premature "
              "termination!\n\n",
              static_cast<long long>(uncolored), graph.NumVertices());

  // 2. Visualize the captured master contexts superstep by superstep.
  auto session =
      graft::debug::DebugSession<GCTraits>::Open(&store, "gc-master-bug");
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  const std::vector<int64_t>& supersteps = session->supersteps();
  std::printf("captured master contexts: %zu supersteps\n", supersteps.size());
  graft::debug::MasterTrace halting_trace;
  for (int64_t s : supersteps) {
    auto trace = session->Master(s);
    if (!trace.ok()) continue;
    std::printf("  superstep %3lld: phase=%-19s undecided=%-4s uncolored=%-6s "
                "halted=%s\n",
                static_cast<long long>(s),
                trace->aggregators.at(graft::algos::kGCPhaseAggregator)
                    .ToString().c_str(),
                trace->aggregators.at(graft::algos::kGCUndecidedAggregator)
                    .ToString().c_str(),
                trace->aggregators.at(graft::algos::kGCUncoloredAggregator)
                    .ToString().c_str(),
                trace->halted ? "YES" : "no");
    if (trace->halted) halting_trace = *trace;
  }
  std::printf("\nsuspicious: the master halted while uncolored=%s — the halt "
              "decision used the wrong aggregator\n\n",
              halting_trace.aggregators
                  .at(graft::algos::kGCUncoloredAggregator)
                  .ToString().c_str());

  // 3. "Reproduce Master Context": generate the JUnit-equivalent test file
  //    for the halting superstep.
  graft::debug::MasterCodegenBinding binding;
  binding.includes = {"algos/graph_coloring.h"};
  binding.master_decl =
      "graft::algos::GraphColoringMaster master(/*buggy=*/true);";
  binding.test_suite = "GCMasterGraftTest";
  std::printf("--- generated master reproduction test ---\n%s\n",
              graft::debug::GenerateMasterTestCode(halting_trace, binding)
                  .c_str());

  // 4. Diagnosis via replay: the same captured context, through the buggy
  //    and the fixed master.
  graft::algos::GraphColoringMaster buggy(true);
  graft::algos::GraphColoringMaster fixed(false);
  auto buggy_ctx = graft::debug::ReplayMaster(halting_trace, buggy);
  auto fixed_ctx = graft::debug::ReplayMaster(halting_trace, fixed);
  std::printf("replay (buggy master): halts=%s\n",
              buggy_ctx.IsHalted() ? "YES" : "no");
  std::printf("replay (fixed master): halts=%s, next phase=%s\n\n",
              fixed_ctx.IsHalted() ? "YES" : "no",
              fixed_ctx.GetAggregated(graft::algos::kGCPhaseAggregator)
                  .ToString().c_str());

  // 5. Confirm the fix end to end.
  auto good = graft::algos::RunGraphColoring(graph, false);
  if (good.ok()) {
    int64_t still_uncolored = 0;
    for (const auto& [id, color] : good->color) {
      if (color < 0) ++still_uncolored;
    }
    std::printf("fixed master: %lld uncolored, %d colors, %zu conflicts\n",
                static_cast<long long>(still_uncolored), good->num_colors,
                graft::algos::FindColoringConflicts(graph, good->color)
                    .size());
  }
  return 0;
}
