// §4.2 Random Walk scenario:
//
//   "To optimize the memory and network I/O, our implementation declares the
//    counters and messages as 16-bit short primitive types. However, if a
//    vertex u has a large number of walkers [...] u might send v a negative
//    number of walkers. To detect this bug using Graft, we run RW on the
//    web-BS graph with a simple message value constraint that messages are
//    non-negative. After the run we see that the message value constraint
//    icon is red in some supersteps, and in the Violations and Exceptions
//    View we identify which vertices are sending negative messages."
//
// We run the short-counter RW on a scaled web-BS (env GRAFT_SCALE, default
// 1/100) with the constraint `msg.value >= 0`, walk the GUI to the first
// "red" superstep, show the Violations view, generate the reproduction test
// for an offending vertex, and demonstrate the overflow by replaying it.

#include <cstdio>
#include <cstdlib>

#include "algos/random_walk.h"
#include "debug/codegen.h"
#include "debug/reproducer.h"
#include "debug/views/gui_views.h"
#include "graph/datasets.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

using graft::VertexId;
using graft::algos::RWShortTraits;

namespace {

uint64_t ScaleFromEnv() {
  const char* env = std::getenv("GRAFT_SCALE");
  if (env != nullptr && std::atoll(env) >= 1) {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return 100;
}

/// Paper Figure 2, almost verbatim: the message-value constraint.
class RWDebugConfig : public graft::debug::DebugConfig<RWShortTraits> {
 public:
  bool HasMessageValueConstraint() const override { return true; }
  bool MessageValueConstraint(const graft::pregel::ShortValue& msg,
                              VertexId /*src*/, VertexId /*dst*/,
                              int64_t /*superstep*/) const override {
    return msg.value >= 0;
  }
};

}  // namespace

int main() {
  constexpr int kSteps = 12;
  constexpr int64_t kWalkersPerVertex = 100;
  uint64_t scale = ScaleFromEnv();
  std::printf("== Graft scenario 4.2: random walk (short counters) ==\n");
  std::printf("dataset web-BS at scale 1/%llu, %d steps, %lld walkers/vertex\n\n",
              static_cast<unsigned long long>(scale), kSteps,
              static_cast<long long>(kWalkersPerVertex));
  graft::graph::DatasetOptions dopts;
  dopts.scale_denominator = scale;
  auto graph = graft::graph::MakeDataset("web-BS", dopts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  graft::InMemoryTraceStore store;
  RWDebugConfig config;
  graft::pregel::JobSpec<RWShortTraits> spec;
  spec.options.job_id = "rw-scenario";
  spec.options.num_workers = 2;
  spec.vertices = graft::pregel::LoadUnweighted<RWShortTraits>(
      *graph, [](VertexId) { return graft::pregel::Int64Value{0}; });
  spec.computation = graft::algos::MakeRandomWalkFactory<RWShortTraits>(
      kSteps, kWalkersPerVertex);
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = graft::pregel::RunJob(std::move(spec));
  if (!summary_or.ok()) {
    std::fprintf(stderr, "%s\n", summary_or.status().ToString().c_str());
    return 1;
  }
  graft::pregel::JobRunSummary summary = std::move(summary_or).value();
  std::printf("run: %s\n", summary.stats.ToString().c_str());
  std::printf("constraint violations: %llu across %llu captured contexts\n\n",
              static_cast<unsigned long long>(summary.violations),
              static_cast<unsigned long long>(summary.captures));
  if (summary.violations == 0) {
    std::printf("no overflow manifested at this scale; rerun with "
                "GRAFT_SCALE=20 (bigger hubs funnel more walkers)\n");
    return 0;
  }

  // "The message value constraint icon is red in some supersteps": find the
  // first one and open the Violations & Exceptions view there.
  graft::debug::GraftGui<RWShortTraits> gui(&store, "rw-scenario");
  gui.SeekFirst();
  do {
    auto snapshot = gui.Snapshot();
    if (snapshot.ok() && snapshot->AnyMessageViolation()) break;
  } while (gui.NextSuperstep());
  std::printf("first red [M] superstep: %lld\n\n",
              static_cast<long long>(gui.current_superstep()));
  auto violations_view = gui.ViolationsView();
  if (violations_view.ok()) std::printf("%s\n", violations_view->c_str());

  // "We generate a JUnit test case from a vertex v that has sent a negative
  // message, and detect that the bug is due to overflowing of the short
  // type counters."
  auto snapshot = gui.Snapshot();
  if (!snapshot.ok()) return 1;
  const graft::debug::VertexTrace<RWShortTraits>* offender = nullptr;
  for (const auto& t : snapshot->traces) {
    if ((t.reasons & graft::debug::kReasonMessageValue) != 0) {
      offender = &t;
      break;
    }
  }
  if (offender == nullptr) return 1;
  std::printf("offending vertex %lld held %s walkers before the send\n",
              static_cast<long long>(offender->id),
              offender->value_after.ToString().c_str());

  graft::debug::CodegenBinding binding;
  binding.traits_type = "graft::algos::RWShortTraits";
  binding.includes = {"algos/random_walk.h"};
  binding.computation_decl =
      "graft::algos::RandomWalkComputation<graft::algos::RWShortTraits> "
      "computation(12, 100);";
  binding.test_suite = "RWGraftTest";
  std::printf("--- generated reproduction test ---\n%s\n",
              graft::debug::GenerateVertexTestCode(*offender, binding).c_str());

  // Replaying the context through the fixed (int64) computation shows all
  // counters non-negative — the diagnosis.
  graft::algos::RandomWalkComputation<RWShortTraits> buggy(kSteps,
                                                           kWalkersPerVertex);
  auto outcome = graft::debug::ReplayVertex(*offender, buggy);
  int negative = 0;
  for (const auto& [target, msg] : outcome.sent) {
    (void)target;
    if (msg.value < 0) ++negative;
  }
  std::printf("replay of the captured context re-sends %d negative counters "
              "(short overflow past 32767)\n\n",
              negative);

  // Fixed version: walkers are conserved.
  auto fixed = graft::algos::RunRandomWalk(*graph, kSteps, kWalkersPerVertex);
  if (fixed.ok()) {
    std::printf("fixed implementation: total walkers at end = %lld "
                "(expected %lld)\n",
                static_cast<long long>(fixed->total_walkers),
                static_cast<long long>(
                    kWalkersPerVertex *
                    static_cast<int64_t>(graph->NumVertices())));
  }
  return 0;
}
