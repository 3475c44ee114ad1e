// §4.3 Maximum-Weight Matching scenario — Graft finding an error in the
// *input graph* rather than in the code:
//
//   "We run MWM on a weighted version of the soc-Epinions graph, which is
//    encoded as undirected by having symmetric directed edges [...] However,
//    a small fraction of the edges incorrectly have different weights on
//    their symmetric edges. We run MWM on our erroneous soc-Epinions graph
//    and see that it enters an infinite loop. We then run MWM with Graft and
//    capture all active vertices after superstep 500, by which point the
//    active graph is fairly small. We notice that some of the edge weights
//    in the small remaining graph are asymmetric, which is the cause of the
//    algorithm not converging."

#include <cstdio>
#include <cstdlib>

#include "algos/max_weight_matching.h"
#include "debug/views/gui_views.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"

using graft::VertexId;
using graft::algos::MWMTraits;

namespace {

uint64_t ScaleFromEnv() {
  const char* env = std::getenv("GRAFT_SCALE");
  if (env != nullptr && std::atoll(env) >= 1) {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return 40;
}

/// Capture every active vertex, but only after the active graph has become
/// small (the paper uses superstep 500; scaled down with the graph).
class MWMDebugConfig : public graft::debug::DebugConfig<MWMTraits> {
 public:
  explicit MWMDebugConfig(int64_t from_superstep)
      : from_superstep_(from_superstep) {}
  bool CaptureAllActiveVertices() const override { return true; }
  bool ShouldCaptureSuperstep(int64_t superstep) const override {
    return superstep >= from_superstep_;
  }

 private:
  int64_t from_superstep_;
};

}  // namespace

int main() {
  uint64_t scale = ScaleFromEnv();
  constexpr int64_t kMaxSupersteps = 700;
  constexpr int64_t kCaptureFrom = 500;
  std::printf("== Graft scenario 4.3: max-weight matching ==\n");
  std::printf("dataset soc-Epinions (undirected, weighted) at scale 1/%llu\n\n",
              static_cast<unsigned long long>(scale));

  // Weighted undirected soc-Epinions with a small fraction of corrupted
  // symmetric weights.
  graft::graph::DatasetOptions dopts;
  dopts.scale_denominator = scale;
  dopts.undirected = true;
  auto graph = graft::graph::MakeDataset("soc-Epinions", dopts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  graft::graph::AssignRandomWeights(&*graph, 1.0, 100.0, /*seed=*/77,
                                    /*symmetric=*/true);
  graft::graph::SimpleGraph corrupted = *graph;
  uint64_t bad_pairs =
      graft::graph::CorruptSymmetricWeights(&corrupted, 0.001, /*seed=*/13);
  // Among the randomly corrupted pairs, some create circular preferences;
  // inject one such cycle deterministically so the run reliably exhibits
  // the paper's symptom.
  auto cycle = graft::graph::InjectPreferenceCycle(&corrupted);
  if (cycle.ok()) bad_pairs += 3;
  std::printf("corrupted %llu symmetric weight pairs (~0.1%%)\n\n",
              static_cast<unsigned long long>(bad_pairs));

  // 1. Plain run "enters an infinite loop" — i.e. hits the superstep cap.
  auto plain = graft::algos::RunMaxWeightMatching(corrupted, 2, kMaxSupersteps);
  if (!plain.ok()) {
    std::fprintf(stderr, "%s\n", plain.status().ToString().c_str());
    return 1;
  }
  std::printf("plain run: %s\n", plain->stats.ToString().c_str());
  std::printf("converged: %s\n\n", plain->converged ? "yes" : "NO — looping");

  // 2. Rerun under Graft capturing all active vertices after superstep 500.
  graft::InMemoryTraceStore store;
  MWMDebugConfig config(kCaptureFrom);
  graft::pregel::JobSpec<MWMTraits> spec;
  spec.options.job_id = "mwm-scenario";
  spec.options.num_workers = 2;
  spec.options.max_supersteps = kMaxSupersteps;
  spec.vertices = graft::algos::LoadMatchingVertices(corrupted);
  spec.computation = graft::algos::MakeMaxWeightMatchingFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = graft::pregel::RunJob(std::move(spec));
  if (!summary_or.ok()) {
    std::fprintf(stderr, "%s\n", summary_or.status().ToString().c_str());
    return 1;
  }
  graft::pregel::JobRunSummary summary = std::move(summary_or).value();
  std::printf("debug run captured %llu active-vertex contexts from superstep "
              "%lld on (%llu trace bytes)\n\n",
              static_cast<unsigned long long>(summary.captures),
              static_cast<long long>(kCaptureFrom),
              static_cast<unsigned long long>(summary.trace_bytes));

  // 3. The tabular view of the small remaining active graph.
  graft::debug::GraftGui<MWMTraits> gui(&store, "mwm-scenario");
  gui.SeekLast();
  auto tabular = gui.TabularView();
  if (tabular.ok()) std::printf("%s\n", tabular->c_str());

  // 4. "We notice that some of the edge weights in the small remaining graph
  //    are asymmetric": check the captured vertices' edges against the
  //    reverse direction in the input graph.
  auto snapshot = gui.Snapshot();
  if (snapshot.ok()) {
    int asymmetric_found = 0;
    for (const auto& t : snapshot->traces) {
      for (const auto& e : t.edges) {
        auto reverse = corrupted.EdgeWeight(e.target, t.id);
        if (reverse.ok() && *reverse != e.value.value) {
          if (asymmetric_found < 5) {
            std::printf(
                "ASYMMETRY: w(%lld->%lld)=%.3f but w(%lld->%lld)=%.3f\n",
                static_cast<long long>(t.id), static_cast<long long>(e.target),
                e.value.value, static_cast<long long>(e.target),
                static_cast<long long>(t.id), *reverse);
          }
          ++asymmetric_found;
        }
      }
    }
    std::printf("asymmetric weight pairs among captured active vertices: %d\n"
                "=> the input graph, not the algorithm, is at fault\n\n",
                asymmetric_found);
  }

  // 5. Fix the input graph and rerun: converges.
  auto fixed = graft::algos::RunMaxWeightMatching(*graph, 2, kMaxSupersteps);
  if (fixed.ok()) {
    std::printf("run on repaired graph: %s\n", fixed->stats.ToString().c_str());
    std::printf("converged: %s, matched pairs: %zu, total weight: %.1f\n",
                fixed->converged ? "yes" : "no", fixed->matching.size(),
                fixed->total_weight);
    std::string validation =
        graft::algos::ValidateMatching(*graph, fixed->matching);
    std::printf("matching valid: %s\n",
                validation.empty() ? "yes" : validation.c_str());
  }
  return 0;
}
