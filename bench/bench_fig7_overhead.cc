// Figure 7 — "Graft's performance overhead" (§5).
//
// For each (algorithm, dataset) cluster, runs the job without Graft
// ("no-debug") and under each of the five Table 3 DebugConfig
// configurations, printing the normalized mean runtime (no-debug = 1.00),
// the standard deviation across repetitions (the paper's error bars), and
// the total number of vertex captures (the number printed on each bar).
//
// Datasets are the Table 2 graphs scaled to one machine (GRAFT_BENCH_SCALE
// multiplies the per-dataset default denominator; GRAFT_BENCH_REPS sets
// repetitions, default 3, paper used 5).
//
// Timing comes from the engine's own run report (JobStats::report), not an
// external stopwatch, so the numbers here are exactly what the obs layer
// exports; the "overhead" column is the measured capture cost
// (serialize + trace-store append seconds) from the same report.
//
// Paper shape targets: DC-sp <= ~1.16, DC-sp+nbr <= ~1.17, DC-msg/DC-vv
// <= ~1.20, DC-full <= ~1.29; captures between 1 and ~1.2M.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "algos/graph_coloring.h"
#include "algos/max_weight_matching.h"
#include "algos/random_walk.h"
#include "debug/views/text_table.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace {

using graft::VertexId;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && std::atoll(v) > 0) ? std::atoll(v) : fallback;
}

struct Sample {
  double mean_seconds = 0;
  double stdev_seconds = 0;
  double overhead_seconds = 0;  // mean capture overhead from the run report
  uint64_t captures = 0;
  uint64_t violations = 0;
  uint64_t trace_bytes = 0;
};

struct Row {
  std::string config;
  Sample sample;
};

/// The five Table 3 configurations, instantiated per algorithm.
enum class DC { kNoDebug, kSp, kSpNbr, kMsg, kVv, kFull };
const char* DCName(DC dc) {
  switch (dc) {
    case DC::kNoDebug: return "no-debug";
    case DC::kSp:      return "DC-sp";
    case DC::kSpNbr:   return "DC-sp+nbr";
    case DC::kMsg:     return "DC-msg";
    case DC::kVv:      return "DC-vv";
    case DC::kFull:    return "DC-full";
  }
  return "?";
}

/// Per-algorithm pieces the generic harness needs.
template <typename Traits>
struct ClusterBinding {
  std::string name;
  std::function<std::vector<graft::pregel::Vertex<Traits>>()> load;
  graft::pregel::ComputationFactory<Traits> factory;
  graft::pregel::MasterFactory master;  // may be nullptr
  typename graft::pregel::Engine<Traits>::Options options;
  /// "Message/vertex values are non-negative" for this algorithm's types.
  typename graft::debug::ConfigurableDebugConfig<Traits>::MessagePredicate
      message_nonnegative;
  typename graft::debug::ConfigurableDebugConfig<Traits>::VertexValuePredicate
      vertex_value_nonnegative;
  /// Ids present in every dataset, used for DC-sp / DC-sp+nbr / DC-full.
  std::vector<VertexId> specified5;
  std::vector<VertexId> specified10;
};

template <typename Traits>
graft::debug::ConfigurableDebugConfig<Traits> MakeConfig(
    DC dc, const ClusterBinding<Traits>& binding) {
  graft::debug::ConfigurableDebugConfig<Traits> config;
  switch (dc) {
    case DC::kNoDebug:
      break;
    case DC::kSp:  // "Captures 5 specified vertices"
      config.set_vertices(binding.specified5);
      break;
    case DC::kSpNbr:  // "...and their neighbors"
      config.set_vertices(binding.specified5).set_capture_neighbors(true);
      break;
    case DC::kMsg:  // "message values are non-negative"
      config.set_message_value_constraint(binding.message_nonnegative);
      break;
    case DC::kVv:  // "vertex values are non-negative"
      config.set_vertex_value_constraint(binding.vertex_value_nonnegative);
      break;
    case DC::kFull:  // 10 specified + neighbors + both constraints
      config.set_vertices(binding.specified10)
          .set_capture_neighbors(true)
          .set_message_value_constraint(binding.message_nonnegative)
          .set_vertex_value_constraint(binding.vertex_value_nonnegative);
      break;
  }
  return config;
}

template <typename Traits>
Sample RunConfig(DC dc, const ClusterBinding<Traits>& binding, int reps) {
  std::vector<double> seconds;
  Sample sample;
  double overhead_sum = 0;
  for (int r = 0; r < reps; ++r) {
    auto vertices = binding.load();
    if (dc == DC::kNoDebug) {
      // Plain engine, no instrumentation at all; timing from its report.
      graft::pregel::Engine<Traits> engine(binding.options,
                                           std::move(vertices),
                                           binding.factory, binding.master);
      auto stats = engine.Run();
      GRAFT_CHECK(stats.ok()) << stats.status();
      seconds.push_back(stats->report.total_seconds);
    } else {
      auto config = MakeConfig(dc, binding);
      graft::InMemoryTraceStore store;
      graft::pregel::JobSpec<Traits> spec;
      spec.options = binding.options;
      spec.vertices = std::move(vertices);
      spec.computation = binding.factory;
      spec.master = binding.master;
      spec.debug_config = &config;
      spec.trace_store = &store;
      // GRAFT_CAPTURE_ASYNC=1 re-measures every bar with the spooling sink
      // (ISSUE 5): trace bytes are identical, only the critical-path cost
      // moves.
      spec.capture_io.async = EnvInt("GRAFT_CAPTURE_ASYNC", 0) > 0;
      auto summary_or = graft::pregel::RunJob(std::move(spec));
      GRAFT_CHECK(summary_or.ok()) << summary_or.status();
      const graft::pregel::JobRunSummary& summary = *summary_or;
      GRAFT_CHECK(summary.job_status.ok()) << summary.job_status;
      sample.captures = summary.captures;
      sample.violations = summary.violations;
      sample.trace_bytes = summary.trace_bytes;
      seconds.push_back(summary.stats.report.total_seconds);
      overhead_sum += summary.stats.report.capture.OverheadSeconds();
    }
  }
  sample.overhead_seconds = overhead_sum / reps;
  double sum = 0;
  for (double s : seconds) sum += s;
  sample.mean_seconds = sum / seconds.size();
  double var = 0;
  for (double s : seconds) {
    var += (s - sample.mean_seconds) * (s - sample.mean_seconds);
  }
  sample.stdev_seconds =
      seconds.size() > 1 ? std::sqrt(var / (seconds.size() - 1)) : 0.0;
  return sample;
}

std::vector<std::string> g_csv;

template <typename Traits>
void RunCluster(const ClusterBinding<Traits>& binding, int reps) {
  std::printf("--- cluster %s ---\n", binding.name.c_str());
  std::vector<Row> rows;
  for (DC dc : {DC::kNoDebug, DC::kSp, DC::kSpNbr, DC::kMsg, DC::kVv,
                DC::kFull}) {
    rows.push_back(Row{DCName(dc), RunConfig(dc, binding, reps)});
    std::printf("  %-9s done (%.3fs mean)\n", DCName(dc),
                rows.back().sample.mean_seconds);
  }
  double baseline = rows.front().sample.mean_seconds;
  graft::debug::TextTable table({"config", "normalized", "stdev",
                                 "overhead_ms", "captures", "violations",
                                 "trace bytes"});
  for (const Row& row : rows) {
    double norm = row.sample.mean_seconds / baseline;
    table.AddRow({row.config, graft::StrFormat("%.3f", norm),
                  graft::StrFormat("%.3f", row.sample.stdev_seconds / baseline),
                  graft::StrFormat("%.3f", row.sample.overhead_seconds * 1e3),
                  std::to_string(row.sample.captures),
                  std::to_string(row.sample.violations),
                  graft::HumanBytes(row.sample.trace_bytes)});
    g_csv.push_back(graft::StrFormat(
        "%s,%s,%.4f,%.4f,%.6f,%llu,%llu,%llu", binding.name.c_str(),
        row.config.c_str(), norm, row.sample.stdev_seconds / baseline,
        row.sample.overhead_seconds,
        static_cast<unsigned long long>(row.sample.captures),
        static_cast<unsigned long long>(row.sample.violations),
        static_cast<unsigned long long>(row.sample.trace_bytes)));
  }
  std::printf("%s\n", table.Render().c_str());
}

graft::graph::SimpleGraph LoadScaled(const std::string& name, uint64_t denom,
                                     bool undirected, uint64_t extra_scale) {
  graft::graph::DatasetOptions options;
  options.scale_denominator = denom * extra_scale;
  options.undirected = undirected;
  auto graph = graft::graph::MakeDataset(name, options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  std::printf("dataset %s at scale 1/%llu: %zu vertices, %llu directed "
              "edges\n",
              name.c_str(),
              static_cast<unsigned long long>(options.scale_denominator),
              graph->NumVertices(),
              static_cast<unsigned long long>(graph->NumDirectedEdges()));
  return std::move(graph).value();
}

std::vector<VertexId> PickIds(const graft::graph::SimpleGraph& g, int n) {
  // Deterministic spread across the id space.
  std::vector<VertexId> ids;
  size_t stride = std::max<size_t>(1, g.NumVertices() / (n + 1));
  for (int i = 1; i <= n; ++i) ids.push_back(g.IdAt((i * stride) % g.NumVertices()));
  return ids;
}

}  // namespace

int main() {
  const int reps = static_cast<int>(EnvInt("GRAFT_BENCH_REPS", 3));
  const uint64_t extra = static_cast<uint64_t>(EnvInt("GRAFT_BENCH_SCALE", 1));
  std::printf("== Figure 7: Graft's performance overhead ==\n");
  std::printf("(repetitions per bar: %d; Table 2 datasets scaled to one "
              "machine, GRAFT_BENCH_SCALE=%llu)\n\n",
              reps, static_cast<unsigned long long>(extra));

  // --- GC on bipartite-2B-6B (scaled) ---
  {
    using Traits = graft::algos::GCTraits;
    auto graph = LoadScaled("bipartite-2B-6B", 16384, false, extra);
    ClusterBinding<Traits> binding;
    binding.name = "GC-bip";
    binding.load = [&graph] {
      return graft::algos::LoadGraphColoringVertices(graph);
    };
    binding.factory = graft::algos::MakeGraphColoringFactory(false);
    binding.master = graft::algos::MakeGraphColoringMasterFactory();
    binding.options.num_workers = 2;
    binding.options.job_id = "fig7-gc";
    binding.message_nonnegative =
        [](const graft::algos::GCMessage& m, VertexId, VertexId, int64_t) {
          return m.r >= 0.0;
        };
    binding.vertex_value_nonnegative =
        [](const graft::algos::GCVertexValue& v, VertexId, int64_t) {
          return v.color >= -1;
        };
    binding.specified5 = PickIds(graph, 5);
    binding.specified10 = PickIds(graph, 10);
    RunCluster(binding, reps);
  }

  // --- RW (short counters, §4.2 version) on sk-2005 and twitter ---
  for (const auto& [dataset, cluster, denom] :
       {std::tuple<const char*, const char*, uint64_t>{"sk-2005", "RW-sk",
                                                       1024},
        std::tuple<const char*, const char*, uint64_t>{"twitter", "RW-tw",
                                                       512}}) {
    using Traits = graft::algos::RWShortTraits;
    auto graph = LoadScaled(dataset, denom, false, extra);
    ClusterBinding<Traits> binding;
    binding.name = cluster;
    binding.load = [&graph] {
      return graft::pregel::LoadUnweighted<Traits>(
          graph, [](VertexId) { return graft::pregel::Int64Value{0}; });
    };
    binding.factory =
        graft::algos::MakeRandomWalkFactory<Traits>(/*num_steps=*/10,
                                                    /*initial_walkers=*/100);
    binding.master = nullptr;
    binding.options.num_workers = 2;
    binding.options.job_id = std::string("fig7-") + cluster;
    binding.message_nonnegative =
        [](const graft::pregel::ShortValue& m, VertexId, VertexId, int64_t) {
          return m.value >= 0;
        };
    binding.vertex_value_nonnegative =
        [](const graft::pregel::Int64Value& v, VertexId, int64_t) {
          return v.value >= 0;
        };
    binding.specified5 = PickIds(graph, 5);
    binding.specified10 = PickIds(graph, 10);
    RunCluster(binding, reps);
  }

  // --- MWM on twitter (undirected, weighted) ---
  {
    using Traits = graft::algos::MWMTraits;
    auto graph = LoadScaled("twitter", 1024, true, extra);
    graft::graph::AssignRandomWeights(&graph, 1.0, 100.0, 99, true);
    ClusterBinding<Traits> binding;
    binding.name = "MWM-tw";
    binding.load = [&graph] {
      return graft::algos::LoadMatchingVertices(graph);
    };
    binding.factory = graft::algos::MakeMaxWeightMatchingFactory();
    binding.master = nullptr;
    binding.options.num_workers = 2;
    binding.options.job_id = "fig7-mwm";
    binding.options.max_supersteps = 300;
    binding.message_nonnegative =
        [](const graft::algos::MWMMessage& m, VertexId, VertexId, int64_t) {
          return m.sender >= 0;
        };
    binding.vertex_value_nonnegative =
        [](const graft::algos::MWMVertexValue& v, VertexId, int64_t) {
          return v.matched_to >= -1;
        };
    binding.specified5 = PickIds(graph, 5);
    binding.specified10 = PickIds(graph, 10);
    RunCluster(binding, reps);
  }

  std::printf("csv,cluster,config,normalized,stdev,overhead_seconds,captures,"
              "violations,trace_bytes\n");
  for (const std::string& line : g_csv) std::printf("csv,%s\n", line.c_str());
  std::printf(
      "\npaper shape targets: DC-sp<=~1.16 DC-sp+nbr<=~1.17 "
      "DC-msg/DC-vv<=~1.20 DC-full<=~1.29\n");
  return 0;
}
