#include "service/algo_catalog.h"

#include <limits>
#include <memory>
#include <utility>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "common/string_util.h"
#include "debug/codegen.h"
#include "debug/debug_config.h"
#include "debug/debug_session.h"
#include "graph/generators.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace service {

namespace {

/// Builds the capture config every algo shares from the request's capture
/// knobs. Returned by value; the runner keeps it alive across RunJob.
template <pregel::JobTraits Traits>
debug::ConfigurableDebugConfig<Traits> MakeCaptureConfig(
    const JobRequest& request) {
  debug::ConfigurableDebugConfig<Traits> config;
  config.set_capture_all_active(request.capture_all)
      .set_vertices(request.capture_vertices)
      .set_num_random(static_cast<int>(request.num_random))
      .set_capture_neighbors(request.capture_neighbors)
      .set_max_captures(static_cast<uint64_t>(request.max_captures))
      .set_random_seed(request.engine_seed);
  return config;
}

/// The shared RunJob scaffolding: capture config, store, telemetry,
/// sanitizer, checkpointing. The caller fills the algorithm-specific fields
/// (vertices, computation, master, combiner) before passing the spec in.
template <pregel::JobTraits Traits>
Status RunWithCapture(const JobRequest& request, const RunEnv& env,
                      pregel::JobSpec<Traits> spec) {
  debug::ConfigurableDebugConfig<Traits> config =
      MakeCaptureConfig<Traits>(request);
  spec.options.num_workers = request.workers;
  spec.options.max_supersteps = request.max_supersteps;
  spec.options.seed = request.engine_seed;
  spec.options.job_id = request.job_id;
  spec.options.metrics = env.metrics;
  spec.debug_config = &config;
  spec.trace_store = env.store;
  spec.sanitizer.enabled = request.sanitizer;
  spec.checkpoint.interval = request.checkpoint_interval;
  spec.telemetry.journal = request.journal;
  spec.telemetry.publish = true;
  spec.telemetry.registry = env.registry;
  GRAFT_ASSIGN_OR_RETURN(pregel::JobRunSummary summary,
                         pregel::RunJob(std::move(spec)));
  // Job-level failures (compute errors, exhausted retries) are already
  // published to the registry entry by RunJob; the traces that were written
  // stay readable, which is the point of the debugger.
  (void)summary;
  return Status::OK();
}

/// Per-algo spec builders: graph + algorithm fields (vertices, computation,
/// master, combiner) only. Runners layer the capture/telemetry scaffolding
/// on top; the minimizer re-runs them bare, per probe.

Result<pregel::JobSpec<algos::PageRankTraits>> BuildPageRankSpec(
    const JobRequest& request) {
  using Traits = algos::PageRankTraits;
  using pregel::DoubleValue;
  GRAFT_ASSIGN_OR_RETURN(graph::SimpleGraph g, BuildRequestedGraph(request));
  pregel::JobSpec<Traits> spec;
  spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
    return DoubleValue{a.value + b.value};
  };
  spec.vertices = pregel::LoadUnweighted<Traits>(
      g, [](VertexId) { return DoubleValue{0.0}; });
  const int iterations = static_cast<int>(request.iterations);
  spec.computation = [iterations] {
    return std::make_unique<algos::PageRankComputation>(iterations);
  };
  spec.master = [iterations]() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(iterations);
  };
  return spec;
}

Result<pregel::JobSpec<algos::CCTraits>> BuildConnectedComponentsSpec(
    const JobRequest& request) {
  using Traits = algos::CCTraits;
  using pregel::Int64Value;
  GRAFT_ASSIGN_OR_RETURN(graph::SimpleGraph g, BuildRequestedGraph(request));
  pregel::JobSpec<Traits> spec;
  spec.options.combiner = [](const Int64Value& a, const Int64Value& b) {
    return Int64Value{std::min(a.value, b.value)};
  };
  spec.vertices = pregel::LoadUnweighted<Traits>(
      g, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  return spec;
}

Result<pregel::JobSpec<algos::SsspTraits>> BuildSsspSpec(
    const JobRequest& request) {
  using Traits = algos::SsspTraits;
  using pregel::DoubleValue;
  GRAFT_ASSIGN_OR_RETURN(graph::SimpleGraph g, BuildRequestedGraph(request));
  graph::AssignRandomWeights(&g, 1.0, 10.0, request.graph_seed,
                             /*symmetric=*/request.undirected);
  pregel::JobSpec<Traits> spec;
  spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
    return DoubleValue{std::min(a.value, b.value)};
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  spec.vertices = pregel::LoadVertices<Traits>(
      g, [](VertexId) { return DoubleValue{kInf}; },
      [](VertexId, VertexId, double w) { return DoubleValue{w}; });
  const VertexId source = request.source;
  spec.computation = [source] {
    return std::make_unique<algos::SsspComputation>(source);
  };
  return spec;
}

Status RunPageRankJob(const JobRequest& request, const RunEnv& env) {
  GRAFT_ASSIGN_OR_RETURN(auto spec, BuildPageRankSpec(request));
  return RunWithCapture(request, env, std::move(spec));
}

Status RunConnectedComponentsJob(const JobRequest& request,
                                 const RunEnv& env) {
  GRAFT_ASSIGN_OR_RETURN(auto spec, BuildConnectedComponentsSpec(request));
  return RunWithCapture(request, env, std::move(spec));
}

Status RunSsspJob(const JobRequest& request, const RunEnv& env) {
  GRAFT_ASSIGN_OR_RETURN(auto spec, BuildSsspSpec(request));
  return RunWithCapture(request, env, std::move(spec));
}

/// The shared minimizer scaffolding: rebuild the algo's spec skeleton from
/// the request, hand the graph to JobMinimizer, and replay the request's
/// engine knobs into both the probes and the generated reproducer.
template <pregel::JobTraits Traits>
Result<analysis::MinimizerReport> MinimizeJob(
    Result<pregel::JobSpec<Traits>> (*build)(const JobRequest&),
    const JobRequest& request, const analysis::MinimizerOptions& options,
    const analysis::MinimizerProgressFn& progress,
    debug::JobCodegenBinding binding) {
  GRAFT_ASSIGN_OR_RETURN(pregel::JobSpec<Traits> skeleton, build(request));
  std::vector<pregel::Vertex<Traits>> vertices = std::move(skeleton.vertices);
  skeleton.vertices.clear();
  skeleton.options.num_workers = request.workers;
  skeleton.options.max_supersteps = request.max_supersteps;
  skeleton.options.seed = request.engine_seed;
  binding.num_workers = request.workers;
  binding.seed = request.engine_seed;
  auto shared =
      std::make_shared<const pregel::JobSpec<Traits>>(std::move(skeleton));
  analysis::JobMinimizer<Traits> minimizer([shared] { return *shared; },
                                           std::move(vertices), options);
  minimizer.set_progress(progress);
  return minimizer.Run(std::move(binding));
}

Result<analysis::MinimizerReport> MinimizePageRankJob(
    const JobRequest& request, const analysis::MinimizerOptions& options,
    const analysis::MinimizerProgressFn& progress) {
  debug::JobCodegenBinding binding;
  binding.traits_type = "graft::algos::PageRankTraits";
  binding.includes = {"algos/pagerank.h"};
  binding.computation_factory = StrFormat(
      "[] { return std::make_unique<graft::algos::PageRankComputation>(%lld);"
      " }",
      static_cast<long long>(request.iterations));
  binding.master_factory = StrFormat(
      "[]() -> std::unique_ptr<graft::pregel::MasterCompute> {\n"
      "    return std::make_unique<graft::algos::PageRankMaster>(%lld);\n"
      "  }",
      static_cast<long long>(request.iterations));
  binding.combiner =
      "[](const graft::pregel::DoubleValue& a,\n"
      "     const graft::pregel::DoubleValue& b) {\n"
      "    return graft::pregel::DoubleValue{a.value + b.value};\n"
      "  }";
  return MinimizeJob<algos::PageRankTraits>(BuildPageRankSpec, request,
                                            options, progress,
                                            std::move(binding));
}

Result<analysis::MinimizerReport> MinimizeConnectedComponentsJob(
    const JobRequest& request, const analysis::MinimizerOptions& options,
    const analysis::MinimizerProgressFn& progress) {
  debug::JobCodegenBinding binding;
  binding.traits_type = "graft::algos::CCTraits";
  binding.includes = {"algos/connected_components.h"};
  binding.computation_factory =
      "graft::algos::MakeConnectedComponentsFactory()";
  binding.combiner =
      "[](const graft::pregel::Int64Value& a,\n"
      "     const graft::pregel::Int64Value& b) {\n"
      "    return graft::pregel::Int64Value{std::min(a.value, b.value)};\n"
      "  }";
  return MinimizeJob<algos::CCTraits>(BuildConnectedComponentsSpec, request,
                                      options, progress, std::move(binding));
}

Result<analysis::MinimizerReport> MinimizeSsspJob(
    const JobRequest& request, const analysis::MinimizerOptions& options,
    const analysis::MinimizerProgressFn& progress) {
  debug::JobCodegenBinding binding;
  binding.traits_type = "graft::algos::SsspTraits";
  binding.includes = {"algos/sssp.h"};
  binding.computation_factory = StrFormat(
      "[] { return std::make_unique<graft::algos::SsspComputation>(%lld); }",
      static_cast<long long>(request.source));
  binding.combiner =
      "[](const graft::pregel::DoubleValue& a,\n"
      "     const graft::pregel::DoubleValue& b) {\n"
      "    return graft::pregel::DoubleValue{std::min(a.value, b.value)};\n"
      "  }";
  return MinimizeJob<algos::SsspTraits>(BuildSsspSpec, request, options,
                                        progress, std::move(binding));
}

template <pregel::JobTraits Traits>
Result<debug::ViewResult> ViewJob(const TraceStore& store,
                                  const std::string& job_id,
                                  TraceBlockCache* cache,
                                  const debug::ViewRequest& request) {
  GRAFT_ASSIGN_OR_RETURN(debug::DebugSession<Traits> session,
                         debug::DebugSession<Traits>::Open(
                             &store, job_id, cache));
  return debug::RenderView(session, request);
}

}  // namespace

const AlgoCatalog& AlgoCatalog::Global() {
  static const AlgoCatalog* catalog = [] {
    auto* c = new AlgoCatalog();
    c->Register("pagerank", RunPageRankJob, ViewJob<algos::PageRankTraits>,
                MinimizePageRankJob);
    c->Register("cc", RunConnectedComponentsJob, ViewJob<algos::CCTraits>,
                MinimizeConnectedComponentsJob);
    c->Register("sssp", RunSsspJob, ViewJob<algos::SsspTraits>,
                MinimizeSsspJob);
    return c;
  }();
  return *catalog;
}

void AlgoCatalog::Register(std::string name, Runner runner, Viewer viewer,
                           Minimizer minimizer) {
  entries_[std::move(name)] =
      Entry{std::move(runner), std::move(viewer), std::move(minimizer)};
}

std::vector<std::string> AlgoCatalog::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, _] : entries_) names.push_back(name);
  return names;
}

Status AlgoCatalog::Run(const JobRequest& request, const RunEnv& env) const {
  auto it = entries_.find(request.algo);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown algo '" + request.algo + "'");
  }
  if (env.store == nullptr) {
    return Status::InvalidArgument("AlgoCatalog::Run requires a trace store");
  }
  return it->second.runner(request, env);
}

Result<debug::ViewResult> AlgoCatalog::View(
    const std::string& algo, const TraceStore& store,
    const std::string& job_id, TraceBlockCache* cache,
    const debug::ViewRequest& request) const {
  auto it = entries_.find(algo);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown algo '" + algo + "'");
  }
  return it->second.viewer(store, job_id, cache, request);
}

Result<analysis::MinimizerReport> AlgoCatalog::Minimize(
    const std::string& algo, const JobRequest& request,
    const analysis::MinimizerOptions& options,
    const analysis::MinimizerProgressFn& progress) const {
  auto it = entries_.find(algo);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown algo '" + algo + "'");
  }
  if (it->second.minimizer == nullptr) {
    return Status::Unimplemented("algo '" + algo +
                                 "' does not support minimization");
  }
  return it->second.minimizer(request, options, progress);
}

}  // namespace service
}  // namespace graft
