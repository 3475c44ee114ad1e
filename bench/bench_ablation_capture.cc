// Ablation: the unit costs behind Figure 7's overhead (google-benchmark).
//
//   * serializing / deserializing a representative captured vertex context
//   * the per-send message-constraint check + interception indirection
//   * a whole instrumented-but-capture-nothing job vs the plain engine
//     (the floor cost of running under Graft at all)

#include <benchmark/benchmark.h>

#include "algos/connected_components.h"
#include "algos/graph_coloring.h"
#include "debug/vertex_trace.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace {

using graft::VertexId;
using graft::algos::CCTraits;
using graft::algos::GCTraits;

graft::debug::VertexTrace<GCTraits> MakeRepresentativeTrace() {
  graft::debug::VertexTrace<GCTraits> trace;
  trace.superstep = 41;
  trace.id = 672;
  trace.reasons = graft::debug::kReasonSpecified;
  trace.value_before = graft::algos::GCVertexValue{
      -1, graft::algos::GCState::kTentativelyInSet, 3, 0.42};
  for (VertexId t : {671, 673, 675}) {
    trace.edges.push_back({t, graft::pregel::NullValue{}});
  }
  trace.incoming.push_back(graft::algos::GCMessage{
      graft::algos::GCMessageType::kTentative, 671, 0.17});
  trace.incoming.push_back(graft::algos::GCMessage{
      graft::algos::GCMessageType::kTentative, 673, 0.93});
  trace.aggregators["gc.phase"] =
      graft::pregel::AggValue{std::string("CONFLICT-RESOLUTION")};
  trace.aggregators["gc.color"] = graft::pregel::AggValue{int64_t{3}};
  trace.total_vertices = 1'000'000'000;
  trace.total_edges = 3'000'000'000;
  trace.rng_state = 0x123456789abcdefULL;
  trace.value_after = graft::algos::GCVertexValue{
      -1, graft::algos::GCState::kInSet, 3, 0.42};
  trace.outgoing.emplace_back(
      671, graft::algos::GCMessage{graft::algos::GCMessageType::kInSet, 672,
                                   0.0});
  return trace;
}

void BM_TraceSerialize(benchmark::State& state) {
  auto trace = MakeRepresentativeTrace();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string record = trace.Serialize();
    bytes = record.size();
    benchmark::DoNotOptimize(record);
  }
  state.counters["record_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_TraceSerialize);

void BM_TraceDeserialize(benchmark::State& state) {
  std::string record = MakeRepresentativeTrace().Serialize();
  for (auto _ : state) {
    auto trace = graft::debug::VertexTrace<GCTraits>::Deserialize(record);
    GRAFT_CHECK(trace.ok());
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_TraceDeserialize);

void BM_MessageConstraintCheck(benchmark::State& state) {
  graft::debug::ConfigurableDebugConfig<GCTraits> config;
  config.set_message_value_constraint(
      [](const graft::algos::GCMessage& m, VertexId, VertexId, int64_t) {
        return m.r >= 0.0;
      });
  graft::algos::GCMessage message{graft::algos::GCMessageType::kTentative,
                                  671, 0.5};
  const graft::debug::DebugConfig<GCTraits>& base = config;
  for (auto _ : state) {
    bool ok = base.MessageValueConstraint(message, 672, 671, 41);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_MessageConstraintCheck);

/// Whole-job floor cost: CC on a 20k-vertex random graph (low diameter, so
/// few supersteps), plain vs instrumented with an empty DebugConfig
/// (nothing captured, no constraints).
void BM_PlainEngineJob(benchmark::State& state) {
  auto graph = graft::graph::MakeUndirected(
      graft::graph::GenerateErdosRenyi(20'000, 100'000, 7));
  for (auto _ : state) {
    auto vertices = graft::pregel::LoadUnweighted<CCTraits>(
        graph, [](VertexId) { return graft::pregel::Int64Value{0}; });
    graft::pregel::Engine<CCTraits>::Options options;
    options.num_workers = 2;
    graft::pregel::Engine<CCTraits> engine(
        options, std::move(vertices),
        graft::algos::MakeConnectedComponentsFactory());
    auto stats = engine.Run();
    GRAFT_CHECK(stats.ok());
    benchmark::DoNotOptimize(stats->supersteps);
  }
}
BENCHMARK(BM_PlainEngineJob)->Unit(benchmark::kMillisecond);

void BM_InstrumentedZeroCaptureJob(benchmark::State& state) {
  auto graph = graft::graph::MakeUndirected(
      graft::graph::GenerateErdosRenyi(20'000, 100'000, 7));
  graft::debug::ConfigurableDebugConfig<CCTraits> config;  // captures nothing
  for (auto _ : state) {
    graft::pregel::JobSpec<CCTraits> spec;
    spec.options.num_workers = 2;
    spec.options.job_id = "ablation-zero";
    spec.vertices = graft::pregel::LoadUnweighted<CCTraits>(
        graph, [](VertexId) { return graft::pregel::Int64Value{0}; });
    spec.computation = graft::algos::MakeConnectedComponentsFactory();
    graft::InMemoryTraceStore store;
    spec.debug_config = &config;
    spec.trace_store = &store;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok());
    benchmark::DoNotOptimize(summary->captures);
  }
}
BENCHMARK(BM_InstrumentedZeroCaptureJob)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
