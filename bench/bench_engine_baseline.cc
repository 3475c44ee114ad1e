// Supplementary: raw BSP-engine throughput (google-benchmark).
//
// Not a paper table, but the denominator of every Figure 7 bar: how fast the
// Giraph-clone substrate moves messages without any debugging. PageRank on
// Erdos-Renyi graphs at two sizes, SSSP, and the superstep hot-path probe:
// multi-worker PageRank on the Table 1 soc-Epinions graph with the
// RunReport phase totals (delivery, barrier wait, compute) exported as
// counters — the numbers the persistent worker pool + combining message
// store are meant to shrink. GRAFT_BENCH_SCALE divides the dataset size
// (default 8; set 1 for the full Table 1 graph).
//
// The debug-service read path (BM_DebugServiceReadPath) rides along: N
// reader threads paging every debug view of M finished jobs through the
// route table and the shared TraceBlockCache, with the cache hit rate and
// a zero-5xx / zero-miss-after-warmup assertion built in.
//
// CI runs the soc-Epinions + DebugService cases and archives the JSON:
//   bench_engine_baseline --benchmark_filter='SocEpinions|DebugService'
//       --benchmark_out=BENCH_engine.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "common/string_util.h"
#include "debug/debug_config.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "io/trace_block_cache.h"
#include "io/trace_store.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "pregel/job.h"
#include "pregel/loader.h"
#include "service/debug_service.h"

namespace {

void BM_PageRank(benchmark::State& state) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  auto graph = graft::graph::GenerateErdosRenyi(n, n * 8, /*seed=*/3);
  uint64_t messages = 0;
  for (auto _ : state) {
    auto result = graft::algos::RunPageRank(graph, /*iterations=*/5,
                                            /*num_workers=*/2);
    GRAFT_CHECK(result.ok()) << result.status();
    messages += result->stats.total_messages;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PageRank)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

// Multi-worker PageRank on the Table 1 soc-Epinions dataset — the
// acceptance probe for the superstep hot path. Besides msgs/s it exports
// the RunReport phase totals so a regression in delivery or barrier wait is
// visible in BENCH_engine.json, not just in end-to-end wall time.
void BM_PageRankSocEpinions(benchmark::State& state) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  const int num_workers = static_cast<int>(state.range(0));
  uint64_t messages = 0;
  double delivery = 0, barrier = 0, compute = 0;
  for (auto _ : state) {
    auto result =
        graft::algos::RunPageRank(*graph, /*iterations=*/10, num_workers);
    GRAFT_CHECK(result.ok()) << result.status();
    messages += result->stats.total_messages;
    delivery += result->stats.report.TotalDeliveryWallSeconds();
    barrier += result->stats.report.TotalBarrierWaitSeconds();
    compute += result->stats.report.TotalComputeWallSeconds();
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["delivery_s"] = delivery / iters;
  state.counters["barrier_wait_s"] = barrier / iters;
  state.counters["compute_s"] = compute / iters;
  state.counters["vertices"] =
      static_cast<double>(graph->NumVertices());
}
BENCHMARK(BM_PageRankSocEpinions)->Arg(4)->Unit(benchmark::kMillisecond);

// The same job with checkpointing every 2 supersteps: the fault-tolerance
// tax. Exports checkpoint bytes/seconds alongside msgs/s so BENCH_engine.json
// tracks the overhead of the recovery subsystem against the plain run above.
// Runs in both modes — kFull snapshots everything each checkpoint, kDelta
// writes vertex-state-only parts plus the topology/outbox-log streams, so
// BENCH_engine.json carries the full-vs-delta overhead and bytes/superstep
// comparison the ISSUE 7 acceptance bar is judged on.
void RunSocEpinionsCheckpointedBench(benchmark::State& state,
                                     graft::pregel::CheckpointMode mode) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  const int num_workers = static_cast<int>(state.range(0));
  uint64_t messages = 0, ckpt_bytes = 0, ckpts_written = 0;
  uint64_t topology_bytes = 0, log_bytes = 0;
  double ckpt_seconds = 0;
  for (auto _ : state) {
    graft::pregel::JobSpec<graft::algos::PageRankTraits> spec;
    spec.options.num_workers = num_workers;
    spec.options.job_id = "bench-pr-ckpt";
    // No sender-side combiner here (unlike the plain hot-path bench above):
    // a full checkpoint snapshots the pending inbox, so the checkpointed
    // bench runs the standard uncombined PageRank message load to measure
    // that cost rather than optimize it away before it can be observed.
    spec.vertices = graft::pregel::LoadUnweighted<graft::algos::PageRankTraits>(
        *graph,
        [](graft::VertexId) { return graft::pregel::DoubleValue{0.0}; });
    spec.computation = [] {
      return std::make_unique<graft::algos::PageRankComputation>(10);
    };
    spec.master = []() -> std::unique_ptr<graft::pregel::MasterCompute> {
      return std::make_unique<graft::algos::PageRankMaster>(10);
    };
    graft::InMemoryTraceStore ckpt_store;
    spec.checkpoint.interval = 2;
    spec.checkpoint.store = &ckpt_store;
    spec.checkpoint.mode = mode;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    messages += summary->stats.total_messages;
    const graft::obs::RecoveryProfile& rec = summary->stats.report.recovery;
    ckpt_bytes += rec.checkpoint_bytes;
    ckpt_seconds += rec.checkpoint_seconds;
    ckpts_written += rec.checkpoints_written;
    topology_bytes += rec.topology_bytes;
    log_bytes += rec.log_bytes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["checkpoint_bytes"] = static_cast<double>(ckpt_bytes) / iters;
  state.counters["checkpoint_s"] = ckpt_seconds / iters;
  state.counters["checkpoints_written"] =
      static_cast<double>(ckpts_written) / iters;
  state.counters["topology_bytes"] =
      static_cast<double>(topology_bytes) / iters;
  state.counters["log_bytes"] = static_cast<double>(log_bytes) / iters;
  // Per-checkpoint payload: the quantity the delta mode is built to shrink.
  if (ckpts_written > 0) {
    state.counters["bytes_per_checkpoint"] =
        static_cast<double>(ckpt_bytes) / static_cast<double>(ckpts_written);
  }
}
void BM_PageRankSocEpinionsCheckpointed(benchmark::State& state) {
  RunSocEpinionsCheckpointedBench(state,
                                  graft::pregel::CheckpointMode::kFull);
}
BENCHMARK(BM_PageRankSocEpinionsCheckpointed)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PageRankSocEpinionsCheckpointedDelta(benchmark::State& state) {
  RunSocEpinionsCheckpointedBench(state,
                                  graft::pregel::CheckpointMode::kDelta);
}
BENCHMARK(BM_PageRankSocEpinionsCheckpointedDelta)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Builds the canonical JobSpec for the soc-Epinions PageRank probe; the
// sanitizer knobs are the only thing the guard pair below varies.
graft::pregel::JobSpec<graft::algos::PageRankTraits> SocEpinionsSpec(
    const graft::graph::SimpleGraph& graph, int num_workers) {
  graft::pregel::JobSpec<graft::algos::PageRankTraits> spec;
  spec.options.num_workers = num_workers;
  spec.options.job_id = "bench-pr-sanitizer";
  spec.options.combiner = [](const graft::pregel::DoubleValue& a,
                             const graft::pregel::DoubleValue& b) {
    return graft::pregel::DoubleValue{a.value + b.value};
  };
  spec.vertices = graft::pregel::LoadUnweighted<graft::algos::PageRankTraits>(
      graph, [](graft::VertexId) { return graft::pregel::DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<graft::algos::PageRankComputation>(10);
  };
  spec.master = []() -> std::unique_ptr<graft::pregel::MasterCompute> {
    return std::make_unique<graft::algos::PageRankMaster>(10);
  };
  return spec;
}

// Bench guard for DESIGN.md §9: the sanitizer *disabled* (the JobSpec
// default) must cost nothing — no phase stamps, no wrapping, no epoch loads.
// CI compares this against BM_PageRankSocEpinions above in BENCH_engine.json;
// any gap is hot-path contamination by the analysis layer.
void BM_PageRankSocEpinionsSanitizerOff(benchmark::State& state) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  uint64_t messages = 0;
  for (auto _ : state) {
    auto summary = graft::pregel::RunJob(
        SocEpinionsSpec(*graph, static_cast<int>(state.range(0))));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    GRAFT_CHECK(summary->analysis_findings == 0);
    messages += summary->stats.total_messages;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PageRankSocEpinionsSanitizerOff)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The checked-execution tax (EXPERIMENTS.md): same job with every dynamic
// check on and determinism probes on every 64th vertex. Exports the probe
// time so the replay share of the overhead is visible separately.
void BM_PageRankSocEpinionsSanitizerOn(benchmark::State& state) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  uint64_t messages = 0, probes = 0;
  double probe_seconds = 0;
  for (auto _ : state) {
    auto spec = SocEpinionsSpec(*graph, static_cast<int>(state.range(0)));
    spec.sanitizer.enabled = true;
    spec.sanitizer.determinism_sample_rate = 64;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    GRAFT_CHECK(summary->analysis_findings == 0);
    messages += summary->stats.total_messages;
    probes += summary->stats.report.analysis.determinism_probes;
    probe_seconds += summary->stats.report.analysis.probe_seconds;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["probes"] = static_cast<double>(probes) / iters;
  state.counters["probe_s"] = probe_seconds / iters;
}
BENCHMARK(BM_PageRankSocEpinionsSanitizerOn)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Bench guard for DESIGN.md §14: an *unarmed* conditional breakpoint
// (instrumented run, JobSpec.analysis.breakpoint empty) must cost exactly
// one null check per vertex on top of the plain capture path. CI records
// this next to the capture benches in BENCH_engine.json; a gap between this
// and the equivalent no-breakpoint capture run is hot-path contamination by
// the predicate layer.
void RunSocEpinionsBreakpointBench(benchmark::State& state,
                                   const char* breakpoint) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  // No targets, no capture-all: per-vertex work is the exceptions-only
  // floor, so the breakpoint check is the only variable between Off and On.
  static const graft::debug::ConfigurableDebugConfig<
      graft::algos::PageRankTraits>
      config;
  uint64_t messages = 0, hits = 0;
  for (auto _ : state) {
    auto spec = SocEpinionsSpec(*graph, static_cast<int>(state.range(0)));
    spec.options.job_id = "bench-pr-breakpoint";
    graft::InMemoryTraceStore store;
    spec.debug_config = &config;
    spec.trace_store = &store;
    spec.analysis.breakpoint = breakpoint;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    messages += summary->stats.total_messages;
    hits += summary->breakpoint_hits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["bp_hits"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}

void BM_PageRankSocEpinionsBreakpointOff(benchmark::State& state) {
  RunSocEpinionsBreakpointBench(state, "");
}
BENCHMARK(BM_PageRankSocEpinionsBreakpointOff)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Armed with a predicate that never fires on healthy PageRank (ranks stay
// positive): the cost of evaluating the compiled predicate per vertex,
// without any capture I/O on top.
void BM_PageRankSocEpinionsBreakpointOn(benchmark::State& state) {
  RunSocEpinionsBreakpointBench(state, "value < 0 && superstep > 3");
}
BENCHMARK(BM_PageRankSocEpinionsBreakpointOn)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Bench guard for the ISSUE 5 capture pipeline: the same Table-1 PageRank
// probe with capture-all-active debugging, once through the synchronous sink
// and once through the spooling (async) sink. CI compares the pair in
// BENCH_engine.json: the async run's overhead_s (serialize + critical-path
// append) must drop versus sync, since store writes move to the background
// flusher (reported separately as flush_s).
void RunSocEpinionsCaptureBench(benchmark::State& state, bool async) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  static const graft::debug::ConfigurableDebugConfig<
      graft::algos::PageRankTraits>
      config = [] {
        graft::debug::ConfigurableDebugConfig<graft::algos::PageRankTraits> c;
        c.set_capture_all_active(true);
        return c;
      }();
  uint64_t messages = 0, captures = 0, trace_bytes = 0, batches = 0;
  uint64_t backpressure = 0;
  double overhead = 0, serialize = 0, append = 0, flush = 0;
  for (auto _ : state) {
    auto spec = SocEpinionsSpec(*graph, static_cast<int>(state.range(0)));
    spec.options.job_id =
        async ? "bench-pr-capture-async" : "bench-pr-capture-sync";
    graft::InMemoryTraceStore store;
    spec.debug_config = &config;
    spec.trace_store = &store;
    spec.capture_io.async = async;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    messages += summary->stats.total_messages;
    const graft::obs::CaptureProfile& capture = summary->stats.report.capture;
    GRAFT_CHECK(capture.async_sink == async);
    captures += capture.vertex_captures;
    trace_bytes += capture.trace_bytes;
    batches += capture.spool_batches;
    backpressure += capture.spool_backpressure_waits;
    overhead += capture.OverheadSeconds();
    serialize += capture.serialize_seconds;
    append += capture.append_seconds;
    flush += capture.flush_seconds;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["captures"] = static_cast<double>(captures) / iters;
  state.counters["trace_bytes"] = static_cast<double>(trace_bytes) / iters;
  state.counters["overhead_s"] = overhead / iters;
  state.counters["serialize_s"] = serialize / iters;
  state.counters["append_s"] = append / iters;
  state.counters["flush_s"] = flush / iters;
  state.counters["spool_batches"] = static_cast<double>(batches) / iters;
  state.counters["spool_backpressure_waits"] =
      static_cast<double>(backpressure) / iters;
}

void BM_PageRankSocEpinionsCaptureSync(benchmark::State& state) {
  RunSocEpinionsCaptureBench(state, /*async=*/false);
}
BENCHMARK(BM_PageRankSocEpinionsCaptureSync)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PageRankSocEpinionsCaptureAsync(benchmark::State& state) {
  RunSocEpinionsCaptureBench(state, /*async=*/true);
}
BENCHMARK(BM_PageRankSocEpinionsCaptureAsync)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Bench guard for the ISSUE 6 telemetry plane (DESIGN.md §11): the event
// journal *disabled* (the JobSpec default) must cost nothing — every engine
// emission site is one null-pointer test. CI compares this pair in
// BENCH_engine.json; the On run also exports the journal volume so the
// per-event cost is visible, not just end-to-end wall time.
void RunSocEpinionsJournalBench(benchmark::State& state, bool journal) {
  const char* env = std::getenv("GRAFT_BENCH_SCALE");
  graft::graph::DatasetOptions options;
  options.scale_denominator = (env != nullptr && std::atoll(env) > 0)
                                  ? static_cast<uint64_t>(std::atoll(env))
                                  : 8;
  auto graph = graft::graph::MakeDataset("soc-Epinions", options);
  GRAFT_CHECK(graph.ok()) << graph.status();
  uint64_t messages = 0, events = 0, dropped = 0;
  for (auto _ : state) {
    auto spec = SocEpinionsSpec(*graph, static_cast<int>(state.range(0)));
    spec.options.job_id =
        journal ? "bench-pr-journal-on" : "bench-pr-journal-off";
    graft::obs::MetricsRegistry metrics;
    spec.options.metrics = &metrics;
    spec.telemetry.journal = journal;
    auto summary = graft::pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    GRAFT_CHECK(summary->job_status.ok()) << summary->job_status;
    messages += summary->stats.total_messages;
    events += metrics.GetCounter("journal.events_total")->value();
    dropped += metrics.GetCounter("journal.events_dropped_total")->value();
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["journal_events"] = static_cast<double>(events) / iters;
  state.counters["journal_dropped"] = static_cast<double>(dropped) / iters;
}

void BM_PageRankSocEpinionsJournalOff(benchmark::State& state) {
  RunSocEpinionsJournalBench(state, /*journal=*/false);
}
BENCHMARK(BM_PageRankSocEpinionsJournalOff)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PageRankSocEpinionsJournalOn(benchmark::State& state) {
  RunSocEpinionsJournalBench(state, /*journal=*/true);
}
BENCHMARK(BM_PageRankSocEpinionsJournalOn)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Sssp(benchmark::State& state) {
  uint64_t n = static_cast<uint64_t>(state.range(0));
  auto graph = graft::graph::GenerateErdosRenyi(n, n * 8, /*seed=*/5);
  graft::graph::AssignRandomWeights(&graph, 1.0, 10.0, 11, false);
  uint64_t messages = 0;
  for (auto _ : state) {
    auto result = graft::algos::RunSssp(graph, graph.IdAt(0), 2);
    GRAFT_CHECK(result.ok()) << result.status();
    messages += result->stats.total_messages;
  }
  state.SetItemsProcessed(static_cast<int64_t>(messages));
}
BENCHMARK(BM_Sssp)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

// -- debug-service read path ------------------------------------------------
//
// The ISSUE 8 acceptance probe: M jobs run once through the DebugService
// worker pool, then state.range(0) reader threads page every debug view
// (supersteps, vertices pages, vertex point lookups, master, violations,
// /jobs listing) through the TelemetryServer route table — Handle() calls,
// no sockets, so the number is the render + cache path, not loopback TCP.
// All readers share one TraceBlockCache; the warmup pass decodes every
// block once, and the measured phase asserts zero further cache misses
// (point lookups never rescan a trace file) and zero 5xx responses.

struct DebugServiceBenchEnv {
  graft::InMemoryTraceStore store;
  graft::obs::JobRegistry registry;
  graft::obs::MetricsRegistry metrics;
  graft::TraceBlockCache cache;
  std::unique_ptr<graft::service::DebugService> service;
  std::unique_ptr<graft::obs::TelemetryServer> server;
  std::vector<std::string> targets;  // warmed request targets

  static DebugServiceBenchEnv& Get() {
    static DebugServiceBenchEnv* env = [] {
      auto* e = new DebugServiceBenchEnv();
      graft::service::DebugServiceOptions options;
      options.store = &e->store;
      options.registry = &e->registry;
      options.metrics = &e->metrics;
      options.cache = &e->cache;
      options.worker_threads = 2;
      e->service = std::make_unique<graft::service::DebugService>(options);
      graft::obs::TelemetryServerOptions server_options;
      server_options.metrics = &e->metrics;
      server_options.registry = &e->registry;
      e->server = graft::obs::TelemetryServer::Create(server_options);
      e->service->RegisterRoutes(e->server.get());

      // Four jobs across all three catalog algos — the acceptance shape
      // (32 readers x 4 jobs).
      const char* algos[] = {"pagerank", "cc", "sssp", "pagerank"};
      std::vector<std::string> jobs;
      for (int i = 0; i < 4; ++i) {
        const std::string body = graft::StrFormat(
            "{\"algo\":\"%s\",\"job_id\":\"bench-read-%d\","
            "\"graph\":{\"generator\":\"erdos-renyi\",\"vertices\":300,"
            "\"edges\":1200,\"seed\":%d},"
            "\"params\":{\"iterations\":4},\"journal\":false}",
            algos[i], i, 7 + i);
        auto accepted = e->service->Submit(body);
        GRAFT_CHECK(accepted.ok()) << accepted.status();
        jobs.push_back(accepted->job_id);
      }
      e->service->DrainJobs();
      for (const auto& job : jobs) {
        auto entry = e->registry.Find(job);
        GRAFT_CHECK(entry != nullptr &&
                    entry->state() == graft::obs::JobState::kDone)
            << "bench job did not finish: " << job;
      }

      e->targets.push_back("/jobs");
      e->targets.push_back("/jobs?status=done");
      for (const auto& job : jobs) {
        const std::string base = "/jobs/" + job + "/debug";
        e->targets.push_back(base + "/supersteps");
        e->targets.push_back(base + "/vertices?superstep=1&limit=50");
        e->targets.push_back(base +
                             "/vertices?superstep=1&offset=50&limit=50");
        e->targets.push_back(base + "/vertices?superstep=2&search=1");
        e->targets.push_back(base + "/master?superstep=1");
        e->targets.push_back(base + "/violations?superstep=1");
        for (int vid = 0; vid < 8; ++vid) {
          e->targets.push_back(
              graft::StrFormat("%s/vertex/%d?superstep=1", base.c_str(), vid));
        }
      }
      // Warmup: decode every block once so the measured phase is the
      // steady-state cache-hit path.
      for (const auto& target : e->targets) {
        auto response = e->server->Handle("GET", target);
        GRAFT_CHECK(response.status < 500)
            << "warmup 5xx on " << target << ": " << response.body;
      }
      return e;
    }();
    return *env;
  }
};

void BM_DebugServiceReadPath(benchmark::State& state) {
  auto& env = DebugServiceBenchEnv::Get();
  const int readers = static_cast<int>(state.range(0));
  constexpr int kRequestsPerReader = 64;
  const auto warm = env.cache.stats();
  uint64_t requests = 0;
  std::atomic<uint64_t> server_errors{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        for (int i = 0; i < kRequestsPerReader; ++i) {
          const auto& target =
              env.targets[static_cast<size_t>(r + i * 7) %
                          env.targets.size()];
          auto response = env.server->Handle("GET", target);
          if (response.status >= 500) {
            server_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    requests += static_cast<uint64_t>(readers) * kRequestsPerReader;
  }
  const auto stats = env.cache.stats();
  // Acceptance: zero 5xx under concurrent readers, and a warm cache serves
  // every point lookup without another store rescan.
  GRAFT_CHECK(server_errors.load() == 0)
      << server_errors.load() << " 5xx responses";
  GRAFT_CHECK(stats.misses == warm.misses)
      << "cache misses after warmup: " << (stats.misses - warm.misses);
  state.SetItemsProcessed(static_cast<int64_t>(requests));
  state.counters["reads/s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] = stats.HitRate();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_misses"] = static_cast<double>(stats.misses);
  state.counters["cache_bytes"] = static_cast<double>(stats.bytes);
}
BENCHMARK(BM_DebugServiceReadPath)
    ->Arg(4)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
