// Tests for the obs/ subsystem: metrics primitives, registry exports
// (JSON + Prometheus golden outputs), run reports, and the engine /
// debug-runner integration that fills them.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/connected_components.h"
#include "debug/views/text_table.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::RunReport;
using obs::ScopedSpan;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(AtomicDoubleTest, AddAccumulates) {
  std::atomic<double> value{1.0};
  obs::AtomicDoubleAdd(&value, 2.5);
  obs::AtomicDoubleAdd(&value, -0.5);
  EXPECT_DOUBLE_EQ(value.load(), 3.0);
}

TEST(AtomicDoubleTest, MaxKeepsLargest) {
  std::atomic<double> value{2.0};
  obs::AtomicDoubleMax(&value, 1.0);
  EXPECT_DOUBLE_EQ(value.load(), 2.0);
  obs::AtomicDoubleMax(&value, 5.0);
  EXPECT_DOUBLE_EQ(value.load(), 5.0);
}

TEST(CounterTest, ConcurrentIncrementsFromManyWorkersAllLand) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(4.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 5.5);
}

TEST(HistogramTest, BucketBoundariesArePrometheusStyle) {
  // Bucket i counts values <= bounds[i]; the final bucket is +Inf.
  Histogram hist({1.0, 2.0, 4.0}, /*num_shards=*/1);
  hist.Record(0.5);   // <= 1  -> bucket 0
  hist.Record(1.0);   // <= 1  -> bucket 0 (boundary is inclusive)
  hist.Record(1.5);   // <= 2  -> bucket 1
  hist.Record(4.0);   // <= 4  -> bucket 2
  hist.Record(100.0); // +Inf  -> bucket 3
  Histogram::Snapshot snap = hist.Merge();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 107.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(HistogramTest, ShardsMergeAndOutOfRangeShardClampsToZero) {
  Histogram hist({1.0}, /*num_shards=*/3);
  hist.Record(0.5, 0);
  hist.Record(0.5, 1);
  hist.Record(0.5, 2);
  hist.Record(0.5, 7);   // clamped to shard 0
  hist.Record(0.5, -1);  // clamped to shard 0
  Histogram::Snapshot snap = hist.Merge();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.counts[0], 5u);
}

TEST(HistogramTest, ConcurrentShardedRecordsAllLand) {
  constexpr int kShards = 4;
  constexpr int kPerShard = 20000;
  Histogram hist(obs::DefaultLatencyBounds(), kShards);
  std::vector<std::thread> threads;
  for (int s = 0; s < kShards; ++s) {
    threads.emplace_back([&hist, s] {
      for (int i = 0; i < kPerShard; ++i) hist.Record(1e-3, s);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Merge().count,
            static_cast<uint64_t>(kShards) * kPerShard);
}

TEST(ScopedSpanTest, RecordsOnceIntoHistogramAndGauge) {
  Histogram hist({1000.0}, 1);
  Gauge total;
  {
    ScopedSpan span(&hist, /*shard=*/0, &total);
    double elapsed = span.Stop();
    EXPECT_GE(elapsed, 0.0);
    EXPECT_DOUBLE_EQ(span.Stop(), elapsed) << "second Stop() is a no-op";
  }  // destructor must not double-record after Stop()
  EXPECT_EQ(hist.Merge().count, 1u);
  EXPECT_DOUBLE_EQ(total.value(), hist.Merge().sum);
}

TEST(ScopedSpanTest, RecordsOnceDuringExceptionUnwind) {
  Histogram hist({1000.0}, 1);
  Gauge total;
  try {
    ScopedSpan span(&hist, /*shard=*/0, &total);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(hist.Merge().count, 1u) << "unwind closes the span exactly once";
}

TEST(ScopedSpanTest, NullSinksAreSafe) {
  ScopedSpan span(nullptr, 0, nullptr);
  EXPECT_GE(span.Stop(), 0.0);
  span.Stop();  // still a no-op on re-entry
}

// ---------------------------------------------------------------------------
// Registry + exports (golden outputs; all values exactly representable)
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsSameInstanceAndKeepsFirstBounds) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  Histogram* h = registry.GetHistogram("h", {1.0, 2.0}, 2);
  EXPECT_EQ(registry.GetHistogram("h", {9.0}, 1), h);
  EXPECT_EQ(h->bounds().size(), 2u);
  EXPECT_EQ(h->num_shards(), 2);
}

TEST(MetricsRegistryTest, PrometheusNameReplacesNonAlphanumerics) {
  EXPECT_EQ(obs::PrometheusName("engine.compute_seconds"),
            "engine_compute_seconds");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::PrometheusName("ns:ok_09AZ"), "ns:ok_09AZ");
}

TEST(MetricsRegistryTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("jobs")->Increment(3);
  registry.GetGauge("queue.depth")->Set(2);
  Histogram* hist = registry.GetHistogram("lat", {0.5, 1.5}, 1);
  hist->Record(0.5);
  hist->Record(2.0);
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\":{\"jobs\":3},"
            "\"gauges\":{\"queue.depth\":2},"
            "\"histograms\":{\"lat\":{\"count\":2,\"sum\":2.5,\"max\":2,"
            "\"bounds\":[0.5,1.5],\"counts\":[1,0,1]}}}");
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("jobs.total")->Increment(3);
  registry.GetGauge("queue.depth")->Set(2);
  Histogram* hist = registry.GetHistogram("lat", {0.5, 1.5}, 1);
  hist->Record(0.5);
  hist->Record(1.5);
  hist->Record(2.0);
  EXPECT_EQ(registry.ToPrometheusText("graft_"),
            "# HELP graft_jobs_total Counter jobs.total.\n"
            "# TYPE graft_jobs_total counter\n"
            "graft_jobs_total 3\n"
            "# HELP graft_queue_depth Gauge queue.depth.\n"
            "# TYPE graft_queue_depth gauge\n"
            "graft_queue_depth 2\n"
            "# HELP graft_lat Histogram lat.\n"
            "# TYPE graft_lat histogram\n"
            "graft_lat_bucket{le=\"0.5\"} 1\n"
            "graft_lat_bucket{le=\"1.5\"} 2\n"
            "graft_lat_bucket{le=\"+Inf\"} 3\n"
            "graft_lat_sum 4\n"
            "graft_lat_count 3\n");
}

TEST(MetricsRegistryTest, SetHelpOverridesGeneratedHelpText) {
  MetricsRegistry registry;
  registry.GetCounter("jobs.total")->Increment();
  registry.SetHelp("jobs.total", "Jobs ever submitted.");
  std::string text = registry.ToPrometheusText("graft_");
  EXPECT_NE(text.find("# HELP graft_jobs_total Jobs ever submitted.\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, CollidingSanitizedNamesEmitOneFamily) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Increment(1);
  registry.GetCounter("a_b")->Increment(2);  // same sanitized id
  std::string text = registry.ToPrometheusText("g_");
  // Exactly one TYPE line for the shared id — a second one would make
  // scrapers reject the exposition.
  size_t first = text.find("# TYPE g_a_b counter");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("# TYPE g_a_b counter", first + 1), std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, PrometheusLabelValueEscapes) {
  EXPECT_EQ(obs::PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusLabelValue("a\nb"), "a\\nb");
}

TEST(MetricsRegistryTest, PrometheusNameGuardsLeadingDigit) {
  EXPECT_EQ(obs::PrometheusName("2pc.commits"), "_2pc_commits");
}

// ---------------------------------------------------------------------------
// RunReport exports
// ---------------------------------------------------------------------------

RunReport MakeFixedReport() {
  RunReport report;
  report.job_id = "job-1";
  report.num_workers = 2;
  report.supersteps = 1;
  report.total_seconds = 2.0;
  obs::SuperstepProfile prof;
  prof.superstep = 0;
  prof.mutation_seconds = 0.5;
  prof.delivery_wall_seconds = 0.5;
  prof.master_seconds = 0.5;
  prof.compute_wall_seconds = 0.5;
  prof.aggregator_merge_seconds = 0.5;
  prof.total_seconds = 2.0;
  obs::WorkerPhaseProfile w0;
  w0.worker = 0;
  w0.compute_seconds = 0.5;
  w0.delivery_seconds = 0.5;
  w0.barrier_wait_seconds = 0.0;
  w0.vertices_computed = 10;
  w0.messages_sent = 20;
  obs::WorkerPhaseProfile w1;
  w1.worker = 1;
  w1.compute_seconds = 0.25;
  w1.delivery_seconds = 0.25;
  w1.barrier_wait_seconds = 0.5;
  w1.vertices_computed = 5;
  w1.messages_sent = 15;
  prof.workers = {w0, w1};
  report.per_superstep.push_back(prof);
  return report;
}

TEST(RunReportTest, AggregatesSumOverSuperstepsAndWorkers) {
  RunReport report = MakeFixedReport();
  EXPECT_DOUBLE_EQ(report.TotalMutationSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.TotalDeliveryWallSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.TotalMasterSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.TotalComputeWallSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.TotalAggregatorMergeSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.TotalBarrierWaitSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(report.MaxSuperstepSeconds(), 2.0);
}

TEST(RunReportTest, JsonGolden) {
  RunReport report = MakeFixedReport();
  EXPECT_EQ(
      report.ToJson(),
      "{\"job_id\":\"job-1\",\"num_workers\":2,\"supersteps\":1,"
      "\"total_seconds\":2,"
      "\"transport\":\"inproc\","
      "\"phase_totals\":{\"mutation\":0.5,\"delivery\":0.5,\"master\":0.5,"
      "\"compute\":0.5,\"barrier_wait\":0.5,\"aggregator_merge\":0.5},"
      "\"per_superstep\":[{\"superstep\":0,\"mutation_seconds\":0.5,"
      "\"delivery_wall_seconds\":0.5,\"master_seconds\":0.5,"
      "\"compute_wall_seconds\":0.5,\"aggregator_merge_seconds\":0.5,"
      "\"total_seconds\":2,\"partial\":false,\"workers\":["
      "{\"worker\":0,\"compute_seconds\":0.5,\"delivery_seconds\":0.5,"
      "\"barrier_wait_seconds\":0,\"vertices_computed\":10,"
      "\"messages_sent\":20},"
      "{\"worker\":1,\"compute_seconds\":0.25,\"delivery_seconds\":0.25,"
      "\"barrier_wait_seconds\":0.5,\"vertices_computed\":5,"
      "\"messages_sent\":15}]}],"
      "\"capture\":{\"enabled\":false,\"vertex_captures\":0,"
      "\"master_captures\":0,\"violations\":0,\"exceptions\":0,"
      "\"dropped_by_limit\":0,\"serialize_seconds\":0,\"append_seconds\":0,"
      "\"overhead_seconds\":0,\"trace_bytes\":0,\"store_appends\":0,"
      "\"store_flushes\":0,\"async_sink\":false,\"flush_seconds\":0,"
      "\"spool_batches\":0,\"spool_max_queue_depth\":0,"
      "\"spool_backpressure_waits\":0},"
      "\"analysis\":{\"enabled\":false,\"fail_on_violation\":false,"
      "\"findings_total\":0,\"findings_by_kind\":{},"
      "\"determinism_probes\":0,\"determinism_mismatches\":0,"
      "\"probe_seconds\":0},"
      "\"recovery\":{\"checkpoints_enabled\":false,\"checkpoints_written\":0,"
      "\"checkpoint_bytes\":0,\"checkpoint_seconds\":0,\"restore_seconds\":0,"
      "\"topology_bytes\":0,\"log_bytes\":0,\"confined_recoveries\":0,"
      "\"recoveries\":0,\"events\":[]}}");
}

TEST(RunReportTest, PrometheusGoldenIncludesCaptureOnlyWhenEnabled) {
  RunReport report = MakeFixedReport();
  std::string text = report.ToPrometheusText("graft_");
  EXPECT_EQ(text,
            "# HELP graft_run_total_seconds Graft run report field "
            "run_total_seconds.\n"
            "# TYPE graft_run_total_seconds gauge\n"
            "graft_run_total_seconds{job=\"job-1\"} 2\n"
            "# HELP graft_run_supersteps Graft run report field "
            "run_supersteps.\n"
            "# TYPE graft_run_supersteps gauge\n"
            "graft_run_supersteps{job=\"job-1\"} 1\n"
            "# HELP graft_run_workers Graft run report field run_workers.\n"
            "# TYPE graft_run_workers gauge\n"
            "graft_run_workers{job=\"job-1\"} 2\n"
            "# HELP graft_run_phase_seconds Wall seconds per engine phase "
            "over the run.\n"
            "# TYPE graft_run_phase_seconds gauge\n"
            "graft_run_phase_seconds{job=\"job-1\",phase=\"mutation\"} 0.5\n"
            "graft_run_phase_seconds{job=\"job-1\",phase=\"delivery\"} 0.5\n"
            "graft_run_phase_seconds{job=\"job-1\",phase=\"master\"} 0.5\n"
            "graft_run_phase_seconds{job=\"job-1\",phase=\"compute\"} 0.5\n"
            "graft_run_phase_seconds{job=\"job-1\",phase=\"barrier_wait\"} "
            "0.5\n"
            "graft_run_phase_seconds{job=\"job-1\","
            "phase=\"aggregator_merge\"} 0.5\n");

  report.capture.enabled = true;
  report.capture.vertex_captures = 7;
  std::string with_capture = report.ToPrometheusText("graft_");
  EXPECT_NE(with_capture.find(
                "graft_capture_vertex_captures{job=\"job-1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(with_capture.find("graft_capture_overhead_seconds"),
            std::string::npos);
}

TEST(RunReportTest, TextTableRenderersUseTheReport) {
  RunReport report = MakeFixedReport();
  std::string profile = debug::RenderSuperstepProfile(report);
  EXPECT_NE(profile.find("superstep"), std::string::npos);
  EXPECT_NE(profile.find("max_wait_ms"), std::string::npos);
  EXPECT_NE(profile.find("500.000"), std::string::npos);  // 0.5s barrier wait

  std::string workers = debug::RenderWorkerProfile(report, 0);
  EXPECT_NE(workers.find("worker"), std::string::npos);
  EXPECT_NE(workers.find("250.000"), std::string::npos);  // worker 1 compute
  EXPECT_EQ(debug::RenderWorkerProfile(report, 99), "");

  EXPECT_EQ(debug::RenderCaptureProfile(report), "") << "capture disabled";
  report.capture.enabled = true;
  report.capture.vertex_captures = 3;
  EXPECT_NE(debug::RenderCaptureProfile(report).find("vertex=3"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceStore I/O accounting
// ---------------------------------------------------------------------------

TEST(TraceStoreIoStatsTest, InMemoryStoreAccountsAppendsAndFlushes) {
  InMemoryTraceStore store;
  ASSERT_TRUE(store.Append("f", "hello").ok());
  ASSERT_TRUE(store.Append("f", "world!").ok());
  ASSERT_TRUE(store.Flush().ok());
  TraceStore::IoStats stats = store.io_stats();
  EXPECT_EQ(stats.appends, 2u);
  // 5 + 6 payload bytes plus one varint framing byte per record.
  EXPECT_EQ(stats.bytes_written, 13u);
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_GE(stats.append_seconds, 0.0);

  MetricsRegistry registry;
  store.ExportMetrics(&registry);
  EXPECT_EQ(registry.GetCounter("tracestore.appends_total")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("tracestore.bytes_written_total")->value(),
            13u);
  EXPECT_EQ(registry.GetCounter("tracestore.flushes_total")->value(), 1u);
}

// ---------------------------------------------------------------------------
// Engine integration: Run() must produce a populated report
// ---------------------------------------------------------------------------

using algos::CCTraits;

std::vector<pregel::Vertex<CCTraits>> RingVertices(uint64_t n) {
  return pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(n),
      [](VertexId) { return pregel::Int64Value{0}; });
}

TEST(EngineReportTest, RunFillsPerWorkerPerSuperstepProfiles) {
  pregel::Engine<CCTraits>::Options options;
  options.job_id = "report-test";
  options.num_workers = 3;
  pregel::Engine<CCTraits> engine(options, RingVertices(64),
                                  algos::MakeConnectedComponentsFactory());
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status();

  const RunReport& report = stats->report;
  EXPECT_EQ(report.job_id, "report-test");
  EXPECT_EQ(report.num_workers, 3);
  EXPECT_EQ(report.supersteps, stats->supersteps);
  EXPECT_DOUBLE_EQ(report.total_seconds, stats->total_seconds);
  ASSERT_EQ(report.per_superstep.size(), stats->per_superstep.size());
  uint64_t report_messages = 0;
  uint64_t report_vertices = 0;
  for (size_t i = 0; i < report.per_superstep.size(); ++i) {
    const obs::SuperstepProfile& prof = report.per_superstep[i];
    EXPECT_EQ(prof.superstep, stats->per_superstep[i].superstep);
    EXPECT_DOUBLE_EQ(prof.total_seconds, stats->per_superstep[i].seconds);
    ASSERT_EQ(prof.workers.size(), 3u);
    uint64_t superstep_messages = 0;
    for (const obs::WorkerPhaseProfile& wp : prof.workers) {
      EXPECT_GE(wp.compute_seconds, 0.0);
      EXPECT_GE(wp.delivery_seconds, 0.0);
      EXPECT_GE(wp.barrier_wait_seconds, 0.0);
      // Per-worker busy time cannot exceed the phase wall time.
      EXPECT_LE(wp.compute_seconds, prof.compute_wall_seconds + 1e-9);
      superstep_messages += wp.messages_sent;
      report_messages += wp.messages_sent;
      report_vertices += wp.vertices_computed;
    }
    EXPECT_EQ(superstep_messages, stats->per_superstep[i].messages_sent);
  }
  EXPECT_EQ(report_messages, stats->total_messages);
  EXPECT_GT(report_messages, 0u);
  EXPECT_GE(report_vertices, 64u) << "every vertex computed at least once";
  EXPECT_FALSE(report.capture.enabled) << "no debugger attached";
}

TEST(EngineReportTest, SharedRegistryReceivesEngineMetrics) {
  MetricsRegistry registry;
  pregel::Engine<CCTraits>::Options options;
  options.job_id = "metrics-test";
  options.num_workers = 2;
  options.metrics = &registry;
  pregel::Engine<CCTraits> engine(options, RingVertices(16),
                                  algos::MakeConnectedComponentsFactory());
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status();

  EXPECT_EQ(registry.GetCounter("engine.supersteps_total")->value(),
            static_cast<uint64_t>(stats->supersteps));
  EXPECT_EQ(registry.GetCounter("engine.messages_sent_total")->value(),
            stats->total_messages);
  Histogram* compute = registry.GetHistogram(
      "engine.compute_seconds", obs::DefaultLatencyBounds(), 2);
  // One sample per worker per completed superstep.
  EXPECT_EQ(compute->Merge().count,
            static_cast<uint64_t>(stats->supersteps) * 2);
  std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE graft_engine_compute_seconds histogram"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Debug-runner integration: capture overhead lands in the report
// ---------------------------------------------------------------------------

TEST(EngineReportTest, DebugRunFillsCaptureProfile) {
  MetricsRegistry registry;
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_capture_all_active(true);
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "capture-test";
  spec.options.num_workers = 2;
  spec.options.metrics = &registry;
  spec.vertices = RingVertices(16);
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  pregel::JobRunSummary summary = std::move(summary_or).value();
  ASSERT_TRUE(summary.job_status.ok()) << summary.job_status;

  const obs::CaptureProfile& capture = summary.stats.report.capture;
  EXPECT_TRUE(capture.enabled);
  EXPECT_EQ(capture.vertex_captures, summary.captures);
  EXPECT_GT(capture.vertex_captures, 0u);
  EXPECT_EQ(capture.trace_bytes, summary.trace_bytes);
  EXPECT_GT(capture.serialize_seconds, 0.0);
  EXPECT_GT(capture.append_seconds, 0.0);
  EXPECT_DOUBLE_EQ(capture.OverheadSeconds(),
                   capture.serialize_seconds + capture.append_seconds);
  // The store saw every capture append plus exactly one more: the job's
  // manifest index, which is bookkeeping rather than captured data.
  EXPECT_EQ(capture.store_appends + 1, store.io_stats().appends);
  EXPECT_GT(capture.store_appends, 0u);

  // The shared registry got both the engine and the capture metrics.
  EXPECT_EQ(registry.GetCounter("capture.vertex_captures_total")->value(),
            summary.captures);
  EXPECT_EQ(registry.GetCounter("tracestore.appends_total")->value(),
            store.io_stats().appends);

  // The report round-trips through JSON with the capture block enabled.
  EXPECT_NE(summary.stats.report.ToJson().find("\"enabled\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace graft
