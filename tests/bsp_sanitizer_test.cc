// Unit tests for the analysis layer itself: finding serialization, the
// FindingLog (dedup, fatal policy, recovery rewind), the PhaseClock, the
// Stamped epoch model, and the sanitizer's zero-false-positive /
// zero-interference properties on healthy programs.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/pagerank.h"
#include "analysis/epoch.h"
#include "analysis/finding.h"
#include "analysis/finding_log.h"
#include "analysis/sanitizer.h"
#include "common/logging.h"
#include "debug/debug_config.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"
#include "pregel/phase.h"

#include "analysis_corpus/buggy_twins.h"

namespace graft {
namespace {

using analysis::AccessEpoch;
using analysis::AnalysisFinding;
using analysis::EpochReporter;
using analysis::FindingKind;
using analysis::FindingLog;
using analysis::Stamped;
using pregel::DoubleValue;
using pregel::EnginePhase;
using pregel::Int64Value;
using pregel::PhaseClock;

TEST(AnalysisFindingTest, SerializationRoundTripsEveryKind) {
  for (int k = 0; k < analysis::kNumFindingKinds; ++k) {
    AnalysisFinding f;
    f.kind = static_cast<FindingKind>(k);
    f.superstep = k == 0 ? -1 : 41 + k;
    f.vertex = k == 1 ? -1 : 1000 + k;
    f.worker = k == 2 ? -1 : k;
    f.detail = "detail for kind " + std::string(analysis::FindingKindName(
                                        static_cast<FindingKind>(k)));
    auto back = AnalysisFinding::Deserialize(f.Serialize());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, f);
  }
}

TEST(AnalysisFindingTest, RejectsUnknownVersionAndKind) {
  AnalysisFinding f;
  std::string record = f.Serialize();
  record[0] = 99;  // version byte
  EXPECT_FALSE(AnalysisFinding::Deserialize(record).ok());
  record[0] = AnalysisFinding::kFormatVersion;
  record[1] = 99;  // kind byte
  EXPECT_FALSE(AnalysisFinding::Deserialize(record).ok());
}

TEST(AnalysisFindingTest, FindingsFileNamesLiveInSuperstepDirs) {
  EXPECT_EQ(analysis::FindingsFile("job", 3, 1),
            "job/superstep_000003/findings_w001.afind");
  EXPECT_EQ(analysis::FindingsFile("job", 3, -1),
            "job/superstep_000003/findings_master.afind");
  // Initialize-phase findings (superstep -1) file under superstep 0 so the
  // recovery prune covers them.
  EXPECT_EQ(analysis::FindingsFile("job", -1, -1),
            "job/superstep_000000/findings_master.afind");
}

AnalysisFinding MakeFinding(FindingKind kind, int64_t superstep,
                            VertexId vertex, const std::string& detail) {
  AnalysisFinding f;
  f.kind = kind;
  f.superstep = superstep;
  f.vertex = vertex;
  f.worker = 0;
  f.detail = detail;
  return f;
}

TEST(FindingLogTest, DedupsOnCoordinatesAndPersistsToStore) {
  InMemoryTraceStore store;
  FindingLog log(&store, "job", /*fatal=*/false);
  EXPECT_TRUE(
      log.Record(MakeFinding(FindingKind::kSendAfterHalt, 2, 7, "x")));
  EXPECT_FALSE(
      log.Record(MakeFinding(FindingKind::kSendAfterHalt, 2, 7, "x")));
  EXPECT_TRUE(
      log.Record(MakeFinding(FindingKind::kSendAfterHalt, 2, 7, "y")));
  EXPECT_TRUE(
      log.Record(MakeFinding(FindingKind::kMutationAfterHalt, 3, 7, "x")));
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.CountOf(FindingKind::kSendAfterHalt), 2u);
  EXPECT_EQ(log.CountOf(FindingKind::kMutationAfterHalt), 1u);
  EXPECT_EQ(store.RecordCount("job/superstep_000002/findings_w000.afind"),
            2u);
  auto read_back = analysis::ReadFindings(store, "job");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back->size(), 3u);
}

TEST(FindingLogTest, RewindDropsPrunedSuperstepsAndAllowsReRecording) {
  FindingLog log(nullptr, "job", /*fatal=*/false);
  log.Record(MakeFinding(FindingKind::kSendAfterHalt, 1, 7, "early"));
  log.Record(MakeFinding(FindingKind::kSendAfterHalt, 4, 7, "late"));
  log.Record(MakeFinding(FindingKind::kStaleRead, 5, 8, "later"));
  log.RewindToSuperstep(4);
  EXPECT_EQ(log.total(), 1u);
  EXPECT_EQ(log.CountOf(FindingKind::kStaleRead), 0u);
  // Re-executed supersteps may legitimately hit the same violation again.
  EXPECT_TRUE(
      log.Record(MakeFinding(FindingKind::kSendAfterHalt, 4, 7, "late")));
  EXPECT_EQ(log.total(), 2u);
}

TEST(FindingLogTest, FatalPolicyInvokesAbortWithAbortedStatus) {
  FindingLog log(nullptr, "job", /*fatal=*/true);
  Status seen = Status::OK();
  log.set_abort([&seen](Status s) { seen = std::move(s); });
  log.Record(MakeFinding(FindingKind::kSendAfterHalt, 2, 7, "boom"));
  EXPECT_TRUE(seen.IsAborted());
  EXPECT_NE(seen.ToString().find("BSP contract violation"),
            std::string::npos);
  EXPECT_NE(seen.ToString().find("send_after_halt"), std::string::npos);
}

TEST(PhaseClockTest, PacksPhaseAndSuperstepAtomically) {
  PhaseClock clock;
  EXPECT_EQ(clock.phase(), EnginePhase::kIdle);
  EXPECT_EQ(clock.superstep(), -1);
  clock.Set(EnginePhase::kSetup, -1);
  EXPECT_EQ(clock.Read(), (std::pair<EnginePhase, int64_t>{
                              EnginePhase::kSetup, -1}));
  clock.Set(EnginePhase::kVertexCompute, 12345);
  EXPECT_EQ(clock.phase(), EnginePhase::kVertexCompute);
  EXPECT_EQ(clock.superstep(), 12345);
  EXPECT_STREQ(pregel::EnginePhaseName(EnginePhase::kMasterCompute),
               "master_compute");
}

TEST(StampedTest, PassthroughWithoutReporter) {
  Stamped<Int64Value> cache;
  cache.Set(Int64Value{42});
  EXPECT_EQ(cache.Read().value, 42);  // no reporter installed: plain read
  EXPECT_FALSE(cache.stamp().active);
}

TEST(StampedTest, ReportsCrossEpochRead) {
  std::vector<AnalysisFinding> reported;
  EpochReporter reporter(
      [&reported](AnalysisFinding f) { reported.push_back(std::move(f)); });

  EpochReporter* prev =
      EpochReporter::Install(&reporter, AccessEpoch{3, 7, true});
  Stamped<Int64Value> cache;
  cache.Set(Int64Value{1});
  EXPECT_EQ(cache.Read().value, 1);  // same epoch: clean
  EXPECT_TRUE(reported.empty());

  // Same superstep, different vertex — cross-vertex read.
  EpochReporter::Install(&reporter, AccessEpoch{3, 8, true});
  cache.Read();
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0].kind, FindingKind::kStaleRead);
  EXPECT_EQ(reported[0].superstep, 3);
  EXPECT_EQ(reported[0].vertex, 8);
  EXPECT_NE(reported[0].detail.find("vertex 7"), std::string::npos);

  // Later superstep, same vertex — cross-superstep read.
  EpochReporter::Install(&reporter, AccessEpoch{4, 7, true});
  cache.Read();
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported[1].superstep, 4);

  EpochReporter::Install(prev, AccessEpoch{});
}

/// Healthy PageRank under the full sanitizer (probes on every vertex): no
/// findings, and the result is the same as an unchecked run.
TEST(BspSanitizerTest, CleanPageRankHasZeroFindings) {
  auto graph = graph::GenerateRing(12);
  auto make_spec = [&] {
    pregel::JobSpec<algos::PageRankTraits> spec;
    spec.options.job_id = "clean_pagerank";
    spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
      return DoubleValue{a.value + b.value};
    };
    spec.vertices = pregel::LoadUnweighted<algos::PageRankTraits>(
        graph, [](VertexId) { return DoubleValue{0.0}; });
    spec.computation = [] {
      return std::make_unique<algos::PageRankComputation>(5);
    };
    spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
      return std::make_unique<algos::PageRankMaster>(5);
    };
    return spec;
  };

  InMemoryTraceStore store;
  pregel::JobSpec<algos::PageRankTraits> checked = make_spec();
  checked.sanitizer.enabled = true;
  checked.sanitizer.determinism_sample_rate = 1;
  checked.trace_store = &store;
  std::map<VertexId, double> checked_ranks;
  checked.post_run = [&](pregel::Engine<algos::PageRankTraits>& engine) {
    engine.ForEachVertex([&](const pregel::Vertex<algos::PageRankTraits>& v) {
      checked_ranks[v.id()] = v.value().value;
    });
  };
  auto checked_summary = pregel::RunJob(std::move(checked));
  ASSERT_TRUE(checked_summary.ok());
  ASSERT_TRUE(checked_summary->job_status.ok());
  EXPECT_EQ(checked_summary->analysis_findings, 0u);
  EXPECT_GT(checked_summary->stats.report.analysis.determinism_probes, 0u);
  EXPECT_EQ(checked_summary->stats.report.analysis.determinism_mismatches,
            0u);

  pregel::JobSpec<algos::PageRankTraits> plain = make_spec();
  std::map<VertexId, double> plain_ranks;
  plain.post_run = [&](pregel::Engine<algos::PageRankTraits>& engine) {
    engine.ForEachVertex([&](const pregel::Vertex<algos::PageRankTraits>& v) {
      plain_ranks[v.id()] = v.value().value;
    });
  };
  auto plain_summary = pregel::RunJob(std::move(plain));
  ASSERT_TRUE(plain_summary.ok());
  EXPECT_EQ(checked_ranks, plain_ranks);  // checking never alters results
}

TEST(BspSanitizerTest, StreamRngPassesProbesThatCatchLibcRand) {
  auto graph = graph::GenerateRing(6);
  auto run = [&](pregel::ComputationFactory<algos::CCTraits> factory) {
    pregel::JobSpec<algos::CCTraits> spec;
    spec.options.job_id = "probe_pair";
    spec.vertices = pregel::LoadUnweighted<algos::CCTraits>(
        graph, [](VertexId) { return Int64Value{0}; });
    spec.computation = std::move(factory);
    spec.sanitizer.enabled = true;
    spec.sanitizer.determinism_sample_rate = 1;
    auto summary = pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok());
    return *std::move(summary);
  };

  pregel::JobRunSummary good = run(
      [] { return std::make_unique<analysis_corpus::StreamRandomWalk>(); });
  ASSERT_TRUE(good.job_status.ok());
  EXPECT_EQ(good.analysis_findings, 0u);
  EXPECT_GT(good.stats.report.analysis.determinism_probes, 0u);

  pregel::JobRunSummary bad = run(
      [] { return std::make_unique<analysis_corpus::LibcRandomWalk>(); });
  ASSERT_TRUE(bad.job_status.ok());
  EXPECT_GT(bad.stats.report.analysis.determinism_mismatches, 0u);
}

std::map<std::string, std::vector<std::string>> TraceFilesOf(
    const InMemoryTraceStore& store) {
  std::map<std::string, std::vector<std::string>> contents;
  for (const std::string& file : store.ListFiles("")) {
    if (file.size() >= 6 && file.substr(file.size() - 6) == ".afind") {
      continue;  // findings are the sanitizer's own output
    }
    auto records = store.ReadAll(file);
    GRAFT_CHECK(records.ok());
    contents[file] = *std::move(records);
  }
  return contents;
}

/// The probe's re-executions run against a mock context and a fresh user
/// instance: the captured traces of a debugged run must come out
/// byte-identical whether probing is on or off.
TEST(BspSanitizerTest, ProbesLeaveCapturedTracesByteIdentical) {
  auto graph = graph::GenerateRing(10);
  debug::ConfigurableDebugConfig<algos::PageRankTraits> config;
  config.set_capture_all_active(true);

  auto run = [&](bool probe, InMemoryTraceStore* store) {
    pregel::JobSpec<algos::PageRankTraits> spec;
    spec.options.job_id = "probe_traces";
    spec.vertices = pregel::LoadUnweighted<algos::PageRankTraits>(
        graph, [](VertexId) { return DoubleValue{0.0}; });
    spec.computation = [] {
      return std::make_unique<algos::PageRankComputation>(4);
    };
    spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
      return std::make_unique<algos::PageRankMaster>(4);
    };
    spec.debug_config = &config;
    spec.trace_store = store;
    if (probe) {
      spec.sanitizer.enabled = true;
      spec.sanitizer.determinism_sample_rate = 1;
    }
    auto summary = pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok());
    GRAFT_CHECK(summary->job_status.ok());
    return *std::move(summary);
  };

  InMemoryTraceStore plain_store;
  pregel::JobRunSummary plain = run(false, &plain_store);
  InMemoryTraceStore probed_store;
  pregel::JobRunSummary probed = run(true, &probed_store);

  EXPECT_EQ(probed.analysis_findings, 0u);
  EXPECT_GT(plain.captures, 0u);
  EXPECT_EQ(plain.captures, probed.captures);
  EXPECT_EQ(TraceFilesOf(plain_store), TraceFilesOf(probed_store));
}

/// Every JobSpec knob composes: the sanitizer, delta checkpoints and async
/// capture I/O run together with no warning, and the captured traces and
/// final values match a plain synchronous, uncheckpointed debugged run.
TEST(BspSanitizerTest, ComposesWithDeltaCheckpointsAndAsyncCapture) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(80, 240, /*seed=*/5));
  debug::ConfigurableDebugConfig<algos::PageRankTraits> config;
  config.set_capture_all_active(true);

  struct Run {
    pregel::JobRunSummary summary;
    std::map<VertexId, double> ranks;
  };
  auto run = [&](bool all_knobs, InMemoryTraceStore* traces,
                 InMemoryTraceStore* ckpts) {
    pregel::JobSpec<algos::PageRankTraits> spec;
    spec.options.job_id = "compose";
    spec.options.num_workers = 3;
    spec.vertices = pregel::LoadUnweighted<algos::PageRankTraits>(
        graph, [](VertexId) { return DoubleValue{0.0}; });
    spec.computation = [] {
      return std::make_unique<algos::PageRankComputation>(6);
    };
    spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
      return std::make_unique<algos::PageRankMaster>(6);
    };
    spec.debug_config = &config;
    spec.trace_store = traces;
    if (all_knobs) {
      spec.transport.kind = pregel::TransportKind::kInProc;
      spec.sanitizer.enabled = true;
      spec.checkpoint.interval = 2;
      spec.checkpoint.mode = pregel::CheckpointMode::kDelta;
      spec.checkpoint.store = ckpts;
      spec.capture_io.async = true;
    }
    Run out;
    spec.post_run = [&](pregel::Engine<algos::PageRankTraits>& engine) {
      engine.ForEachVertex(
          [&](const pregel::Vertex<algos::PageRankTraits>& v) {
            out.ranks[v.id()] = v.value().value;
          });
    };
    auto summary = pregel::RunJob(std::move(spec));
    GRAFT_CHECK(summary.ok()) << summary.status();
    out.summary = *std::move(summary);
    return out;
  };

  InMemoryTraceStore plain_traces;
  Run plain = run(false, &plain_traces, nullptr);

  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  ::testing::internal::CaptureStderr();
  InMemoryTraceStore traces;
  InMemoryTraceStore ckpts;
  Run composed = run(true, &traces, &ckpts);
  const std::string log = ::testing::internal::GetCapturedStderr();
  SetLogLevel(saved_level);

  ASSERT_TRUE(composed.summary.job_status.ok()) << composed.summary.job_status;
  EXPECT_EQ(log, "") << "composed knobs logged a warning";
  const obs::RunReport& report = composed.summary.stats.report;
  EXPECT_EQ(report.transport, "inproc");
  EXPECT_TRUE(report.analysis.enabled);
  EXPECT_EQ(composed.summary.analysis_findings, 0u);
  EXPECT_TRUE(report.capture.async_sink);
  EXPECT_GT(report.recovery.checkpoints_written, 1u);
  EXPECT_GT(report.recovery.topology_bytes, 0u);
  EXPECT_GT(report.recovery.log_bytes, 0u);

  EXPECT_GT(plain.summary.captures, 0u);
  EXPECT_EQ(composed.summary.captures, plain.summary.captures);
  EXPECT_EQ(TraceFilesOf(traces), TraceFilesOf(plain_traces));
  EXPECT_EQ(composed.ranks, plain.ranks);
}

/// Disabled sanitizer is inert: no wrapping, no findings, no store writes,
/// profile absent from exports — the API-level half of the bench guard.
TEST(BspSanitizerTest, DisabledSanitizerIsInert) {
  auto graph = graph::GenerateRing(8);
  pregel::JobSpec<algos::PageRankTraits> spec;
  spec.options.job_id = "disabled";
  spec.options.max_supersteps = 4;
  spec.vertices = pregel::LoadUnweighted<algos::PageRankTraits>(
      graph, [](VertexId) { return DoubleValue{0.0}; });
  // A buggy program on purpose: with the sanitizer off, nothing may notice.
  spec.computation = [] {
    return std::make_unique<analysis_corpus::MessageAfterHaltPageRank>(2);
  };
  InMemoryTraceStore store;
  spec.trace_store = &store;

  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(summary->analysis_findings, 0u);
  EXPECT_FALSE(summary->stats.report.analysis.enabled);
  EXPECT_TRUE(store.ListFiles("").empty());
  EXPECT_EQ(summary->stats.report.ToPrometheusText().find(
                "analysis_findings_total"),
            std::string::npos);
}

TEST(BspSanitizerTest, RenderFindingsTableShowsCoordinates) {
  std::vector<AnalysisFinding> findings;
  findings.push_back(
      MakeFinding(FindingKind::kSendAfterHalt, 2, 7, "send to 8 after halt"));
  AnalysisFinding master = MakeFinding(FindingKind::kAggregatorPhase, -1, -1,
                                       "SetAggregated in Initialize");
  master.worker = -1;
  findings.push_back(master);
  std::string table = analysis::RenderFindingsTable(findings);
  EXPECT_NE(table.find("send_after_halt"), std::string::npos) << table;
  EXPECT_NE(table.find("init"), std::string::npos);
  EXPECT_NE(table.find("master"), std::string::npos);
}

}  // namespace
}  // namespace graft
