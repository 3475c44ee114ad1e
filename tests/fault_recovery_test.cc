// Fault-tolerance suite (ISSUE 3 tentpole): deterministic fault injection,
// checkpoint commit/GC mechanics, and the JobRunner recovery loop. The
// acceptance test is PageRankRecoversByteIdentically: a worker crash mid-job
// recovers from the latest committed checkpoint and produces byte-identical
// traces and final vertex values versus a fault-free run of the same spec.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/fault_injector.h"
#include "debug/capture_manager.h"
#include "debug/debug_config.h"
#include "graph/generators.h"
#include "io/fault_injecting_trace_store.h"
#include "io/trace_sink.h"
#include "io/trace_store.h"
#include "pregel/checkpoint.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::CCTraits;
using algos::PageRankTraits;
using pregel::CheckpointMeta;
using pregel::DoubleValue;
using pregel::Int64Value;

// ----------------------------------------------------------- FaultInjector --

TEST(FaultInjectorTest, ArmedPointFiresOnceAtExactSite) {
  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/3, /*partition=*/1,
                /*hits=*/1});
  injector.set_current_superstep(2);
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kWorkerCompute, 1));
  injector.set_current_superstep(3);
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kWorkerCompute, 0));  // partition
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kDelivery, 1));       // site
  EXPECT_TRUE(injector.ShouldFail(FaultSite::kWorkerCompute, 1));
  // Budget of one hit: the same site does not fire twice.
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kWorkerCompute, 1));
  EXPECT_EQ(injector.fired_count(), 1u);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].site, FaultSite::kWorkerCompute);
  EXPECT_EQ(injector.events()[0].superstep, 3);
  EXPECT_EQ(injector.events()[0].partition, 1);
}

TEST(FaultInjectorTest, WildcardsMatchAnySuperstepAndPartition) {
  FaultInjector injector;
  injector.Arm({FaultSite::kStoreAppend, /*superstep=*/-1, /*partition=*/-1,
                /*hits=*/2});
  injector.set_current_superstep(0);
  EXPECT_TRUE(injector.ShouldFail(FaultSite::kStoreAppend));
  injector.set_current_superstep(7);
  EXPECT_TRUE(injector.ShouldFail(FaultSite::kStoreAppend, 4));
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kStoreAppend));  // budget spent
  EXPECT_EQ(injector.fired_count(), 2u);
}

TEST(FaultInjectorTest, SeededInjectionIsDeterministic) {
  auto run = [](uint64_t seed) {
    FaultInjector injector;
    injector.ArmSeeded(FaultSite::kDelivery, /*probability=*/0.2, seed,
                       /*budget=*/3);
    std::vector<int> fired_at;
    for (int s = 0; s < 50; ++s) {
      injector.set_current_superstep(s);
      if (injector.ShouldFail(FaultSite::kDelivery, s % 4)) {
        fired_at.push_back(s);
      }
    }
    return fired_at;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_EQ(run(42).size(), 3u);  // budget is exhausted over 50 draws at p=.2
}

TEST(FaultInjectorTest, ResetClearsArmedPointsAndHistory) {
  FaultInjector injector;
  injector.Arm({FaultSite::kStoreFlush, -1, -1, 1});
  injector.set_current_superstep(1);
  EXPECT_TRUE(injector.ShouldFail(FaultSite::kStoreFlush));
  injector.Reset();
  EXPECT_FALSE(injector.ShouldFail(FaultSite::kStoreFlush));
  EXPECT_EQ(injector.fired_count(), 0u);
  EXPECT_TRUE(injector.events().empty());
}

// ------------------------------------------------ FaultInjectingTraceStore --

TEST(FaultInjectingTraceStoreTest, InjectsUnavailableAndPassesThrough) {
  InMemoryTraceStore inner;
  FaultInjector injector;
  FaultInjectingTraceStore store(&inner, &injector);
  ASSERT_TRUE(store.Append("a/file", "rec1").ok());
  injector.Arm({FaultSite::kStoreAppend, -1, -1, 1});
  Status failed = store.Append("a/file", "rec2");
  EXPECT_TRUE(failed.IsUnavailable()) << failed;
  // After the budget is spent the decorator is transparent again.
  ASSERT_TRUE(store.Append("a/file", "rec3").ok());
  auto records = store.ReadAll("a/file");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"rec1", "rec3"}));
  EXPECT_TRUE(store.Exists("a/file"));
  EXPECT_EQ(store.ListFiles("a/").size(), 1u);
}

// ------------------------------------------------------ checkpoint helpers --

TEST(CheckpointTest, MetaRoundtripsThroughSerialize) {
  CheckpointMeta meta;
  meta.superstep = 6;
  meta.num_partitions = 2;
  meta.mode = pregel::CheckpointMode::kDelta;
  meta.topology_epoch = 3;
  meta.pending_messages = 123;
  meta.messages_dropped_at_resume = 4;
  meta.partitions = {{10, 20, 5, /*base_superstep=*/6},
                     {11, 22, 7, /*base_superstep=*/2}};
  meta.aggregators.emplace("pi", pregel::AggValue{3.14});
  meta.aggregators.emplace("phase", pregel::AggValue{std::string("GO")});
  meta.total_messages = 999;
  meta.total_messages_dropped = 8;
  pregel::SuperstepStats ss;
  ss.superstep = 5;
  ss.active_vertices = 40;
  ss.messages_sent = 120;
  ss.seconds = 0.25;
  meta.per_superstep.push_back(ss);

  auto parsed = CheckpointMeta::Parse(meta.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->superstep, 6);
  EXPECT_EQ(parsed->num_partitions, 2);
  EXPECT_EQ(parsed->mode, pregel::CheckpointMode::kDelta);
  EXPECT_EQ(parsed->topology_epoch, 3);
  EXPECT_EQ(parsed->pending_messages, 123u);
  EXPECT_EQ(parsed->messages_dropped_at_resume, 4u);
  ASSERT_EQ(parsed->partitions.size(), 2u);
  EXPECT_EQ(parsed->partitions[1].alive, 11u);
  EXPECT_EQ(parsed->partitions[1].awake, 7u);
  EXPECT_EQ(parsed->partitions[0].base_superstep, 6);
  EXPECT_EQ(parsed->partitions[1].base_superstep, 2);
  EXPECT_EQ(parsed->aggregators.at("pi").AsDouble(), 3.14);
  EXPECT_EQ(parsed->aggregators.at("phase").AsText(), "GO");
  EXPECT_EQ(parsed->total_messages, 999u);
  ASSERT_EQ(parsed->per_superstep.size(), 1u);
  EXPECT_EQ(parsed->per_superstep[0].messages_sent, 120u);
  EXPECT_EQ(parsed->per_superstep[0].seconds, 0.25);
}

TEST(CheckpointTest, OnlyCommittedCheckpointsAreVisible) {
  InMemoryTraceStore store;
  const std::string job = "job";
  // Superstep 2: fully committed. Superstep 4: crash before COMMIT.
  ASSERT_TRUE(store.Append(pregel::CheckpointMetaFile(job, 2), "meta").ok());
  ASSERT_TRUE(store.Append(pregel::CheckpointCommitFile(job, 2), "ok").ok());
  ASSERT_TRUE(store.Append(pregel::CheckpointMetaFile(job, 4), "meta").ok());
  EXPECT_EQ(pregel::ListCommittedCheckpoints(store, job),
            (std::vector<int64_t>{2}));
  auto latest = pregel::LatestCommittedCheckpoint(store, job);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2);
  EXPECT_FALSE(pregel::LatestCommittedCheckpoint(store, "absent").ok());
}

TEST(CheckpointTest, GarbageCollectionKeepsNewest) {
  InMemoryTraceStore store;
  const std::string job = "job";
  for (int64_t s : {0, 2, 4}) {
    ASSERT_TRUE(
        store.Append(pregel::CheckpointPartFile(job, s, 0), "part").ok());
    ASSERT_TRUE(store.Append(pregel::CheckpointMetaFile(job, s), "meta").ok());
    ASSERT_TRUE(store.Append(pregel::CheckpointCommitFile(job, s), "ok").ok());
  }
  ASSERT_TRUE(pregel::GarbageCollectCheckpoints(store, job, /*keep=*/2).ok());
  EXPECT_EQ(pregel::ListCommittedCheckpoints(store, job),
            (std::vector<int64_t>{2, 4}));
  ASSERT_TRUE(pregel::GarbageCollectCheckpoints(store, job, /*keep=*/1).ok());
  EXPECT_EQ(pregel::ListCommittedCheckpoints(store, job),
            (std::vector<int64_t>{4}));
  EXPECT_FALSE(store.Exists(pregel::CheckpointPartFile(job, 2, 0)));
}

// ------------------------------------------------------- recovery (runner) --

/// Every (file, records) pair in the store — the byte-identity oracle.
std::map<std::string, std::vector<std::string>> StoreContents(
    const InMemoryTraceStore& store) {
  std::map<std::string, std::vector<std::string>> contents;
  for (const std::string& file : store.ListFiles("")) {
    auto records = store.ReadAll(file);
    GRAFT_CHECK(records.ok());
    contents[file] = *std::move(records);
  }
  return contents;
}

struct PageRankRun {
  pregel::JobRunSummary summary;
  std::map<VertexId, double> ranks;
  // Confined-recovery accounting, read off the engine in post_run.
  uint64_t replayed_vertices = 0;
  std::map<size_t, uint64_t> partition_sizes;
};

/// PageRank on a fixed random graph under Graft, checkpointing every 2
/// supersteps into a separate store, optionally with a fault injector.
Result<PageRankRun> RunCheckpointedPageRank(
    const graph::SimpleGraph& graph,
    const debug::DebugConfig<PageRankTraits>& config,
    InMemoryTraceStore* trace_store, InMemoryTraceStore* ckpt_store,
    FaultInjector* injector, const TraceSinkOptions& capture_io = {},
    pregel::CheckpointMode mode = pregel::CheckpointMode::kFull) {
  pregel::JobSpec<PageRankTraits> spec;
  spec.options.num_workers = 3;
  spec.options.job_id = "pr-recovery";
  spec.capture_io = capture_io;
  spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
    return DoubleValue{a.value + b.value};
  };
  spec.vertices = pregel::LoadUnweighted<PageRankTraits>(
      graph, [](VertexId) { return DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<algos::PageRankComputation>(/*max_iterations=*/8);
  };
  spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(/*max_iterations=*/8);
  };
  spec.debug_config = &config;
  spec.trace_store = trace_store;
  spec.checkpoint.interval = 2;
  spec.checkpoint.store = ckpt_store;
  spec.checkpoint.mode = mode;
  spec.fault_injector = injector;
  PageRankRun run;
  spec.post_run = [&run](pregel::Engine<PageRankTraits>& engine) {
    engine.ForEachVertex([&](const pregel::Vertex<PageRankTraits>& v) {
      run.ranks[v.id()] = v.value().value;
      run.partition_sizes[engine.PartitionOf(v.id())] += 1;
    });
    run.replayed_vertices = engine.confined_replayed_vertices();
  };
  GRAFT_ASSIGN_OR_RETURN(run.summary,
                         pregel::RunJob(std::move(spec)));
  return run;
}

/// ISSUE 3 acceptance: PageRank with an injected worker crash recovers from
/// the latest committed checkpoint, and both the captured traces and the
/// final vertex values are byte-identical to the fault-free run.
TEST(RecoveryTest, PageRankRecoversByteIdentically) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->summary.job_status.ok()) << clean->summary.job_status;
  EXPECT_EQ(clean->summary.attempts, 1);
  EXPECT_TRUE(clean->summary.recoveries.empty());

  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/5, /*partition=*/-1,
                /*hits=*/1});
  InMemoryTraceStore faulty_traces, faulty_ckpts;
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  EXPECT_EQ(injector.fired_count(), 1u);

  // One recovery, restarted from the checkpoint at superstep 4.
  EXPECT_EQ(recovered->summary.attempts, 2);
  ASSERT_EQ(recovered->summary.recoveries.size(), 1u);
  EXPECT_EQ(recovered->summary.recoveries[0].attempt, 1);
  EXPECT_EQ(recovered->summary.recoveries[0].restored_superstep, 4);
  EXPECT_NE(recovered->summary.recoveries[0].cause.find("injected"),
            std::string::npos);

  // The RunReport carries the recovery accounting.
  const obs::RecoveryProfile& profile =
      recovered->summary.stats.report.recovery;
  EXPECT_TRUE(profile.checkpoints_enabled);
  EXPECT_EQ(profile.recoveries, 1u);
  ASSERT_EQ(profile.events.size(), 1u);
  EXPECT_EQ(profile.events[0].restored_superstep, 4);
  EXPECT_GT(profile.checkpoints_written, 0u);
  EXPECT_GT(profile.checkpoint_bytes, 0u);
  EXPECT_GE(profile.checkpoint_seconds, 0.0);
  EXPECT_GE(profile.restore_seconds, 0.0);

  // Byte-identical final state and traces versus the fault-free run.
  EXPECT_EQ(clean->ranks, recovered->ranks);
  EXPECT_EQ(clean->summary.captures, recovered->summary.captures);
  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
  EXPECT_EQ(clean->summary.stats.supersteps,
            recovered->summary.stats.supersteps);
  EXPECT_EQ(clean->summary.stats.total_messages,
            recovered->summary.stats.total_messages);

  // The JSON run report records the recovery for offline analysis.
  std::string json = recovered->summary.stats.report.ToJson();
  EXPECT_NE(json.find("\"recoveries\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"restored_superstep\":4"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_written\""), std::string::npos);
}

/// Records in the trace store that belong to capture files (not checkpoint
/// bookkeeping and not the manifest index): what CaptureProfile.store_appends
/// must account for exactly once, even across recovery rewinds.
uint64_t CaptureRecordCount(const InMemoryTraceStore& store,
                            const std::string& job_id) {
  uint64_t count = 0;
  for (const std::string& file :
       store.ListFiles(debug::JobTracePrefix(job_id))) {
    if (file == debug::ManifestFile(job_id)) continue;  // written via store
    auto records = store.ReadAll(file);
    GRAFT_CHECK(records.ok());
    count += records->size();
  }
  return count;
}

/// ISSUE 5 acceptance (determinism): the spooling sink must produce traces
/// byte-for-byte identical to the synchronous sink — same records, same
/// order within every file, same manifest — and the same capture counters.
/// The async options deliberately force many small batches and a tiny queue
/// so batching boundaries and backpressure are exercised, not avoided.
TEST(RecoveryTest, AsyncSinkProducesByteIdenticalTraces) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore sync_traces, sync_ckpts;
  auto sync_run = RunCheckpointedPageRank(graph, config, &sync_traces,
                                          &sync_ckpts, nullptr);
  ASSERT_TRUE(sync_run.ok()) << sync_run.status();
  ASSERT_TRUE(sync_run->summary.job_status.ok());

  TraceSinkOptions async_io;
  async_io.async = true;
  async_io.max_batch_bytes = 256;  // force frequent batch seals
  async_io.queue_capacity = 2;     // force backpressure waits
  InMemoryTraceStore async_traces, async_ckpts;
  auto async_run = RunCheckpointedPageRank(graph, config, &async_traces,
                                           &async_ckpts, nullptr, async_io);
  ASSERT_TRUE(async_run.ok()) << async_run.status();
  ASSERT_TRUE(async_run->summary.job_status.ok());

  EXPECT_EQ(StoreContents(sync_traces), StoreContents(async_traces));
  EXPECT_EQ(sync_run->ranks, async_run->ranks);
  EXPECT_EQ(sync_run->summary.captures, async_run->summary.captures);
  EXPECT_EQ(sync_run->summary.violations, async_run->summary.violations);
  EXPECT_EQ(sync_run->summary.exceptions, async_run->summary.exceptions);
  EXPECT_EQ(sync_run->summary.trace_bytes, async_run->summary.trace_bytes);

  const obs::CaptureProfile& sync_capture =
      sync_run->summary.stats.report.capture;
  const obs::CaptureProfile& async_capture =
      async_run->summary.stats.report.capture;
  EXPECT_FALSE(sync_capture.async_sink);
  EXPECT_EQ(sync_capture.store_appends, async_capture.store_appends);
  EXPECT_EQ(sync_capture.trace_bytes, async_capture.trace_bytes);
  EXPECT_TRUE(async_capture.async_sink);
  EXPECT_GT(async_capture.spool_batches, 0u);
}

/// Same determinism bar across a mid-run crash: an async-sink run that dies
/// in superstep 5 and recovers from the checkpoint at 4 must still match the
/// fault-free synchronous run byte for byte.
TEST(RecoveryTest, AsyncSinkRecoversByteIdentically) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->summary.job_status.ok());

  TraceSinkOptions async_io;
  async_io.async = true;
  async_io.max_batch_bytes = 256;
  async_io.queue_capacity = 2;
  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/5, /*partition=*/-1,
                /*hits=*/1});
  InMemoryTraceStore faulty_traces, faulty_ckpts;
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector, async_io);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  EXPECT_EQ(recovered->summary.attempts, 2);
  ASSERT_EQ(recovered->summary.recoveries.size(), 1u);
  EXPECT_EQ(recovered->summary.recoveries[0].restored_superstep, 4);

  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
  EXPECT_EQ(clean->ranks, recovered->ranks);
  EXPECT_EQ(clean->summary.captures, recovered->summary.captures);
  EXPECT_EQ(clean->summary.trace_bytes, recovered->summary.trace_bytes);
}

/// ISSUE 5 satellite: CaptureCounters must not double-count serialize/append
/// work re-executed after a recovery rewind. The invariant is that
/// store_appends equals the number of capture records actually present in
/// the store — a retried run that replays supersteps 4..5 must rewind its
/// I/O accounting to the checkpoint snapshot, not keep the discarded work.
TEST(RecoveryTest, RecoveryDoesNotDoubleCountCaptureIo) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();

  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async sink" : "sync sink");
    TraceSinkOptions io;
    io.async = async;
    if (async) io.max_batch_bytes = 256;
    FaultInjector injector;
    injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/5,
                  /*partition=*/-1, /*hits=*/1});
    InMemoryTraceStore traces, ckpts;
    auto recovered =
        RunCheckpointedPageRank(graph, config, &traces, &ckpts, &injector, io);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ASSERT_TRUE(recovered->summary.job_status.ok());
    ASSERT_EQ(recovered->summary.attempts, 2);

    const obs::CaptureProfile& capture =
        recovered->summary.stats.report.capture;
    // Exactly one account entry per record that survived in the store...
    EXPECT_EQ(capture.store_appends,
              CaptureRecordCount(traces, "pr-recovery"));
    // ...and identical I/O accounting to the run that never crashed.
    EXPECT_EQ(capture.store_appends,
              clean->summary.stats.report.capture.store_appends);
    EXPECT_EQ(capture.trace_bytes,
              clean->summary.stats.report.capture.trace_bytes);
    EXPECT_EQ(capture.vertex_captures,
              clean->summary.stats.report.capture.vertex_captures);
  }
}

TEST(RecoveryTest, StoreAppendFaultOnCapturePathIsRetried) {
  auto graph = graph::GenerateRing(64);
  debug::ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({0, 7, 13});
  FaultInjector injector;
  // Superstep 1: after checkpoint 0 has committed (a wildcard would hit the
  // pre-loop checkpoint-0 write, which has no recovery point yet), and not a
  // checkpoint superstep — so the fault lands on a capture append.
  injector.Arm({FaultSite::kStoreAppend, /*superstep=*/1, /*partition=*/-1,
                /*hits=*/1});
  InMemoryTraceStore traces, ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-append-fault";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &traces;
  spec.checkpoint.interval = 2;
  spec.checkpoint.store = &ckpts;
  spec.fault_injector = &injector;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.ok()) << summary->job_status;
  EXPECT_EQ(summary->attempts, 2);
  EXPECT_EQ(summary->recoveries.size(), 1u);
  EXPECT_GT(summary->captures, 0u);
}

TEST(RecoveryTest, DeliveryFaultIsRetried) {
  auto graph = graph::GenerateRing(64);
  FaultInjector injector;
  injector.Arm({FaultSite::kDelivery, /*superstep=*/3, /*partition=*/0,
                /*hits=*/1});
  InMemoryTraceStore ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-delivery-fault";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.checkpoint.interval = 1;
  spec.checkpoint.store = &ckpts;
  spec.fault_injector = &injector;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.ok()) << summary->job_status;
  EXPECT_EQ(summary->attempts, 2);
  // CC on a 64-ring needs 33 supersteps; recovery must not change that.
  auto control = algos::RunConnectedComponents(graph, /*num_workers=*/2);
  ASSERT_TRUE(control.ok());
  EXPECT_EQ(summary->stats.supersteps, control->stats.supersteps);
}

TEST(RecoveryTest, ExhaustedAttemptsSurfaceUnavailable) {
  auto graph = graph::GenerateRing(32);
  FaultInjector injector;
  // Fires on every attempt: the job can never get past superstep 3.
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/3, /*partition=*/-1,
                /*hits=*/100});
  InMemoryTraceStore ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-doomed";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.checkpoint.interval = 1;
  spec.checkpoint.store = &ckpts;
  spec.fault_injector = &injector;
  spec.max_recovery_attempts = 3;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.IsUnavailable()) << summary->job_status;
  // max_recovery_attempts bounds the recoveries, so attempts = 1 + 3.
  EXPECT_EQ(summary->attempts, 4);
  EXPECT_EQ(summary->recoveries.size(), 3u);
}

TEST(RecoveryTest, NoCheckpointMeansNoRetry) {
  auto graph = graph::GenerateRing(32);
  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/2, /*partition=*/-1,
                /*hits=*/1});
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-no-ckpt";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.fault_injector = &injector;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.IsUnavailable()) << summary->job_status;
  EXPECT_EQ(summary->attempts, 1);
  EXPECT_TRUE(summary->recoveries.empty());
}

TEST(RecoveryTest, CheckpointsAreGarbageCollected) {
  auto graph = graph::GenerateRing(64);
  InMemoryTraceStore ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-gc";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.checkpoint.interval = 4;
  spec.checkpoint.store = &ckpts;
  spec.checkpoint.keep = 1;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;
  // Many checkpoints were written, but only `keep` survive.
  EXPECT_GT(summary->stats.report.recovery.checkpoints_written, 1u);
  EXPECT_EQ(pregel::ListCommittedCheckpoints(ckpts, "cc-gc").size(), 1u);
}

// -------------------------------------------- delta checkpoints (ISSUE 7) --

/// Delta round-trip golden: a fault-free delta-mode run produces the same
/// final values as full-checkpoint mode, writes strictly fewer checkpoint
/// payload bytes, and accounts topology/log bytes separately.
TEST(DeltaCheckpointTest, DeltaModeMatchesFullModeAndWritesLess) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore full_traces, full_ckpts;
  auto full = RunCheckpointedPageRank(graph, config, &full_traces,
                                      &full_ckpts, nullptr);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->summary.job_status.ok());

  InMemoryTraceStore delta_traces, delta_ckpts;
  auto delta = RunCheckpointedPageRank(graph, config, &delta_traces,
                                       &delta_ckpts, nullptr, {},
                                       pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_TRUE(delta->summary.job_status.ok()) << delta->summary.job_status;

  EXPECT_EQ(full->ranks, delta->ranks);
  EXPECT_EQ(StoreContents(full_traces), StoreContents(delta_traces));

  const obs::RecoveryProfile& full_rec = full->summary.stats.report.recovery;
  const obs::RecoveryProfile& delta_rec =
      delta->summary.stats.report.recovery;
  EXPECT_EQ(full_rec.checkpoints_written, delta_rec.checkpoints_written);
  // Vertex-state-only deltas: the per-checkpoint payload shrinks hard, and
  // the topology stream was written once (one epoch, no mutations).
  EXPECT_LT(delta_rec.checkpoint_bytes, full_rec.checkpoint_bytes);
  EXPECT_GT(delta_rec.topology_bytes, 0u);
  EXPECT_GT(delta_rec.log_bytes, 0u);
  EXPECT_EQ(full_rec.topology_bytes, 0u);
  EXPECT_EQ(full_rec.log_bytes, 0u);
}

/// ISSUE 7 tentpole acceptance (confined): a worker crash in delta mode is
/// recovered inside the engine — one partition rebuilt and replayed, zero
/// JobRunner restart, healthy partitions do zero recompute — and both traces
/// and final values stay byte-identical to the fault-free run.
TEST(DeltaCheckpointTest, ConfinedRecoveryIsByteIdenticalAndConfined) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr, {},
                                       pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->summary.job_status.ok());
  EXPECT_EQ(clean->replayed_vertices, 0u);

  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/5, /*partition=*/1,
                /*hits=*/1});
  InMemoryTraceStore faulty_traces, faulty_ckpts;
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector, {},
                                           pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  EXPECT_EQ(injector.fired_count(), 1u);

  // Confined: the engine absorbed the crash — no JobRunner restart at all.
  EXPECT_EQ(recovered->summary.attempts, 1);
  EXPECT_TRUE(recovered->summary.recoveries.empty());
  const obs::RecoveryProfile& profile =
      recovered->summary.stats.report.recovery;
  EXPECT_EQ(profile.confined_recoveries, 1u);
  ASSERT_EQ(profile.events.size(), 1u);
  EXPECT_TRUE(profile.events[0].confined);
  EXPECT_EQ(profile.events[0].partition, 1);
  EXPECT_EQ(profile.events[0].restored_superstep, 4);
  EXPECT_EQ(profile.events[0].attempt, 0);
  EXPECT_EQ(profile.recoveries, 1u);

  // Zero recompute outside the failed partition: replay touched at most the
  // crashed partition's vertices for the one superstep in the replay window
  // (checkpoint 4 -> failure at 5), and touched none of the others.
  const uint64_t p1 = recovered->partition_sizes.at(1);
  const uint64_t total = graph.NumVertices();
  EXPECT_GT(recovered->replayed_vertices, 0u);
  EXPECT_LE(recovered->replayed_vertices, p1);
  EXPECT_LT(p1, total);

  // Byte-identity bar, same as global recovery.
  EXPECT_EQ(clean->ranks, recovered->ranks);
  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
  EXPECT_EQ(clean->summary.captures, recovered->summary.captures);
  EXPECT_EQ(clean->summary.stats.supersteps,
            recovered->summary.stats.supersteps);
  EXPECT_EQ(clean->summary.stats.total_messages,
            recovered->summary.stats.total_messages);

  std::string json = recovered->summary.stats.report.ToJson();
  EXPECT_NE(json.find("\"confined_recoveries\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"confined\":true"), std::string::npos);
}

/// Global (whole-job) recovery through the delta path: a delivery fault is
/// not confinable, so the JobRunner restarts from the latest committed delta
/// checkpoint — value parts + topology + outbox-log replay rebuild the
/// inboxes, and CheckpointMeta::pending_messages is asserted against the
/// replayed count inside RestoreDelta.
TEST(DeltaCheckpointTest, GlobalDeltaRecoveryIsByteIdentical) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr, {},
                                       pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->summary.job_status.ok());

  FaultInjector injector;
  injector.Arm({FaultSite::kDelivery, /*superstep=*/5, /*partition=*/0,
                /*hits=*/1});
  InMemoryTraceStore faulty_traces, faulty_ckpts;
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector, {},
                                           pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  EXPECT_EQ(recovered->summary.attempts, 2);
  ASSERT_EQ(recovered->summary.recoveries.size(), 1u);
  EXPECT_EQ(recovered->summary.recoveries[0].restored_superstep, 4);
  EXPECT_EQ(recovered->summary.stats.report.recovery.confined_recoveries,
            0u);

  EXPECT_EQ(clean->ranks, recovered->ranks);
  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
  EXPECT_EQ(clean->summary.stats.total_messages,
            recovered->summary.stats.total_messages);
}

/// Names next to the store layout that no parser may choke on: a numbered
/// directory with no number, or a non-numeric one.
const std::vector<std::string> kStrayCheckpointFiles = {
    "checkpoints/pr-recovery/superstep_/COMMIT",
    "checkpoints/pr-recovery/superstep_x/COMMIT",
    "checkpoints/pr-recovery/topology_x/part-000",
    "checkpoints/pr-recovery/outbox/s/part-000",
    "checkpoints/pr-recovery/outbox/sx/part-000",
};
const std::vector<std::string> kStrayTraceFiles = {
    "pr-recovery/superstep_/worker_000.vtrace",
    "pr-recovery/superstep_x/worker_000.vtrace",
};

/// Stray directory names under checkpoints/<job>/ and <job>/ are ignored by
/// the checkpoint listing, garbage collection (topology and outbox loops)
/// and the trace prune, and they survive all three.
TEST(CheckpointTest, StrayDirectoriesAreIgnored) {
  InMemoryTraceStore store;
  const std::string job = "pr-recovery";
  for (const std::string& file : kStrayCheckpointFiles) {
    ASSERT_TRUE(store.Append(file, "stray").ok());
  }
  for (const std::string& file : kStrayTraceFiles) {
    ASSERT_TRUE(store.Append(file, "stray").ok());
  }
  CheckpointMeta meta;
  meta.mode = pregel::CheckpointMode::kDelta;
  meta.topology_epoch = 1;
  for (int64_t s : {2, 4}) {
    meta.superstep = s;
    ASSERT_TRUE(
        store.Append(pregel::CheckpointMetaFile(job, s), meta.Serialize())
            .ok());
    ASSERT_TRUE(store.Append(pregel::CheckpointCommitFile(job, s), "ok").ok());
    ASSERT_TRUE(
        store.Append(pregel::OutboxLogFile(job, s, 0), "log").ok());
  }
  ASSERT_TRUE(store.Append(debug::VertexTraceFile(job, 3, 0), "t").ok());

  EXPECT_EQ(pregel::ListCommittedCheckpoints(store, job),
            (std::vector<int64_t>{2, 4}));
  ASSERT_TRUE(pregel::GarbageCollectCheckpoints(store, job, /*keep=*/1).ok());
  EXPECT_EQ(pregel::ListCommittedCheckpoints(store, job),
            (std::vector<int64_t>{4}));
  EXPECT_FALSE(store.Exists(pregel::OutboxLogFile(job, 2, 0)))
      << "the outbox loop still prunes real logs";
  ASSERT_TRUE(debug::PruneTracesFrom(store, job, 0).ok());
  EXPECT_FALSE(store.Exists(debug::VertexTraceFile(job, 3, 0)));
  for (const std::string& file : kStrayCheckpointFiles) {
    EXPECT_TRUE(store.Exists(file)) << file;
  }
  for (const std::string& file : kStrayTraceFiles) {
    EXPECT_TRUE(store.Exists(file)) << file;
  }
}

/// A checkpointed job whose stores hold stray directories still recovers:
/// recovery lists checkpoints, drops outbox logs past the checkpoint and
/// prunes re-executed traces, and every one of those parsers skips them.
TEST(RecoveryTest, StrayDirectoriesDoNotBreakRecovery) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100});

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr, {},
                                       pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->summary.job_status.ok());

  InMemoryTraceStore faulty_traces, faulty_ckpts;
  for (const std::string& file : kStrayCheckpointFiles) {
    ASSERT_TRUE(faulty_ckpts.Append(file, "stray").ok());
  }
  for (const std::string& file : kStrayTraceFiles) {
    ASSERT_TRUE(faulty_traces.Append(file, "stray").ok());
  }
  FaultInjector injector;
  injector.Arm({FaultSite::kDelivery, /*superstep=*/5, /*partition=*/0,
                /*hits=*/1});
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector, {},
                                           pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  ASSERT_EQ(recovered->summary.recoveries.size(), 1u);
  EXPECT_EQ(recovered->summary.recoveries[0].restored_superstep, 4);
  EXPECT_EQ(clean->ranks, recovered->ranks);
  for (const std::string& file : kStrayTraceFiles) {
    ASSERT_TRUE(faulty_traces.DeletePrefix(file).ok());
  }
  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
}

/// Vertices outside a designated quiet set keep themselves awake by
/// self-messaging for `rounds` supersteps; vertices inside it halt at
/// superstep 0 and never hear from anyone again.
class SelfPingComputation : public pregel::Computation<CCTraits> {
 public:
  SelfPingComputation(const std::set<VertexId>* pingers, int64_t rounds)
      : pingers_(pingers), rounds_(rounds) {}
  void Compute(pregel::ComputeContext<CCTraits>& ctx,
               pregel::Vertex<CCTraits>& vertex,
               const std::vector<Int64Value>& messages) override {
    (void)messages;
    if (ctx.superstep() < rounds_ && pingers_->count(vertex.id()) != 0) {
      ctx.SendMessage(vertex.id(), Int64Value{ctx.superstep()});
    }
    vertex.VoteToHalt();
  }

 private:
  const std::set<VertexId>* pingers_;
  int64_t rounds_;
};

/// Clean partitions emit header-only deltas: a partition whose vertices all
/// went quiet stops paying value-part writes — the meta points its
/// base_superstep at an older checkpoint and no part file exists for it at
/// the newer ones.
TEST(DeltaCheckpointTest, CleanPartitionsWriteHeaderOnlyDeltas) {
  auto graph = graph::GenerateRing(64);
  InMemoryTraceStore ckpts;
  auto pingers = std::make_shared<std::set<VertexId>>();
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 3;
  spec.options.job_id = "ping-delta-clean";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = [pingers] {
    return std::make_unique<SelfPingComputation>(pingers.get(),
                                                 /*rounds=*/8);
  };
  // Everything outside partition 0 self-pings; partition 0 computes only at
  // superstep 0 and is clean at every checkpoint from superstep 4 on.
  spec.pre_run = [pingers](pregel::Engine<CCTraits>& engine) {
    for (VertexId id = 0; id < 64; ++id) {
      if (engine.PartitionOf(id) != 0) pingers->insert(id);
    }
  };
  spec.checkpoint.interval = 2;
  spec.checkpoint.store = &ckpts;
  spec.checkpoint.keep = 1000;  // keep everything: inspect every checkpoint
  spec.checkpoint.mode = pregel::CheckpointMode::kDelta;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;

  int header_only = 0;
  for (int64_t s :
       pregel::ListCommittedCheckpoints(ckpts, "ping-delta-clean")) {
    auto records =
        ckpts.ReadAll(pregel::CheckpointMetaFile("ping-delta-clean", s));
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    auto meta = CheckpointMeta::Parse((*records)[0]);
    ASSERT_TRUE(meta.ok()) << meta.status();
    for (int part = 0; part < meta->num_partitions; ++part) {
      const bool has_part = ckpts.Exists(
          pregel::CheckpointPartFile("ping-delta-clean", s, part));
      const int64_t base = meta->partitions[part].base_superstep;
      if (has_part) {
        EXPECT_EQ(base, s);
      } else {
        ++header_only;
        EXPECT_LT(base, s);
        // The referenced older value part must still exist (GC keeps it).
        EXPECT_TRUE(ckpts.Exists(
            pregel::CheckpointPartFile("ping-delta-clean", base, part)));
      }
    }
    if (s >= 4) {
      EXPECT_FALSE(ckpts.Exists(
          pregel::CheckpointPartFile("ping-delta-clean", s, 0)))
          << "partition 0 went quiet after superstep 0 but still wrote a "
             "value part at checkpoint "
          << s;
    }
  }
  EXPECT_GT(header_only, 0);
}

/// Outbox logs are garbage-collected behind the commit frontier: after a
/// run with keep=1, no log directory older than the newest committed
/// checkpoint survives.
TEST(DeltaCheckpointTest, OutboxLogsAreGarbageCollectedAfterCommit) {
  auto graph = graph::GenerateRing(64);
  InMemoryTraceStore ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-delta-gc";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.checkpoint.interval = 4;
  spec.checkpoint.store = &ckpts;
  spec.checkpoint.keep = 1;
  spec.checkpoint.mode = pregel::CheckpointMode::kDelta;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;

  auto latest = pregel::LatestCommittedCheckpoint(ckpts, "cc-delta-gc");
  ASSERT_TRUE(latest.ok());
  EXPECT_GT(*latest, 0);
  const std::string outbox_root = pregel::OutboxRoot("cc-delta-gc");
  std::vector<std::string> log_files = ckpts.ListFiles(outbox_root);
  EXPECT_FALSE(log_files.empty());
  for (const std::string& file : log_files) {
    // outbox/s%06lld/...
    const int64_t s = std::stoll(file.substr(outbox_root.size() + 1, 6));
    EXPECT_GE(s, *latest) << file;
  }
}

/// An outbox-log append fault is an ordinary retryable store failure: the
/// superstep aborts and the JobRunner recovers globally.
TEST(DeltaCheckpointTest, LogAppendFaultIsRetried) {
  auto graph = graph::GenerateRing(64);
  FaultInjector injector;
  injector.Arm({FaultSite::kLogAppend, /*superstep=*/3, /*partition=*/-1,
                /*hits=*/1});
  InMemoryTraceStore ckpts;
  pregel::JobSpec<CCTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "cc-log-append-fault";
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      graph, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.checkpoint.interval = 2;
  spec.checkpoint.store = &ckpts;
  spec.checkpoint.mode = pregel::CheckpointMode::kDelta;
  spec.fault_injector = &injector;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.ok()) << summary->job_status;
  EXPECT_EQ(summary->attempts, 2);
  auto control = algos::RunConnectedComponents(graph, /*num_workers=*/2);
  ASSERT_TRUE(control.ok());
  EXPECT_EQ(summary->stats.supersteps, control->stats.supersteps);
}

/// A replay fault during confined recovery falls back to global recovery:
/// the confined attempt dies on the injected kLogReplay fault, the engine
/// aborts retryably, and the JobRunner restart completes the job.
TEST(DeltaCheckpointTest, LogReplayFaultFallsBackToGlobalRecovery) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(300, 1200, /*seed=*/9));
  debug::ConfigurableDebugConfig<PageRankTraits> config;
  config.set_vertices({0, 1, 2, 50, 100}).set_capture_neighbors(true);

  InMemoryTraceStore clean_traces, clean_ckpts;
  auto clean = RunCheckpointedPageRank(graph, config, &clean_traces,
                                       &clean_ckpts, nullptr, {},
                                       pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultInjector injector;
  injector.Arm({FaultSite::kWorkerCompute, /*superstep=*/5, /*partition=*/1,
                /*hits=*/1});
  injector.Arm({FaultSite::kLogReplay, /*superstep=*/5, /*partition=*/-1,
                /*hits=*/1});
  InMemoryTraceStore faulty_traces, faulty_ckpts;
  auto recovered = RunCheckpointedPageRank(graph, config, &faulty_traces,
                                           &faulty_ckpts, &injector, {},
                                           pregel::CheckpointMode::kDelta);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(recovered->summary.job_status.ok())
      << recovered->summary.job_status;
  EXPECT_EQ(injector.fired_count(), 2u);
  // The confined attempt failed; the global retry finished the job.
  EXPECT_EQ(recovered->summary.attempts, 2);
  ASSERT_EQ(recovered->summary.recoveries.size(), 1u);
  EXPECT_EQ(recovered->summary.stats.report.recovery.confined_recoveries,
            0u);
  EXPECT_EQ(clean->ranks, recovered->ranks);
  EXPECT_EQ(StoreContents(clean_traces), StoreContents(faulty_traces));
}

}  // namespace
}  // namespace graft
