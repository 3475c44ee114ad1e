// Tests for the superstep hot path introduced with the persistent worker
// pool and the double-buffered message store (DESIGN.md §4): ChunkedBuffer
// arena reuse, FlatIndex lookup semantics, MessageStore combining /
// ordering / drop accounting, WorkerPool thread reuse, incremental
// activity-counter consistency under topology mutation, partial-superstep
// profiles, and run-to-run trace determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algos/graph_coloring.h"
#include "common/flat_index.h"
#include "common/parallel.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/engine.h"
#include "pregel/job.h"
#include "pregel/loader.h"
#include "pregel/message_store.h"
#include "pregel/value_types.h"

namespace graft {
namespace pregel {
namespace {

// ---------------------------------------------------------- ChunkedBuffer --

TEST(ChunkedBufferTest, AppendOrderAcrossChunkBoundaries) {
  ChunkedBuffer<int> buf(/*chunk_capacity=*/4);
  for (int i = 0; i < 11; ++i) buf.Append(i);
  EXPECT_EQ(buf.size(), 11u);
  std::vector<int> seen;
  buf.ForEach([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(ChunkedBufferTest, ClearKeepsChunksForReuse) {
  ChunkedBuffer<int> buf(/*chunk_capacity=*/4);
  for (int i = 0; i < 10; ++i) buf.Append(i);
  const size_t chunks = buf.allocated_chunks();
  EXPECT_EQ(chunks, 3u);
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.allocated_chunks(), chunks);  // capacity retained
  // Refill to the same size: no new chunks.
  for (int i = 0; i < 10; ++i) buf.Append(100 + i);
  EXPECT_EQ(buf.allocated_chunks(), chunks);
  std::vector<int> seen;
  buf.ForEach([&](int v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 100);
  EXPECT_EQ(seen.back(), 109);
}

TEST(ChunkedBufferTest, EmptyForEachVisitsNothing) {
  ChunkedBuffer<int> buf(2);
  int count = 0;
  buf.ForEach([&](int) { ++count; });
  EXPECT_EQ(count, 0);
  buf.Clear();  // clearing an empty buffer is a no-op
  EXPECT_EQ(buf.size(), 0u);
}

// -------------------------------------------------------------- FlatIndex --

TEST(FlatIndexTest, InsertFindAndGrowth) {
  FlatIndex index;
  // Enough keys to force several rehashes past the 16-cell floor.
  for (int64_t k = 0; k < 1000; ++k) {
    bool inserted = false;
    EXPECT_EQ(index.InsertOrFind(k * 7919, static_cast<uint32_t>(k),
                                 &inserted),
              static_cast<uint32_t>(k));
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(index.size(), 1000u);
  for (int64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(index.Find(k * 7919), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(index.Find(-1), FlatIndex::kNotFound);
  EXPECT_EQ(index.Find(7919 * 1000), FlatIndex::kNotFound);
}

TEST(FlatIndexTest, InsertOrFindReturnsExistingMapping) {
  FlatIndex index;
  bool inserted = false;
  index.InsertOrFind(42, 7, &inserted);
  ASSERT_TRUE(inserted);
  // A second insert for the same key keeps the original slot — this is the
  // resurrection path: a removed vertex's id stays mapped to its slot.
  EXPECT_EQ(index.InsertOrFind(42, 99, &inserted), 7u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(index.size(), 1u);
}

// ----------------------------------------------------------- MessageStore --

using IntStore = MessageStore<int>;

TEST(MessageStoreTest, EntryPathDeliversInSenderOrder) {
  IntStore store;
  store.Configure(/*num_partitions=*/3, /*combiner=*/nullptr);
  store.EnsureInboxSlots(1, 2);
  // Two senders target partition 1, slot 0; delivery must drain sender 0
  // before sender 2, each in append order.
  store.SendEntry(2, 1, /*target=*/10, 30);
  store.SendEntry(0, 1, /*target=*/10, 10);
  store.SendEntry(0, 1, /*target=*/10, 11);
  auto resolve = [](VertexId id) -> size_t {
    return id == 10 ? 0 : IntStore::kNoSlot;
  };
  auto alive = [](size_t) { return true; };
  auto stats = store.Deliver(1, resolve, alive);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(store.Inbox(1, 0), (std::vector<int>{10, 11, 30}));
}

TEST(MessageStoreTest, UnresolvedEntriesCountAsDropped) {
  IntStore store;
  store.Configure(2, nullptr);
  store.EnsureInboxSlots(0, 1);
  store.SendEntry(0, 0, /*target=*/5, 1);
  store.SendEntry(1, 0, /*target=*/6, 2);
  auto stats = store.Deliver(
      0, [](VertexId id) -> size_t { return id == 5 ? 0 : IntStore::kNoSlot; },
      [](size_t) { return true; });
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(store.Inbox(0, 0), (std::vector<int>{1}));
}

TEST(MessageStoreTest, CombinerFoldsPerSenderAndAcrossSenders) {
  IntStore store;
  store.Configure(2, [](const int& a, const int& b) { return a + b; });
  store.EnsureInboxSlots(0, 3);
  // Sender 0 sends three messages to slot 1; sender 1 sends two more.
  store.SendCombined(0, 0, 1, 1);
  store.SendCombined(0, 0, 1, 2);
  store.SendCombined(0, 0, 1, 4);
  store.SendCombined(1, 0, 1, 8);
  store.SendCombined(1, 0, 1, 16);
  auto stats = store.Deliver(
      0, [](VertexId) -> size_t { return IntStore::kNoSlot; },
      [](size_t) { return true; });
  // One message in the inbox, but all five accounted as delivered.
  EXPECT_EQ(stats.delivered, 5u);
  ASSERT_EQ(store.Inbox(0, 1).size(), 1u);
  EXPECT_EQ(store.Inbox(0, 1)[0], 31);
}

TEST(MessageStoreTest, CombinedSlotsToDeadVerticesDropWithCounts) {
  IntStore store;
  store.Configure(1, [](const int& a, const int& b) { return a + b; });
  store.EnsureInboxSlots(0, 2);
  store.SendCombined(0, 0, 0, 1);
  store.SendCombined(0, 0, 0, 1);  // folded: still 2 messages for accounting
  store.SendCombined(0, 0, 1, 5);
  auto stats = store.Deliver(
      0, [](VertexId) -> size_t { return IntStore::kNoSlot; },
      [](size_t slot) { return slot != 0; });  // slot 0 died after the sends
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_TRUE(store.Inbox(0, 0).empty());
  EXPECT_EQ(store.Inbox(0, 1), (std::vector<int>{5}));
}

TEST(MessageStoreTest, EpochClearingReusesSlotsAcrossSupersteps) {
  IntStore store;
  store.Configure(1, [](const int& a, const int& b) { return a + b; });
  store.EnsureInboxSlots(0, 4);
  auto no_resolve = [](VertexId) -> size_t { return IntStore::kNoSlot; };
  auto all_alive = [](size_t) { return true; };
  // Superstep S: combine into slots 0 and 2.
  store.SendCombined(0, 0, 0, 10);
  store.SendCombined(0, 0, 2, 20);
  auto s1 = store.Deliver(0, no_resolve, all_alive);
  EXPECT_EQ(s1.delivered, 2u);
  store.ClearInbox(0, 0);
  store.ClearInbox(0, 2);
  // Superstep S+1: the epoch bump must have invalidated the old slot data —
  // a fresh send to slot 2 starts from scratch, slot 0 stays untouched.
  store.SendCombined(0, 0, 2, 7);
  auto s2 = store.Deliver(0, no_resolve, all_alive);
  EXPECT_EQ(s2.delivered, 1u);
  EXPECT_TRUE(store.Inbox(0, 0).empty());
  EXPECT_EQ(store.Inbox(0, 2), (std::vector<int>{7}));
}

TEST(MessageStoreTest, CombinedBeforeEntriesPerSender) {
  // Delivery order contract: per sender, combined slots (first-touch order)
  // precede that sender's unresolved entries (append order).
  IntStore store;
  store.Configure(1, [](const int& a, const int& b) { return a + b; });
  store.EnsureInboxSlots(0, 2);
  store.SendEntry(0, 0, /*target=*/77, 100);  // resolves late to slot 0
  store.SendCombined(0, 0, 0, 1);
  auto stats = store.Deliver(
      0, [](VertexId id) -> size_t { return id == 77 ? 0u : IntStore::kNoSlot; },
      [](size_t) { return true; });
  EXPECT_EQ(stats.delivered, 2u);
  // Combined partial lands first, the entry folds into it: 1 + 100.
  EXPECT_EQ(store.Inbox(0, 0), (std::vector<int>{101}));
}

// ------------------------------------------------------------- WorkerPool --

TEST(WorkerPoolTest, RunsEveryWorkerEachPhaseAndReusesThreads) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::vector<std::atomic<int>> hits(4);
  constexpr int kPhases = 100;
  for (int phase = 0; phase < kPhases; ++phase) {
    pool.Run([&](int w) { hits[static_cast<size_t>(w)]++; });
  }
  for (int w = 0; w < 4; ++w) EXPECT_EQ(hits[static_cast<size_t>(w)], kPhases);
  // generations() counts phases; the pool never spawned past construction.
  EXPECT_EQ(pool.generations(), static_cast<uint64_t>(kPhases));
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Run([&](int w) {
    EXPECT_EQ(w, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(pool.generations(), 1u);
}

TEST(WorkerPoolTest, PhasesAreBarriers) {
  // Writes from phase N must be visible to every worker in phase N+1.
  WorkerPool pool(3);
  std::vector<int> data(3, 0);
  pool.Run([&](int w) { data[static_cast<size_t>(w)] = w + 1; });
  int sum = 0;
  pool.Run([&](int w) {
    if (w == 0) sum = data[0] + data[1] + data[2];
  });
  EXPECT_EQ(sum, 6);
}

// ------------------------------------- incremental counters under mutation --

struct MutTraits {
  using VertexValue = Int64Value;
  using EdgeValue = NullValue;
  using Message = Int64Value;
};

/// Validates the engine's incremental alive/edge/awake counters against a
/// full recount at the end of every superstep of a mutation-heavy job.
template <typename Traits>
class CounterAuditor : public Engine<Traits>::SuperstepObserver {
 public:
  explicit CounterAuditor(Engine<Traits>* engine) : engine_(engine) {}
  void OnSuperstepEnd(int64_t superstep, const SuperstepStats&) override {
    Status status = engine_->ValidateCountersByFullScan();
    EXPECT_TRUE(status.ok()) << "superstep " << superstep << ": " << status;
    ++audits_;
  }
  int audits() const { return audits_; }

 private:
  Engine<Traits>* engine_;
  int audits_ = 0;
};

TEST(IncrementalCountersTest, MatchFullRecountUnderHeavyMutation) {
  // Every flavor of mutation: vertex removal, vertex creation via messages
  // to unknown ids, edge adds (including to-be-created vertices), edge
  // removals, plus vote-to-halt toggling — audited against a full scan
  // after each superstep.
  struct ChurnComputation : Computation<MutTraits> {
    void Compute(ComputeContext<MutTraits>& ctx, Vertex<MutTraits>& vertex,
                 const std::vector<Int64Value>& messages) override {
      const int64_t step = ctx.superstep();
      const VertexId id = vertex.id();
      if (step == 0) {
        if (id % 3 == 0) ctx.RemoveVertexRequest((id + 1) % 20);
        if (id % 4 == 0) ctx.SendMessage(1000 + id, Int64Value{id});  // spawn
        if (id % 5 == 0) ctx.AddEdgeRequest(id, 2000 + id, NullValue{});
        ctx.SendMessageToAllEdges(vertex, Int64Value{1});
        return;
      }
      if (step == 1) {
        if (id % 2 == 0 && !vertex.edges().empty()) {
          ctx.RemoveEdgeRequest(id, vertex.edges()[0].target);
        }
        for (const auto& m : messages) {
          vertex.set_value(Int64Value{vertex.value().value + m.value});
        }
        return;
      }
      vertex.VoteToHalt();
    }
  };
  Engine<MutTraits>::Options options;
  options.num_workers = 4;
  options.create_missing_vertices = true;
  auto vertices = LoadUnweighted<MutTraits>(
      graph::GenerateRing(20), [](VertexId) { return Int64Value{0}; });
  Engine<MutTraits> engine(options, std::move(vertices), [] {
    return std::make_unique<ChurnComputation>();
  });
  CounterAuditor<MutTraits> auditor(&engine);
  engine.AddObserver(&auditor);
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(auditor.audits(), 3);
  // And once more after the run, including the final partial superstep.
  EXPECT_TRUE(engine.ValidateCountersByFullScan().ok());
}

// ------------------------------------------------- partial-superstep stats --

struct HaltTraits {
  using VertexValue = Int64Value;
  using EdgeValue = NullValue;
  using Message = Int64Value;
};

TEST(PartialSuperstepTest, AllHaltedRunRecordsTrailingPartialProfile) {
  struct OneShot : Computation<HaltTraits> {
    void Compute(ComputeContext<HaltTraits>&, Vertex<HaltTraits>& vertex,
                 const std::vector<Int64Value>&) override {
      vertex.VoteToHalt();
    }
  };
  Engine<HaltTraits>::Options options;
  options.num_workers = 2;
  auto vertices = LoadUnweighted<HaltTraits>(
      graph::GenerateRing(6), [](VertexId) { return Int64Value{0}; });
  Engine<HaltTraits> engine(options, std::move(vertices), [] {
    return std::make_unique<OneShot>();
  });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->termination, TerminationReason::kAllHalted);
  EXPECT_EQ(stats->supersteps, 1);
  // The terminating superstep (mutation + delivery + termination check ran,
  // compute did not) is recorded rather than dropped, flagged partial.
  ASSERT_EQ(stats->report.per_superstep.size(), 2u);
  EXPECT_FALSE(stats->report.per_superstep[0].partial);
  EXPECT_TRUE(stats->report.per_superstep[1].partial);
  EXPECT_GE(stats->report.per_superstep[1].total_seconds, 0.0);
  ASSERT_EQ(stats->per_superstep.size(), 2u);
  EXPECT_GE(stats->per_superstep[1].seconds, 0.0);
}

TEST(PartialSuperstepTest, MasterHaltRecordsTrailingPartialProfile) {
  struct Chatty : Computation<HaltTraits> {
    void Compute(ComputeContext<HaltTraits>& ctx, Vertex<HaltTraits>& vertex,
                 const std::vector<Int64Value>&) override {
      ctx.SendMessageToAllEdges(vertex, Int64Value{1});
    }
  };
  class HaltAtTwo : public MasterCompute {
   public:
    void Compute(MasterContext& ctx) override {
      if (ctx.superstep() == 2) ctx.HaltComputation();
    }
  };
  Engine<HaltTraits>::Options options;
  options.num_workers = 2;
  auto vertices = LoadUnweighted<HaltTraits>(
      graph::GenerateRing(6), [](VertexId) { return Int64Value{0}; });
  Engine<HaltTraits> engine(
      options, std::move(vertices),
      [] { return std::make_unique<Chatty>(); },
      [] { return std::make_unique<HaltAtTwo>(); });
  auto stats = engine.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->termination, TerminationReason::kMasterHalted);
  EXPECT_EQ(stats->supersteps, 2);
  ASSERT_EQ(stats->report.per_superstep.size(), 3u);
  EXPECT_TRUE(stats->report.per_superstep[2].partial);
  // The halted superstep ran its master phase; that timing is preserved.
  EXPECT_GE(stats->report.per_superstep[2].master_seconds, 0.0);
}

// ----------------------------------------------------- trace determinism --

TEST(DeterminismTest, SameSeedSameConfigYieldsByteIdenticalTraces) {
  // Graph coloring is seed-dependent (MIS lottery uses ctx.rng()), making it
  // the sharpest determinism probe: any divergence in message order,
  // partitioning, or rng streams changes colors and therefore trace bytes.
  auto run = [](InMemoryTraceStore* store) {
    graph::SimpleGraph g = graph::GenerateRegularBipartite(30, 3, 11);
    debug::ConfigurableDebugConfig<algos::GCTraits> config;
    config.set_vertices({0, 7, 19}).set_capture_neighbors(true);
    JobSpec<algos::GCTraits> spec;
    spec.options.job_id = "determinism";
    spec.options.num_workers = 4;
    spec.options.seed = 1234;
    spec.vertices = algos::LoadGraphColoringVertices(g);
    spec.computation = algos::MakeGraphColoringFactory(false);
    spec.master = algos::MakeGraphColoringMasterFactory();
    spec.debug_config = &config;
    spec.trace_store = store;
    auto summary = RunJob(std::move(spec));
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;
    ASSERT_GT(summary->captures, 0u);
  };
  InMemoryTraceStore store_a;
  InMemoryTraceStore store_b;
  run(&store_a);
  run(&store_b);
  const std::vector<std::string> files_a = store_a.ListFiles("");
  const std::vector<std::string> files_b = store_b.ListFiles("");
  ASSERT_EQ(files_a, files_b);
  ASSERT_FALSE(files_a.empty());
  for (const std::string& file : files_a) {
    auto records_a = store_a.ReadAll(file);
    auto records_b = store_b.ReadAll(file);
    ASSERT_TRUE(records_a.ok());
    ASSERT_TRUE(records_b.ok());
    EXPECT_EQ(records_a.value(), records_b.value())
        << "trace file " << file << " differs between identical runs";
  }
}

TEST(DeterminismTest, CheckpointingIsTransparentToTraces) {
  // Checkpointing must be pure observation: a run that writes checkpoints
  // (to a separate store) produces byte-identical trace files to one that
  // does not. Any leak — rng draws, message reordering, stats pollution —
  // through the checkpoint path shows up here.
  auto run = [](InMemoryTraceStore* store, InMemoryTraceStore* ckpt_store) {
    graph::SimpleGraph g = graph::GenerateRegularBipartite(30, 3, 11);
    debug::ConfigurableDebugConfig<algos::GCTraits> config;
    config.set_vertices({0, 7, 19}).set_capture_neighbors(true);
    JobSpec<algos::GCTraits> spec;
    spec.options.job_id = "determinism";
    spec.options.num_workers = 4;
    spec.options.seed = 1234;
    spec.vertices = algos::LoadGraphColoringVertices(g);
    spec.computation = algos::MakeGraphColoringFactory(false);
    spec.master = algos::MakeGraphColoringMasterFactory();
    spec.debug_config = &config;
    spec.trace_store = store;
    if (ckpt_store != nullptr) {
      spec.checkpoint.interval = 2;
      spec.checkpoint.store = ckpt_store;
    }
    auto summary = RunJob(std::move(spec));
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;
  };
  InMemoryTraceStore plain_store;
  InMemoryTraceStore ckpt_traces, ckpts;
  run(&plain_store, nullptr);
  run(&ckpt_traces, &ckpts);
  ASSERT_FALSE(ckpts.ListFiles("").empty());  // checkpoints actually written
  const std::vector<std::string> files = plain_store.ListFiles("");
  ASSERT_EQ(files, ckpt_traces.ListFiles(""));
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    auto plain = plain_store.ReadAll(file);
    auto checkpointed = ckpt_traces.ReadAll(file);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(checkpointed.ok());
    EXPECT_EQ(plain.value(), checkpointed.value())
        << "trace file " << file << " differs with checkpointing enabled";
  }
}

}  // namespace
}  // namespace pregel
}  // namespace graft
