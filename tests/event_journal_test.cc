// Event journal suite (ISSUE 6 tentpole): lock-free append + snapshot
// semantics, bounded-capacity oldest-dropped accounting, concurrent writers
// (exercised under the TSan CI job), Chrome-trace/JSONL export round-trips
// validated by parsing, JournalSpan exactly-once semantics, and the engine
// integration that puts per-worker phase spans on the timeline for every
// superstep.
#include "obs/event_journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "common/json_parser.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "obs/job_registry.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::PageRankTraits;
using obs::EventJournal;
using obs::EventKind;
using obs::JournalEvent;
using obs::JournalSpan;
using pregel::DoubleValue;

TEST(EventJournalTest, AppendAndSnapshotBasics) {
  EventJournal journal(/*capacity=*/256, /*num_shards=*/2);
  journal.Instant("start", "test", -1, -1);
  journal.Span("phase", "test", 0, 3, journal.NowNs(), 42);
  journal.CounterSample("queue", "test", 1, 3, 7);

  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(journal.appended(), 3u);
  EXPECT_EQ(journal.dropped(), 0u);

  std::map<std::string, const JournalEvent*> by_name;
  for (const JournalEvent& e : events) by_name[e.name] = &e;
  ASSERT_TRUE(by_name.count("start"));
  ASSERT_TRUE(by_name.count("phase"));
  ASSERT_TRUE(by_name.count("queue"));
  EXPECT_EQ(by_name["start"]->kind, EventKind::kInstant);
  EXPECT_EQ(by_name["phase"]->kind, EventKind::kSpan);
  EXPECT_EQ(by_name["phase"]->worker, 0);
  EXPECT_EQ(by_name["phase"]->superstep, 3);
  EXPECT_EQ(by_name["phase"]->value, 42u);
  EXPECT_EQ(by_name["queue"]->kind, EventKind::kCounter);
  EXPECT_EQ(by_name["queue"]->value, 7u);

  // Snapshot is ordered by start time.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

TEST(EventJournalTest, BoundedCapacityDropsOldestAndCounts) {
  // One shard of 64 slots: appending 200 keeps the newest 64.
  EventJournal journal(/*capacity=*/64, /*num_shards=*/1);
  ASSERT_EQ(journal.capacity(), 64u);
  for (int i = 0; i < 200; ++i) {
    journal.Instant("tick", "test", -1, i);
  }
  EXPECT_EQ(journal.appended(), 200u);
  EXPECT_EQ(journal.dropped(), 136u);
  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // The retained window is exactly the newest 64 events.
  std::set<int64_t> supersteps;
  for (const JournalEvent& e : events) supersteps.insert(e.superstep);
  EXPECT_EQ(*supersteps.begin(), 136);
  EXPECT_EQ(*supersteps.rbegin(), 199);
}

TEST(EventJournalTest, ConcurrentAppendFromManyThreads) {
  EventJournal journal(/*capacity=*/1 << 17, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Span("work", "test", t, i, journal.NowNs(),
                     static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(journal.appended(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(journal.dropped(), 0u);
  std::vector<JournalEvent> events = journal.Snapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
  // No torn slot: every event carries the fields its writer stored.
  for (const JournalEvent& e : events) {
    EXPECT_STREQ(e.name, "work");
    EXPECT_STREQ(e.category, "test");
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, kThreads);
    EXPECT_GE(e.superstep, 0);
    EXPECT_LT(e.superstep, kPerThread);
    EXPECT_EQ(e.value, static_cast<uint64_t>(e.superstep));
  }
}

TEST(EventJournalTest, SnapshotDuringActiveWritersIsNeverTorn) {
  // Small rings force constant wrap-around while readers snapshot: the
  // seqlock must reject mid-publish and overwritten slots, never return a
  // half-written event. This is the TSan CI target for the journal.
  EventJournal journal(/*capacity=*/256, /*num_shards=*/2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&journal, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        journal.Instant("w", "test", t, static_cast<int64_t>(i % 1000), i);
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<JournalEvent> events = journal.Snapshot();
    EXPECT_LE(events.size(), journal.capacity());
    for (const JournalEvent& e : events) {
      EXPECT_STREQ(e.name, "w");
      EXPECT_STREQ(e.category, "test");
      EXPECT_GE(e.worker, 0);
      EXPECT_LT(e.worker, 4);
      EXPECT_EQ(e.value % 1000, static_cast<uint64_t>(e.superstep));
    }
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GE(journal.dropped(), 0u);
}

TEST(EventJournalTest, JsonlExportOneValidObjectPerLine) {
  EventJournal journal(128, 1);
  journal.Instant("a", "cat", -1, 0);
  journal.Span("b", "cat", 1, 2, journal.NowNs(), 5);
  std::istringstream lines(journal.ToJsonl());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    auto v = ParseJson(line);
    ASSERT_TRUE(v.ok()) << "invalid JSONL line: " << line;
    ASSERT_TRUE((*v)->is_object());
    EXPECT_NE((*v)->Get("name"), nullptr);
    EXPECT_NE((*v)->Get("kind"), nullptr);
    EXPECT_NE((*v)->Get("start_ns"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST(EventJournalTest, ChromeTraceExportRoundTrips) {
  EventJournal journal(256, 2);
  journal.Span("compute", "worker", 0, 1, journal.NowNs(), 10);
  journal.Span("compute", "worker", 1, 1, journal.NowNs(), 11);
  journal.Instant("checkpoint.commit", "checkpoint", -1, 2);
  journal.CounterSample("queue_depth", "capture", -1, 2, 3);

  const std::string json = journal.ToChromeTraceJson();
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << "Chrome trace JSON failed to parse";
  ASSERT_TRUE((*doc)->is_object());
  const JsonValue* events = (*doc)->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int spans = 0;
  int instants = 0;
  int counters = 0;
  int metadata = 0;
  std::set<std::string> thread_names;
  for (const auto& e : events->items()) {
    ASSERT_TRUE(e->is_object());
    const JsonValue* ph = e->Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->AsString() == "X") {
      ++spans;
      EXPECT_NE(e->Get("dur"), nullptr);
      EXPECT_NE(e->Get("ts"), nullptr);
      const JsonValue* args = e->Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->Get("superstep"), nullptr);
    } else if (ph->AsString() == "i") {
      ++instants;
    } else if (ph->AsString() == "C") {
      ++counters;
    } else if (ph->AsString() == "M") {
      ++metadata;
      if (e->Get("name")->AsString() == "thread_name") {
        thread_names.insert(e->Get("args")->Get("name")->AsString());
      }
    }
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  // process_name + three lanes (engine, worker 0, worker 1).
  EXPECT_EQ(metadata, 4);
  EXPECT_TRUE(thread_names.count("engine"));
  EXPECT_TRUE(thread_names.count("worker 0"));
  EXPECT_TRUE(thread_names.count("worker 1"));
}

// ------------------------------------------------------------ JournalSpan --

TEST(JournalSpanTest, EndThenDestructionPublishesExactlyOnce) {
  EventJournal journal(128, 1);
  {
    JournalSpan span(&journal, "phase", "test", 0, 1);
    span.End(5);
    span.End(6);  // no-op
  }  // destructor: no-op
  std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 5u);
}

TEST(JournalSpanTest, PublishesOnceDuringExceptionUnwind) {
  EventJournal journal(128, 1);
  try {
    JournalSpan span(&journal, "phase", "test", 0, 1);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(journal.Snapshot().size(), 1u);
  EXPECT_EQ(journal.appended(), 1u);
}

TEST(JournalSpanTest, NullJournalIsDisabledAndSafe) {
  JournalSpan span(nullptr, "phase", "test", 0, 1);
  span.End(1);
  span.End(2);
  JournalSpan default_constructed;
  default_constructed.End();
  // Nothing to assert beyond "no crash": a null journal is the off switch.
}

// ----------------------------------------------------- engine integration --

TEST(EventJournalEngineTest, PerWorkerPhaseSpansForEverySuperstep) {
  constexpr int kWorkers = 3;
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(100, 300, /*seed=*/7));
  EventJournal journal(1 << 16, 8);
  obs::JobRegistry registry;
  InMemoryTraceStore ckpt_store;

  pregel::JobSpec<PageRankTraits> spec;
  spec.options.num_workers = kWorkers;
  spec.options.job_id = "journal-it";
  spec.vertices = pregel::LoadUnweighted<PageRankTraits>(
      graph, [](VertexId) { return DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<algos::PageRankComputation>(/*max_iterations=*/6);
  };
  spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(/*max_iterations=*/6);
  };
  spec.checkpoint.interval = 2;
  spec.checkpoint.store = &ckpt_store;
  spec.telemetry.journal_sink = &journal;
  spec.telemetry.registry = &registry;

  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;
  const int64_t supersteps = summary->stats.supersteps;
  ASSERT_GT(supersteps, 0);

  // (superstep -> workers with a compute span), plus phase/checkpoint spans.
  std::map<int64_t, std::set<int>> compute_workers;
  std::map<int64_t, std::set<int>> delivery_workers;
  std::set<int64_t> engine_superstep_spans;
  int checkpoint_commits = 0;
  for (const JournalEvent& e : journal.Snapshot()) {
    const std::string name = e.name;
    if (name == "compute" && std::string(e.category) == "worker") {
      compute_workers[e.superstep].insert(e.worker);
    } else if (name == "delivery" && std::string(e.category) == "worker") {
      delivery_workers[e.superstep].insert(e.worker);
    } else if (name == "superstep") {
      engine_superstep_spans.insert(e.superstep);
    } else if (name == "checkpoint.commit") {
      ++checkpoint_commits;
    }
  }
  for (int64_t s = 0; s < supersteps; ++s) {
    ASSERT_TRUE(engine_superstep_spans.count(s)) << "superstep " << s;
    ASSERT_EQ(compute_workers[s].size(), static_cast<size_t>(kWorkers))
        << "missing per-worker compute spans at superstep " << s;
    ASSERT_EQ(delivery_workers[s].size(), static_cast<size_t>(kWorkers))
        << "missing per-worker delivery spans at superstep " << s;
  }
  // Checkpoint 0 plus every interval boundary reached.
  EXPECT_GT(checkpoint_commits, 0);

  // The registry entry finished and serves a final report + cached events.
  auto entry = registry.Find("journal-it");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state(), obs::JobState::kDone);
  EXPECT_EQ(entry->superstep(), supersteps);
  auto report = ParseJson(entry->ReportJson());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(static_cast<int64_t>((*report)->Get("supersteps")->AsDouble()),
            supersteps);
  auto events_doc = ParseJson(entry->EventsJson());
  ASSERT_TRUE(events_doc.ok()) << events_doc.status();
  EXPECT_TRUE((*events_doc)->Get("traceEvents")->is_array());
  EXPECT_GT(entry->journal_events(), 0u);
}

TEST(EventJournalEngineTest, JournalCountersExportedToMetrics) {
  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(60, 150, /*seed=*/11));
  obs::MetricsRegistry metrics;
  pregel::JobSpec<PageRankTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "journal-metrics";
  spec.options.metrics = &metrics;
  spec.vertices = pregel::LoadUnweighted<PageRankTraits>(
      graph, [](VertexId) { return DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<algos::PageRankComputation>(/*max_iterations=*/4);
  };
  spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(/*max_iterations=*/4);
  };
  spec.telemetry.journal = true;  // job-owned journal
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(metrics.GetCounter("journal.events_total")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("journal.events_dropped_total")->value(), 0u);
}

}  // namespace
}  // namespace graft
