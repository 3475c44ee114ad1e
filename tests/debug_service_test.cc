// DebugService: the HTTP job-submission + paginated debug-read surface
// (DESIGN.md §13). Exercises the whole stack in process through
// TelemetryServer::Handle — routing and error envelopes, POST /jobs
// lifecycle, the read-while-running 409 policy, pagination, per-view JSON
// shape, queue overload, and the acceptance-shaped concurrency run (readers
// x jobs with zero 5xx and a warm cache serving every read).

#include "service/debug_service.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algos/pagerank.h"
#include "common/json_parser.h"
#include "common/string_util.h"
#include "debug/debug_session.h"
#include "io/trace_block_cache.h"
#include "io/trace_store.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "service/algo_catalog.h"

namespace graft {
namespace service {
namespace {

using obs::TelemetryServer;
using Response = TelemetryServer::Response;

std::string JobBody(const std::string& algo, const std::string& job_id,
                    int vertices = 40, int iterations = 3) {
  return StrFormat(
      "{\"algo\":\"%s\",\"job_id\":\"%s\","
      "\"graph\":{\"generator\":\"erdos-renyi\",\"vertices\":%d,"
      "\"edges\":%d,\"seed\":7},"
      "\"params\":{\"iterations\":%d},\"journal\":false}",
      algo.c_str(), job_id.c_str(), vertices, vertices * 4, iterations);
}

/// An in-memory store that counts directory listings.
class ListCountingTraceStore final : public InMemoryTraceStore {
 public:
  std::vector<std::string> ListFiles(
      const std::string& prefix) const override {
    list_calls.fetch_add(1, std::memory_order_relaxed);
    return InMemoryTraceStore::ListFiles(prefix);
  }
  mutable std::atomic<uint64_t> list_calls{0};
};

/// Everything a service test needs, wired to private registries so tests
/// cannot see each other's jobs.
class DebugServiceTest : public ::testing::Test {
 protected:
  DebugServiceTest() { Recreate(2, 16); }

  void Recreate(int workers, size_t queue_capacity,
                const AlgoCatalog* catalog = nullptr) {
    service_.reset();
    server_.reset();
    DebugServiceOptions options;
    options.store = &store_;
    options.registry = &registry_;
    options.metrics = &metrics_;
    options.cache = &cache_;
    options.catalog = catalog;
    options.worker_threads = workers;
    options.queue_capacity = queue_capacity;
    service_ = std::make_unique<DebugService>(options);
    obs::TelemetryServerOptions server_options;
    server_options.metrics = &metrics_;
    server_options.registry = &registry_;
    server_ = TelemetryServer::Create(server_options);
    service_->RegisterRoutes(server_.get());
  }

  /// Submits and waits for the job; returns the finished job id.
  std::string RunJob(const std::string& algo, const std::string& job_id,
                     int vertices = 40) {
    Response response =
        server_->Handle("POST", "/jobs", JobBody(algo, job_id, vertices));
    EXPECT_EQ(response.status, 202) << response.body;
    service_->DrainJobs();
    auto entry = registry_.Find(job_id);
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state(), obs::JobState::kDone) << response.body;
    }
    return job_id;
  }

  ListCountingTraceStore store_;
  obs::JobRegistry registry_;
  obs::MetricsRegistry metrics_;
  TraceBlockCache cache_;
  std::unique_ptr<DebugService> service_;
  std::unique_ptr<TelemetryServer> server_;
};

TEST_F(DebugServiceTest, SubmitAcceptedWithEndpointsEnvelope) {
  Response response =
      server_->Handle("POST", "/jobs", JobBody("pagerank", "submit-1"));
  ASSERT_EQ(response.status, 202) << response.body;
  auto body = ParseJson(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ((*body)->Get("job_id")->AsString(), "submit-1");
  EXPECT_EQ((*body)->Get("algo")->AsString(), "pagerank");
  EXPECT_EQ((*body)->Get("state")->AsString(), "pending");
  ASSERT_NE((*body)->Get("endpoints"), nullptr);
  EXPECT_EQ((*body)->Get("endpoints")->Get("debug")->AsString(),
            "/jobs/submit-1/debug/supersteps");
  service_->DrainJobs();
  EXPECT_EQ(registry_.Find("submit-1")->state(), obs::JobState::kDone);
  EXPECT_EQ(metrics_.GetCounter("service.jobs_submitted_total")->value(), 1u);
}

TEST_F(DebugServiceTest, SubmitErrorsMapToHttpStatuses) {
  // Bad JSON → 400 with the error envelope.
  Response bad_json = server_->Handle("POST", "/jobs", "{not json");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(bad_json.body.find("\"error\""), std::string::npos);

  // Unknown algo → 400 listing the catalog.
  Response bad_algo =
      server_->Handle("POST", "/jobs", "{\"algo\":\"nope\"}");
  EXPECT_EQ(bad_algo.status, 400);
  EXPECT_NE(bad_algo.body.find("pagerank"), std::string::npos);

  // Out-of-range spec → 400.
  Response bad_spec = server_->Handle(
      "POST", "/jobs",
      "{\"algo\":\"pagerank\",\"engine\":{\"workers\":9999}}");
  EXPECT_EQ(bad_spec.status, 400);
  EXPECT_GE(metrics_.GetCounter("service.jobs_rejected_total")->value(), 3u);
}

TEST_F(DebugServiceTest, TransportAcceptsOnlyInProc) {
  // In-process is the only backend: naming any other is a 400 envelope and
  // no job is registered.
  Response socket = server_->Handle(
      "POST", "/jobs",
      "{\"algo\":\"pagerank\",\"job_id\":\"t-socket\","
      "\"transport\":\"socket\"}");
  EXPECT_EQ(socket.status, 400) << socket.body;
  auto envelope = ParseJson(socket.body);
  ASSERT_TRUE(envelope.ok()) << envelope.status();
  const JsonValue* error = (*envelope)->Get("error");
  ASSERT_NE(error, nullptr) << socket.body;
  EXPECT_EQ(error->Get("status")->AsString(), "InvalidArgument");
  EXPECT_NE(error->Get("message")->AsString().find("transport"),
            std::string::npos);
  EXPECT_EQ(registry_.Find("t-socket"), nullptr);

  Response inproc = server_->Handle(
      "POST", "/jobs",
      "{\"algo\":\"pagerank\",\"job_id\":\"t-inproc\","
      "\"transport\":\"inproc\",\"journal\":false}");
  ASSERT_EQ(inproc.status, 202) << inproc.body;
  service_->DrainJobs();
  auto entry = registry_.Find("t-inproc");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state(), obs::JobState::kDone);
  auto report = ParseJson(entry->ReportJson());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)->Get("transport")->AsString(), "inproc");
}

TEST_F(DebugServiceTest, RoutingRejectsUnknownPathAndWrongMethod) {
  EXPECT_EQ(server_->Handle("GET", "/jobs/x/debug/bogus").status, 404);
  EXPECT_EQ(server_->Handle("PUT", "/jobs").status, 405);
  EXPECT_EQ(server_->Handle("DELETE", "/jobs/x/debug/supersteps").status, 405);
  // HEAD is answered by the GET route.
  EXPECT_EQ(server_->Handle("HEAD", "/healthz").status, 200);
}

TEST_F(DebugServiceTest, JobsListingFiltersByState) {
  RunJob("pagerank", "list-1");
  EXPECT_EQ(server_->Handle("GET", "/jobs?status=bogus").status, 400);
  Response done = server_->Handle("GET", "/jobs?status=done");
  ASSERT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("list-1"), std::string::npos);
  Response running = server_->Handle("GET", "/jobs?status=running");
  ASSERT_EQ(running.status, 200);
  EXPECT_EQ(running.body.find("list-1"), std::string::npos);
}

TEST_F(DebugServiceTest, ReadsOfRunningJobAnswer409) {
  // A pending entry (as if a worker had not picked the job up yet).
  registry_.Register("inflight");
  for (const char* target :
       {"/jobs/inflight/debug/supersteps", "/jobs/inflight/debug/vertices",
        "/jobs/inflight/debug/vertex/1", "/jobs/inflight/debug/master",
        "/jobs/inflight/debug/violations"}) {
    Response response = server_->Handle("GET", target);
    EXPECT_EQ(response.status, 409) << target << ": " << response.body;
    EXPECT_NE(response.body.find("still pending"), std::string::npos);
  }
}

TEST_F(DebugServiceTest, ResubmitLiveJobConflictsFinishedJobReruns) {
  registry_.Register("dup");  // live (pending)
  Response conflict =
      server_->Handle("POST", "/jobs", JobBody("pagerank", "dup"));
  EXPECT_EQ(conflict.status, 409) << conflict.body;

  registry_.Find("dup")->Finish(true, "done");
  Response rerun = server_->Handle("POST", "/jobs", JobBody("pagerank", "dup"));
  EXPECT_EQ(rerun.status, 202) << rerun.body;
  service_->DrainJobs();
  EXPECT_EQ(registry_.Find("dup")->state(), obs::JobState::kDone);
}

TEST_F(DebugServiceTest, UnknownJobReadsAnswer404) {
  Response response = server_->Handle("GET", "/jobs/ghost/debug/supersteps");
  EXPECT_EQ(response.status, 404) << response.body;
  // Typed views need an algo for jobs this service never ran.
  Response no_algo = server_->Handle("GET", "/jobs/ghost/debug/vertices");
  EXPECT_EQ(no_algo.status, 400) << no_algo.body;
  Response with_algo =
      server_->Handle("GET", "/jobs/ghost/debug/vertices?algo=pagerank");
  EXPECT_EQ(with_algo.status, 404) << with_algo.body;
}

TEST_F(DebugServiceTest, SuperstepsViewJsonAndText) {
  RunJob("pagerank", "steps-1");
  Response json = server_->Handle("GET", "/jobs/steps-1/debug/supersteps");
  ASSERT_EQ(json.status, 200) << json.body;
  auto body = ParseJson(json.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ((*body)->Get("job")->AsString(), "steps-1");
  EXPECT_TRUE((*body)->Get("manifest")->AsBool());
  const auto& steps = (*body)->Get("supersteps")->items();
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(*steps.front()->Get("superstep")->AsInt64(), 0);
  EXPECT_GT(*steps.front()->Get("vertex_records")->AsInt64(), 0);

  Response text =
      server_->Handle("GET", "/jobs/steps-1/debug/supersteps?format=text");
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("captured supersteps"), std::string::npos);
}

/// Two sessions and a service read over one finished job on one cache share
/// a single decoded index: once the first Open has decoded it, the cache
/// takes no further miss.
TEST_F(DebugServiceTest, SessionsAndServiceShareOneDecodedIndex) {
  RunJob("pagerank", "shared-1");
  auto first = debug::DebugSession<algos::PageRankTraits>::Open(
      &store_, "shared-1", &cache_);
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t misses = cache_.stats().misses;
  auto second = debug::DebugSession<algos::PageRankTraits>::Open(
      &store_, "shared-1", &cache_);
  ASSERT_TRUE(second.ok()) << second.status();
  Response steps = server_->Handle("GET", "/jobs/shared-1/debug/supersteps");
  ASSERT_EQ(steps.status, 200) << steps.body;
  EXPECT_EQ(cache_.stats().misses, misses);
}

/// A manifest-less (crashed-run) job read through the service: the
/// supersteps come from the directory scan with no per-superstep counts,
/// and /master without ?superstep= defaults to the first captured one.
TEST_F(DebugServiceTest, ManifestLessJobReadsFromDirectoryScan) {
  RunJob("pagerank", "crashed-1");
  ASSERT_TRUE(store_.DeletePrefix(debug::ManifestFile("crashed-1")).ok());
  const std::vector<int64_t> scanned =
      debug::ListCapturedSupersteps(store_, "crashed-1");
  ASSERT_FALSE(scanned.empty());

  Response json = server_->Handle("GET", "/jobs/crashed-1/debug/supersteps");
  ASSERT_EQ(json.status, 200) << json.body;
  auto body = ParseJson(json.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_FALSE((*body)->Get("manifest")->AsBool());
  const auto& steps = (*body)->Get("supersteps")->items();
  ASSERT_EQ(steps.size(), scanned.size());
  std::string expected_text = StrFormat(
      "job 'crashed-1': %zu captured supersteps\n", scanned.size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    EXPECT_EQ(*steps[i]->Get("superstep")->AsInt64(), scanned[i]);
    EXPECT_EQ(*steps[i]->Get("vertex_records")->AsInt64(), 0);
    EXPECT_FALSE(steps[i]->Get("master")->AsBool());
    expected_text += StrFormat("superstep %lld: 0 vertex records\n",
                               static_cast<long long>(scanned[i]));
  }
  Response text =
      server_->Handle("GET", "/jobs/crashed-1/debug/supersteps?format=text");
  ASSERT_EQ(text.status, 200);
  EXPECT_EQ(text.body, expected_text);

  Response master = server_->Handle("GET", "/jobs/crashed-1/debug/master");
  ASSERT_EQ(master.status, 200) << master.body;
  auto master_body = ParseJson(master.body);
  ASSERT_TRUE(master_body.ok()) << master_body.status();
  EXPECT_EQ(*(*master_body)->Get("superstep")->AsInt64(), scanned.front());
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/crashed-1/debug/master?superstep=999")
          .status,
      404);
}

TEST_F(DebugServiceTest, VerticesViewPaginates) {
  RunJob("pagerank", "page-1", /*vertices=*/30);
  Response page = server_->Handle(
      "GET", "/jobs/page-1/debug/vertices?superstep=1&limit=10");
  ASSERT_EQ(page.status, 200) << page.body;
  auto body = ParseJson(page.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ((*body)->Get("view")->AsString(), "tabular");
  const JsonValue* meta = (*body)->Get("page");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(*meta->Get("total")->AsInt64(), 30);
  EXPECT_EQ(*meta->Get("returned")->AsInt64(), 10);
  EXPECT_EQ((*body)->Get("vertices")->items().size(), 10u);

  Response tail = server_->Handle(
      "GET", "/jobs/page-1/debug/vertices?superstep=1&offset=25&limit=10");
  ASSERT_EQ(tail.status, 200);
  auto tail_body = ParseJson(tail.body);
  ASSERT_TRUE(tail_body.ok());
  EXPECT_EQ(*(*tail_body)->Get("page")->Get("returned")->AsInt64(), 5);
  EXPECT_EQ(*(*tail_body)->Get("page")->Get("offset")->AsInt64(), 25);

  // limit=all disables pagination; bad limits are 400.
  Response all = server_->Handle(
      "GET", "/jobs/page-1/debug/vertices?superstep=1&limit=all");
  ASSERT_EQ(all.status, 200);
  auto all_body = ParseJson(all.body);
  ASSERT_TRUE(all_body.ok());
  EXPECT_EQ(*(*all_body)->Get("page")->Get("returned")->AsInt64(), 30);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/page-1/debug/vertices?limit=0").status,
      400);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/page-1/debug/vertices?offset=-1").status,
      400);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/page-1/debug/vertices?format=xml").status,
      400);
}

TEST_F(DebugServiceTest, VertexPointLookupAndHistory) {
  RunJob("pagerank", "vertex-1");
  // Point lookup: one superstep of one vertex.
  Response point = server_->Handle(
      "GET", "/jobs/vertex-1/debug/vertex/3?superstep=1");
  ASSERT_EQ(point.status, 200) << point.body;
  auto body = ParseJson(point.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ((*body)->Get("view")->AsString(), "vertex");
  ASSERT_EQ((*body)->Get("vertices")->items().size(), 1u);
  const JsonValue& row = *(*body)->Get("vertices")->items().front();
  EXPECT_EQ(*row.Get("id")->AsInt64(), 3);
  EXPECT_EQ(*row.Get("superstep")->AsInt64(), 1);
  EXPECT_NE(row.Get("value_after"), nullptr);
  EXPECT_NE(row.Get("edges"), nullptr);

  // History: every captured superstep of the vertex.
  Response history = server_->Handle("GET", "/jobs/vertex-1/debug/vertex/3");
  ASSERT_EQ(history.status, 200);
  auto history_body = ParseJson(history.body);
  ASSERT_TRUE(history_body.ok());
  EXPECT_GT((*history_body)->Get("vertices")->items().size(), 1u);

  // Absent vertex → 404; non-integer id → 400.
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/vertex-1/debug/vertex/99999").status, 404);
  EXPECT_EQ(server_->Handle("GET", "/jobs/vertex-1/debug/vertex/abc").status,
            400);
}

TEST_F(DebugServiceTest, MasterAndViolationsViews) {
  RunJob("pagerank", "master-1");
  Response master = server_->Handle("GET", "/jobs/master-1/debug/master");
  ASSERT_EQ(master.status, 200) << master.body;
  auto body = ParseJson(master.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ((*body)->Get("job")->AsString(), "master-1");
  EXPECT_GT(*body.value()->Get("total_vertices")->AsInt64(), 0);
  EXPECT_NE((*body)->Get("aggregators_after"), nullptr);
  // A superstep past the run → 404, not a store scan per request.
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/master-1/debug/master?superstep=999")
          .status,
      404);

  Response violations =
      server_->Handle("GET", "/jobs/master-1/debug/violations");
  ASSERT_EQ(violations.status, 200) << violations.body;
  auto vbody = ParseJson(violations.body);
  ASSERT_TRUE(vbody.ok());
  EXPECT_EQ((*vbody)->Get("view")->AsString(), "violations");
  EXPECT_NE((*vbody)->Get("violations"), nullptr);  // empty for a clean run
}

TEST_F(DebugServiceTest, WarmVerticesViewsListNoDirectories) {
  RunJob("pagerank", "nolist-1", /*vertices=*/30);
  const std::string target =
      "/jobs/nolist-1/debug/vertices?superstep=1&limit=all";
  Response first = server_->Handle("GET", target);
  ASSERT_EQ(first.status, 200) << first.body;
  const uint64_t listed = store_.list_calls.load();
  for (int i = 0; i < 10; ++i) {
    Response again = server_->Handle("GET", target);
    ASSERT_EQ(again.status, 200);
    EXPECT_EQ(again.body, first.body);
  }
  EXPECT_EQ(store_.list_calls.load() - listed, 0u);

  // The same view read by a directory scan, once the manifest is gone,
  // answers the same rows.
  ASSERT_TRUE(store_.DeletePrefix(debug::ManifestFile("nolist-1")).ok());
  cache_.Clear();
  Response scanned = server_->Handle("GET", target);
  ASSERT_EQ(scanned.status, 200) << scanned.body;
  EXPECT_EQ(scanned.body, first.body);
  EXPECT_GT(store_.list_calls.load() - listed, 0u);
}

TEST_F(DebugServiceTest, IntegerParametersAreStrictDecimal) {
  RunJob("pagerank", "strict-1");
  ASSERT_EQ(
      server_->Handle("GET", "/jobs/strict-1/debug/master?superstep=1").status,
      200);
  // " +1" once decoded: whitespace and '+' used to be read as superstep 1.
  for (const char* target :
       {"/jobs/strict-1/debug/master?superstep=%20%2B1",
        "/jobs/strict-1/debug/master?superstep=%2B1",
        "/jobs/strict-1/debug/master?superstep=1%20",
        "/jobs/strict-1/debug/vertices?superstep=1&offset=%2B5",
        "/jobs/strict-1/debug/vertices?superstep=1&limit=%2010",
        "/jobs/strict-1/debug/vertex/%2B3?superstep=1",
        "/jobs/strict-1/debug/vertex/%203"}) {
    EXPECT_EQ(server_->Handle("GET", target).status, 400) << target;
  }
}

TEST_F(DebugServiceTest, AllAlgosRunAndRenderViews) {
  for (const std::string algo : {"pagerank", "cc", "sssp"}) {
    const std::string job = "algo-" + algo;
    RunJob(algo, job);
    Response view =
        server_->Handle("GET", "/jobs/" + job + "/debug/vertices?limit=5");
    EXPECT_EQ(view.status, 200) << algo << ": " << view.body;
    Response search = server_->Handle(
        "GET", "/jobs/" + job + "/debug/vertices?search=1&limit=5");
    EXPECT_EQ(search.status, 200) << algo;
  }
  EXPECT_EQ(metrics_.GetCounter("service.debug_reads_total")->value(), 6u);
}

TEST_F(DebugServiceTest, QueueOverflowAnswers503AndMarksJobFailed) {
  // One worker held busy by a latch + a one-slot queue: the third submit
  // must be rejected with 503 and surface as a failed job.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool started = false;
  bool release = false;
  AlgoCatalog catalog;
  catalog.Register(
      "slow",
      [&](const JobRequest& request, const RunEnv& env) {
        {
          std::unique_lock<std::mutex> lock(gate_mutex);
          started = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
        env.registry->Find(request.job_id)->Finish(true, "slow done");
        return Status::OK();
      },
      [](const TraceStore&, const std::string&, TraceBlockCache*,
         const debug::ViewRequest&) -> Result<debug::ViewResult> {
        return Status::NotFound("no captures");
      });
  Recreate(/*workers=*/1, /*queue_capacity=*/1, &catalog);

  Response first =
      server_->Handle("POST", "/jobs", "{\"algo\":\"slow\",\"job_id\":\"s1\"}");
  ASSERT_EQ(first.status, 202) << first.body;
  // Wait until the worker has dequeued s1 (its runner signals through the
  // gate) so s2 deterministically occupies the single queue slot.
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return started; });
  }
  Response second =
      server_->Handle("POST", "/jobs", "{\"algo\":\"slow\",\"job_id\":\"s2\"}");
  ASSERT_EQ(second.status, 202) << second.body;
  Response third =
      server_->Handle("POST", "/jobs", "{\"algo\":\"slow\",\"job_id\":\"s3\"}");
  EXPECT_EQ(third.status, 503) << third.body;
  EXPECT_NE(third.body.find("queue is full"), std::string::npos);
  EXPECT_EQ(registry_.Find("s3")->state(), obs::JobState::kFailed);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  service_->DrainJobs();
  EXPECT_EQ(registry_.Find("s1")->state(), obs::JobState::kDone);
  EXPECT_EQ(registry_.Find("s2")->state(), obs::JobState::kDone);
}

TEST_F(DebugServiceTest, FailedRunIsTerminalAndReadable) {
  AlgoCatalog catalog;
  catalog.Register(
      "boom",
      [](const JobRequest&, const RunEnv&) {
        return Status::Internal("deliberate failure");
      },
      [](const TraceStore&, const std::string&, TraceBlockCache*,
         const debug::ViewRequest&) -> Result<debug::ViewResult> {
        return Status::NotFound("no captures");
      });
  Recreate(2, 16, &catalog);
  Response response =
      server_->Handle("POST", "/jobs", "{\"algo\":\"boom\",\"job_id\":\"b1\"}");
  ASSERT_EQ(response.status, 202);
  service_->DrainJobs();
  EXPECT_EQ(registry_.Find("b1")->state(), obs::JobState::kFailed);
  // Terminal → readable (404: it captured nothing), not 409.
  EXPECT_EQ(server_->Handle("GET", "/jobs/b1/debug/supersteps").status, 404);
}

// The acceptance shape: 32 concurrent readers over 4 finished jobs, every
// response below 500, and — after a warmup pass — the shared cache serves
// every read without another store decode.
TEST_F(DebugServiceTest, ConcurrentReadersZero5xxAndWarmCache) {
  const std::vector<std::string> algos = {"pagerank", "cc", "sssp",
                                          "pagerank"};
  std::vector<std::string> targets = {"/jobs", "/jobs?status=done"};
  for (size_t i = 0; i < algos.size(); ++i) {
    const std::string job = RunJob(algos[i], StrFormat("conc-%zu", i),
                                   /*vertices=*/30);
    const std::string base = "/jobs/" + job + "/debug";
    targets.push_back(base + "/supersteps");
    targets.push_back(base + "/vertices?superstep=1&limit=10");
    targets.push_back(base + "/vertices?superstep=1&offset=10&limit=10");
    targets.push_back(base + "/master?superstep=1");
    targets.push_back(base + "/violations?superstep=1");
    for (int vid = 0; vid < 4; ++vid) {
      targets.push_back(StrFormat("%s/vertex/%d", base.c_str(), vid));
    }
  }
  for (const std::string& target : targets) {
    Response response = server_->Handle("GET", target);
    ASSERT_LT(response.status, 500) << target << ": " << response.body;
  }

  const auto warm = cache_.stats();
  constexpr int kReaders = 32;
  constexpr int kRequestsPerReader = 25;
  std::atomic<int> server_errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kRequestsPerReader; ++i) {
        const std::string& target =
            targets[static_cast<size_t>(r + i * 7) % targets.size()];
        Response response = server_->Handle("GET", target);
        if (response.status >= 500) server_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(server_errors.load(), 0);
  const auto stats = cache_.stats();
  EXPECT_EQ(stats.misses, warm.misses)
      << "store re-decodes after warmup: " << (stats.misses - warm.misses);
  EXPECT_GT(stats.hits, warm.hits);

  cache_.ExportMetrics(&metrics_);
  EXPECT_GT(metrics_.GetGauge("tracecache.hits_total")->value(), 0.0);
  EXPECT_GT(metrics_.GetGauge("tracecache.hit_rate")->value(), 0.5);
}

// ------------------------------------------------------- minimize routes --

TEST_F(DebugServiceTest, MinimizeLifecycleEndToEnd) {
  RunJob("cc", "min-1", /*vertices=*/24);
  Response accepted = server_->Handle(
      "POST", "/jobs/min-1/minimize",
      "{\"oracle\":\"predicate\","
      "\"predicate\":\"value == 0 && superstep >= 1\"}");
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  auto envelope = ParseJson(accepted.body);
  ASSERT_TRUE(envelope.ok()) << envelope.status();
  EXPECT_EQ((*envelope)->Get("job_id")->AsString(), "min-1");
  EXPECT_EQ((*envelope)->Get("endpoints")->Get("status")->AsString(),
            "/jobs/min-1/minimize");
  EXPECT_EQ((*envelope)->Get("endpoints")->Get("reproducer")->AsString(),
            "/jobs/min-1/minimize/reproducer");
  service_->DrainJobs();

  Response status = server_->Handle("GET", "/jobs/min-1/minimize");
  ASSERT_EQ(status.status, 200) << status.body;
  auto body = ParseJson(status.body);
  ASSERT_TRUE(body.ok()) << body.status() << status.body;
  EXPECT_EQ((*body)->Get("state")->AsString(), "done");
  const auto* report = (*body)->Get("report");
  ASSERT_NE(report, nullptr) << status.body;
  EXPECT_TRUE(report->Get("reproduced")->AsBool());
  EXPECT_EQ(report->Get("oracle")->AsString(), "predicate");
  // Only vertex 0 carries component id 0, plus the one neighbor whose message
  // wakes it past superstep 0: a two-vertex, one-edge witness.
  EXPECT_EQ(*report->Get("final_vertices")->AsInt64(), 2);
  EXPECT_EQ(*report->Get("final_edges")->AsInt64(), 1);
  EXPECT_GT(*report->Get("probes")->AsInt64(), 1);
  ASSERT_FALSE(report->Get("subgraph")->items().empty());
  bool has_vertex_zero = false;
  for (const auto& v : report->Get("subgraph")->items())
    has_vertex_zero |= (*v->Get("id")->AsInt64() == 0);
  EXPECT_TRUE(has_vertex_zero);

  Response reproducer =
      server_->Handle("GET", "/jobs/min-1/minimize/reproducer");
  ASSERT_EQ(reproducer.status, 200) << reproducer.body;
  EXPECT_NE(reproducer.body.find("TEST("), std::string::npos);
  EXPECT_NE(reproducer.body.find("spec.analysis.breakpoint"),
            std::string::npos);
  EXPECT_GE(metrics_.GetCounter("service.minimizer_jobs_total")->value(), 1u);
  EXPECT_GT(metrics_.GetCounter("service.minimizer_probes_total")->value(),
            1u);
}

TEST_F(DebugServiceTest, MinimizeValidationAndUnknownJobs) {
  // Minimize needs the original job spec: unknown jobs are 404.
  EXPECT_EQ(server_->Handle("POST", "/jobs/ghost/minimize", "{}").status, 404);
  EXPECT_EQ(server_->Handle("GET", "/jobs/ghost/minimize").status, 404);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/ghost/minimize/reproducer").status, 404);

  RunJob("pagerank", "min-v");
  // No minimization submitted yet: status and reproducer are 404.
  EXPECT_EQ(server_->Handle("GET", "/jobs/min-v/minimize").status, 404);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/min-v/minimize/reproducer").status, 404);
  // Malformed requests are rejected up front with 400.
  EXPECT_EQ(
      server_->Handle("POST", "/jobs/min-v/minimize", "{not json").status,
      400);
  EXPECT_EQ(server_->Handle("POST", "/jobs/min-v/minimize",
                            "{\"oracle\":\"coin-flip\"}")
                .status,
            400);
  EXPECT_EQ(server_->Handle("POST", "/jobs/min-v/minimize",
                            "{\"oracle\":\"predicate\","
                            "\"predicate\":\"value = 0\"}")
                .status,
            400);
  EXPECT_EQ(server_->Handle("POST", "/jobs/min-v/minimize",
                            "{\"max_probes\":0}")
                .status,
            400);
  EXPECT_EQ(server_->Handle("POST", "/jobs/min-v/minimize",
                            "{\"finding_kind\":\"bogus-kind\"}")
                .status,
            400);
}

TEST_F(DebugServiceTest, MinimizeOfRunningJobConflictsAndUnsupportedFails) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool started = false;
  bool release = false;
  AlgoCatalog catalog;
  catalog.Register(
      "slow",
      [&](const JobRequest& request, const RunEnv& env) {
        {
          std::unique_lock<std::mutex> lock(gate_mutex);
          started = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
        env.registry->Find(request.job_id)->Finish(true, "slow done");
        return Status::OK();
      },
      [](const TraceStore&, const std::string&, TraceBlockCache*,
         const debug::ViewRequest&) -> Result<debug::ViewResult> {
        return Status::NotFound("no captures");
      });  // no minimizer registered
  Recreate(/*workers=*/2, /*queue_capacity=*/16, &catalog);

  Response submit =
      server_->Handle("POST", "/jobs", "{\"algo\":\"slow\",\"job_id\":\"m1\"}");
  ASSERT_EQ(submit.status, 202) << submit.body;
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return started; });
  }
  // The job is live: minimize conflicts just like debug reads do.
  Response conflict = server_->Handle("POST", "/jobs/m1/minimize", "{}");
  EXPECT_EQ(conflict.status, 409) << conflict.body;
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  service_->DrainJobs();

  // Finished, but the algo has no registered minimizer: the minimization
  // job is accepted and then fails with Unimplemented.
  Response accepted = server_->Handle("POST", "/jobs/m1/minimize", "{}");
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  service_->DrainJobs();
  Response status = server_->Handle("GET", "/jobs/m1/minimize");
  ASSERT_EQ(status.status, 200) << status.body;
  auto body = ParseJson(status.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ((*body)->Get("state")->AsString(), "failed");
  EXPECT_NE((*body)->Get("error")->AsString().find("minimization"),
            std::string::npos)
      << status.body;
  EXPECT_GE(metrics_.GetCounter("service.minimizer_failed_total")->value(),
            1u);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/m1/minimize/reproducer").status, 404);
}

TEST_F(DebugServiceTest, MinimizeInFlightStatusAndDuplicateConflict) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool started = false;
  bool release = false;
  AlgoCatalog catalog;
  catalog.Register(
      "mini",
      [](const JobRequest& request, const RunEnv& env) {
        env.registry->Find(request.job_id)->Finish(true, "done");
        return Status::OK();
      },
      [](const TraceStore&, const std::string&, TraceBlockCache*,
         const debug::ViewRequest&) -> Result<debug::ViewResult> {
        return Status::NotFound("no captures");
      },
      [&](const JobRequest&, const analysis::MinimizerOptions&,
          const analysis::MinimizerProgressFn& progress)
          -> Result<analysis::MinimizerReport> {
        analysis::MinimizerProgress running;
        running.phase = "ddmin-vertices";
        running.probes = 7;
        progress(running);
        {
          std::unique_lock<std::mutex> lock(gate_mutex);
          started = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
        analysis::MinimizerReport report;
        report.reproduced = true;
        report.oracle = "failure";
        report.probes = 9;
        report.final_vertices = 1;
        report.reproducer_code = "// generated\nTEST(Mini, Repro) {}\n";
        return report;
      });
  Recreate(/*workers=*/2, /*queue_capacity=*/16, &catalog);

  Response submit =
      server_->Handle("POST", "/jobs", "{\"algo\":\"mini\",\"job_id\":\"m2\"}");
  ASSERT_EQ(submit.status, 202) << submit.body;
  service_->DrainJobs();
  ASSERT_EQ(server_->Handle("POST", "/jobs/m2/minimize", "{}").status, 202);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return started; });
  }
  // While the minimization runs: live progress, a duplicate conflicts, and
  // the reproducer does not exist yet.
  Response status = server_->Handle("GET", "/jobs/m2/minimize");
  ASSERT_EQ(status.status, 200) << status.body;
  auto body = ParseJson(status.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ((*body)->Get("state")->AsString(), "running");
  EXPECT_EQ((*body)->Get("progress")->Get("phase")->AsString(),
            "ddmin-vertices");
  EXPECT_EQ(*(*body)->Get("progress")->Get("probes")->AsInt64(), 7);
  EXPECT_EQ(server_->Handle("POST", "/jobs/m2/minimize", "{}").status, 409);
  EXPECT_EQ(
      server_->Handle("GET", "/jobs/m2/minimize/reproducer").status, 404);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  service_->DrainJobs();
  Response done = server_->Handle("GET", "/jobs/m2/minimize");
  ASSERT_EQ(done.status, 200);
  auto done_body = ParseJson(done.body);
  ASSERT_TRUE(done_body.ok());
  EXPECT_EQ((*done_body)->Get("state")->AsString(), "done");
  Response reproducer =
      server_->Handle("GET", "/jobs/m2/minimize/reproducer");
  ASSERT_EQ(reproducer.status, 200);
  EXPECT_NE(reproducer.body.find("TEST(Mini, Repro)"), std::string::npos);
  // A finished minimization can be re-run.
  EXPECT_EQ(server_->Handle("POST", "/jobs/m2/minimize", "{}").status, 202);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    release = true;  // let the second run straight through
  }
  service_->DrainJobs();
}

}  // namespace
}  // namespace service
}  // namespace graft
