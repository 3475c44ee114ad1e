// Telemetry server suite (ISSUE 6 tentpole layer 2): pure Handle() routing,
// a real socket round-trip against the ephemeral port, the JobRegistry
// publish/read protocol, Prometheus exposition shape of /metrics, and a full
// RunJob integration that polls the live report at a superstep barrier.
#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "algos/pagerank.h"
#include "common/json_parser.h"
#include "graph/generators.h"
#include "obs/event_journal.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::PageRankTraits;
using obs::EventJournal;
using obs::JobEntry;
using obs::JobRegistry;
using obs::JobState;
using obs::MetricsRegistry;
using obs::RunReport;
using obs::TelemetryServer;
using obs::TelemetryServerOptions;
using pregel::DoubleValue;

/// Blocking one-shot HTTP GET against 127.0.0.1:<port>; returns the raw
/// response (status line + headers + body), or "" on any socket error.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

struct ServerFixture {
  MetricsRegistry metrics;
  JobRegistry registry;
  std::unique_ptr<TelemetryServer> server;

  ServerFixture() {
    TelemetryServerOptions options;
    options.metrics = &metrics;
    options.registry = &registry;
    auto started = TelemetryServer::Start(std::move(options));
    EXPECT_TRUE(started.ok()) << started.status();
    if (started.ok()) server = std::move(*started);
  }
};

TEST(TelemetryServerTest, StartsOnEphemeralPort) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  EXPECT_GT(fx.server->port(), 0);
  EXPECT_EQ(fx.server->host(), "127.0.0.1");
  fx.server->Stop();
  fx.server->Stop();  // idempotent
}

TEST(TelemetryServerTest, HandleRoutesHealthz) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  auto r = fx.server->Handle("GET", "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");
  // Query strings and fragments are stripped before routing.
  EXPECT_EQ(fx.server->Handle("GET", "/healthz?verbose=1").status, 200);
  EXPECT_EQ(fx.server->Handle("HEAD", "/healthz").status, 200);
}

TEST(TelemetryServerTest, HandleRejectsUnknownAndNonGet) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  EXPECT_EQ(fx.server->Handle("GET", "/nope").status, 404);
  EXPECT_EQ(fx.server->Handle("GET", "/jobs/absent/report").status, 404);
  EXPECT_EQ(fx.server->Handle("GET", "/jobs/absent/events").status, 404);
  EXPECT_EQ(fx.server->Handle("GET", "/jobs//report").status, 404);
  EXPECT_EQ(fx.server->Handle("POST", "/healthz").status, 405);
  EXPECT_EQ(fx.server->Handle("PUT", "/metrics").status, 405);
}

TEST(TelemetryServerTest, HandleServesJobsDirectoryAndReport) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  auto entry = fx.registry.Register("job-a");
  entry->MarkRunning();
  RunReport report;
  report.job_id = "job-a";
  report.supersteps = 4;
  report.num_workers = 2;
  entry->PublishReport(report);

  auto jobs = fx.server->Handle("GET", "/jobs");
  EXPECT_EQ(jobs.status, 200);
  auto doc = ParseJson(jobs.body);
  ASSERT_TRUE(doc.ok()) << jobs.body;
  const JsonValue* list = (*doc)->Get("jobs");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items().size(), 1u);
  EXPECT_EQ(list->items()[0]->Get("job_id")->AsString(), "job-a");
  EXPECT_EQ(list->items()[0]->Get("state")->AsString(), "running");
  EXPECT_EQ(static_cast<int>(list->items()[0]->Get("superstep")->AsDouble()), 4);

  auto rep = fx.server->Handle("GET", "/jobs/job-a/report");
  EXPECT_EQ(rep.status, 200);
  auto rep_doc = ParseJson(rep.body);
  ASSERT_TRUE(rep_doc.ok()) << rep.body;
  EXPECT_EQ(static_cast<int>((*rep_doc)->Get("supersteps")->AsDouble()), 4);

  // /jobs/<id> without a trailing segment serves the report too.
  EXPECT_EQ(fx.server->Handle("GET", "/jobs/job-a").body, rep.body);
}

TEST(TelemetryServerTest, HandleServesJournalEvents) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  EventJournal journal(256, 1);
  journal.Span("compute", "worker", 0, 1, journal.NowNs(), 7);
  auto entry = fx.registry.Register("job-j");
  entry->AttachJournal(&journal);
  entry->MarkRunning();

  auto events = fx.server->Handle("GET", "/jobs/job-j/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_EQ(events.content_type, "application/json");
  auto doc = ParseJson(events.body);
  ASSERT_TRUE(doc.ok()) << events.body;
  ASSERT_TRUE((*doc)->Get("traceEvents")->is_array());

  // After detach the cached export still serves.
  entry->Finish(true, "OK");
  entry->DetachJournal();
  auto cached = fx.server->Handle("GET", "/jobs/job-j/events");
  EXPECT_EQ(cached.status, 200);
  auto cached_doc = ParseJson(cached.body);
  ASSERT_TRUE(cached_doc.ok()) << cached_doc.status();
  bool saw_compute = false;
  for (const auto& e : (*cached_doc)->Get("traceEvents")->items()) {
    const JsonValue* name = e->Get("name");
    if (name != nullptr && name->AsString() == "compute") saw_compute = true;
  }
  EXPECT_TRUE(saw_compute);
}

TEST(TelemetryServerTest, MetricsEndpointServesPrometheusText) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  fx.metrics.GetCounter("engine.supersteps_total")->Increment(3);
  auto entry = fx.registry.Register("job-m");
  entry->MarkRunning();
  RunReport report;
  report.job_id = "job-m";
  report.supersteps = 2;
  entry->PublishReport(report);

  auto r = fx.server->Handle("GET", "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("graft_engine_supersteps_total 3"), std::string::npos)
      << r.body;
  EXPECT_NE(r.body.find("graft_job_superstep{job_id=\"job-m\"} 2"),
            std::string::npos)
      << r.body;
  // HELP/TYPE appear exactly once per family even with jobs present.
  std::istringstream lines(r.body);
  std::string line;
  std::set<std::string> help_seen;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(help_seen.insert(family).second)
          << "duplicate HELP for " << family;
    }
  }
}

TEST(TelemetryServerTest, SocketRoundTrip) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  std::string response = HttpGet(fx.server->port(), "/healthz");
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_EQ(BodyOf(response), "ok\n");

  std::string missing = HttpGet(fx.server->port(), "/jobs/ghost/report");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;
  EXPECT_GE(fx.server->requests_served(), 2u);
}

TEST(TelemetryServerTest, RunJobIntegrationServesLiveProgress) {
  ServerFixture fx;
  ASSERT_NE(fx.server, nullptr);
  const uint16_t port = fx.server->port();

  auto graph = graph::MakeUndirected(
      graph::GenerateErdosRenyi(80, 200, /*seed=*/3));
  pregel::JobSpec<PageRankTraits> spec;
  spec.options.num_workers = 2;
  spec.options.job_id = "live-job";
  spec.vertices = pregel::LoadUnweighted<PageRankTraits>(
      graph, [](VertexId) { return DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<algos::PageRankComputation>(/*max_iterations=*/5);
  };
  spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(/*max_iterations=*/5);
  };
  spec.telemetry.journal = true;
  spec.telemetry.registry = &fx.registry;

  // Poll the live report over HTTP from inside a superstep barrier: the
  // engine is paused at the barrier, so the observed superstep is exact and
  // the check cannot flake on scheduling.
  struct BarrierPoller : pregel::Engine<PageRankTraits>::SuperstepObserver {
    uint16_t port = 0;
    int64_t observed_at_barrier = -1;
    bool metrics_ok_mid_run = false;
    void OnSuperstepEnd(int64_t superstep,
                        const pregel::SuperstepStats&) override {
      if (superstep != 2) return;
      std::string rep = BodyOf(HttpGet(port, "/jobs/live-job/report"));
      auto doc = ParseJson(rep);
      if (doc.ok() && (*doc)->Get("supersteps") != nullptr) {
        observed_at_barrier =
            static_cast<int64_t>((*doc)->Get("supersteps")->AsDouble());
      }
      std::string metrics = HttpGet(port, "/metrics");
      metrics_ok_mid_run =
          metrics.find("graft_job_superstep{job_id=\"live-job\"}") !=
          std::string::npos;
    }
  };
  BarrierPoller poller;
  poller.port = port;
  spec.pre_run = [&poller](pregel::Engine<PageRankTraits>& engine) {
    engine.AddObserver(&poller);
  };

  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;

  // Barrier for superstep 2 publishes supersteps = 3 before observers run.
  EXPECT_EQ(poller.observed_at_barrier, 3);
  EXPECT_TRUE(poller.metrics_ok_mid_run);

  // After the job: final report and cached events still served.
  auto entry = fx.registry.Find("live-job");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state(), JobState::kDone);
  std::string final_report = BodyOf(HttpGet(port, "/jobs/live-job/report"));
  auto report_doc = ParseJson(final_report);
  ASSERT_TRUE(report_doc.ok()) << final_report;
  EXPECT_EQ(
      static_cast<int64_t>((*report_doc)->Get("supersteps")->AsDouble()),
      summary->stats.supersteps);
  std::string events = BodyOf(HttpGet(port, "/jobs/live-job/events"));
  auto events_doc = ParseJson(events);
  ASSERT_TRUE(events_doc.ok()) << events_doc.status();
  EXPECT_FALSE((*events_doc)->Get("traceEvents")->items().empty());
}

}  // namespace
}  // namespace graft
