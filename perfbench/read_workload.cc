// debug-read: the paper's visualize -> reproduce half. Set-up submits
// capture-all-active jobs (pagerank, cc and sssp from the service catalog on
// power-law graphs) through DebugService::Submit, waits for them, and warms
// the service's own TraceBlockCache, whose byte budget is smaller than the
// decoded trace working set. Then kReaders threads run a closed loop with no
// think time, skewed (Zipf) over jobs and vertices and towards early
// supersteps and first pages:
//
//  - table pages, point lookups and searches (the vertices/vertex routes);
//  - the supersteps, master and violations views;
//  - reproduce: codegen plus a replay-fidelity check of one captured vertex.
//
// Views go through TelemetryServer::Handle (the route table, no sockets).
// The job queue is idle while reads are timed. Every answer is checked
// against what a direct, uncached DebugSession read gave at set-up.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "bench.h"
#include "common/json_parser.h"
#include "common/string_util.h"
#include "debug/codegen.h"
#include "debug/debug_session.h"
#include "debug/reproducer.h"
#include "debug/views/view_api.h"
#include "io/trace_block_cache.h"
#include "io/trace_store.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "service/debug_service.h"

namespace perfbench {
namespace {

using graft::VertexId;
using Response = graft::obs::TelemetryServer::Response;

/// Cache byte budget: about half of the set-up jobs' trace records at full
/// scale (the working_set_bytes info field), so the read loop keeps missing
/// and evicting. At a quarter, manifests and sessions larger than one cache
/// shard were evicted on every request and medians did not repeat.
constexpr size_t kCacheBudgetBytes = 12ull << 20;
constexpr uint64_t kPageLimit = 50;
constexpr uint64_t kSearchLimit = 20;
constexpr size_t kLookupsPerStep = 32;
constexpr int kPageRankIterations = 10;

// -- expected answers ---------------------------------------------------------

struct Lookup {
  VertexId id = 0;
  std::string value_after;
  // The tabular view searched for this vertex id (§3.2's search): matching
  // rows, and the id of the first one.
  uint64_t search_total = 0;
  VertexId search_first = 0;
};

/// One superstep with vertex captures, as a direct DebugSession read saw it.
struct StepExpect {
  int64_t superstep = 0;
  std::vector<VertexId> ids;  // captured vertex ids, ascending
  uint64_t violation_rows = 0;
  std::vector<Lookup> lookups;     // seeded sample, hottest first
  std::vector<std::string> files;  // the superstep's vertex trace files
};

struct JobExpect {
  std::string id;
  std::string algo;
  size_t total_steps = 0;  // supersteps with any record
  std::vector<StepExpect> steps;
  std::vector<int64_t> master_steps;
};

/// Zipf(1) rank in [0, n): rank r is drawn with weight 1 / (r + 1).
size_t Zipf(size_t n, std::mt19937_64& rng) {
  double harmonic = 0.0;
  for (size_t r = 1; r <= n; ++r) harmonic += 1.0 / static_cast<double>(r);
  double u = std::uniform_real_distribution<double>(0.0, harmonic)(rng);
  for (size_t r = 0; r < n; ++r) {
    u -= 1.0 / static_cast<double>(r + 1);
    if (u <= 0.0) return r;
  }
  return n - 1;
}

template <typename T>
struct TraitsTag {
  using type = T;
};

/// Calls `fn(TraitsTag<Traits>{})` with the Traits of a catalog algo.
template <typename Fn>
auto WithTraits(const std::string& algo, Fn&& fn) {
  if (algo == "pagerank") return fn(TraitsTag<graft::algos::PageRankTraits>{});
  if (algo == "cc") return fn(TraitsTag<graft::algos::CCTraits>{});
  return fn(TraitsTag<graft::algos::SsspTraits>{});
}

template <typename Traits>
std::unique_ptr<graft::pregel::Computation<Traits>> MakeComputation() {
  if constexpr (std::is_same_v<Traits, graft::algos::PageRankTraits>) {
    return std::make_unique<graft::algos::PageRankComputation>(
        kPageRankIterations);
  } else if constexpr (std::is_same_v<Traits, graft::algos::CCTraits>) {
    return graft::algos::MakeConnectedComponentsFactory()();
  } else {
    return std::make_unique<graft::algos::SsspComputation>(0);
  }
}

template <typename Traits>
graft::debug::CodegenBinding MakeBinding() {
  graft::debug::CodegenBinding binding;
  if constexpr (std::is_same_v<Traits, graft::algos::PageRankTraits>) {
    binding.traits_type = "graft::algos::PageRankTraits";
    binding.includes = {"algos/pagerank.h"};
    binding.computation_decl =
        "graft::algos::PageRankComputation computation(10);";
  } else if constexpr (std::is_same_v<Traits, graft::algos::CCTraits>) {
    binding.traits_type = "graft::algos::CCTraits";
    binding.includes = {"algos/connected_components.h"};
    binding.computation_decl =
        "auto computation_ptr = "
        "graft::algos::MakeConnectedComponentsFactory()();\n"
        "  auto& computation = *computation_ptr;";
  } else {
    binding.traits_type = "graft::algos::SsspTraits";
    binding.includes = {"algos/sssp.h"};
    binding.computation_decl = "graft::algos::SsspComputation computation(0);";
  }
  binding.test_suite = "BenchVertexGraftTest";
  return binding;
}

/// Direct, uncached DebugSession reads of one finished job.
template <typename Traits>
graft::Status ReadExpected(const graft::TraceStore& store, JobExpect* job,
                           std::mt19937_64& rng) {
  GRAFT_ASSIGN_OR_RETURN(auto session,
                         graft::debug::DebugSession<Traits>::Open(&store,
                                                                  job->id));
  job->total_steps = session.supersteps().size();
  job->master_steps.assign(session.master_supersteps().begin(),
                           session.master_supersteps().end());
  for (int64_t superstep : session.supersteps()) {
    GRAFT_ASSIGN_OR_RETURN(auto traces, session.VertexTraces(superstep));
    if (traces.empty()) continue;
    StepExpect step;
    step.superstep = superstep;
    for (const auto& trace : traces) {
      step.ids.push_back(trace.id);
      step.violation_rows +=
          trace.violations.size() + (trace.exception.has_value() ? 1 : 0);
    }
    std::vector<size_t> picks(traces.size());
    for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    std::shuffle(picks.begin(), picks.end(), rng);
    picks.resize(std::min(picks.size(), kLookupsPerStep));
    // Every row of the superstep's tabular view, unpaginated and unfiltered;
    // a search answer is the rows the view's search predicate keeps.
    graft::debug::ViewRequest all_rows;
    all_rows.superstep = superstep;
    all_rows.limit = graft::debug::kViewNoLimit;
    const graft::debug::ViewResult view = graft::debug::BuildViewFromTraces(
        traces, std::nullopt, job->id, all_rows);
    for (size_t i : picks) {
      Lookup lookup{traces[i].id, traces[i].value_after.ToString()};
      const std::string query = std::to_string(lookup.id);
      for (const graft::debug::ViewVertexRow& row : view.vertices) {
        if (!graft::debug::internal_views::RowMatchesSearch(row, query)) {
          continue;
        }
        if (lookup.search_total++ == 0) lookup.search_first = row.id;
      }
      step.lookups.push_back(std::move(lookup));
    }
    for (const std::string& file : store.ListFiles(graft::StrFormat(
             "%s/superstep_%06lld/", job->id.c_str(),
             static_cast<long long>(superstep)))) {
      if (file.ends_with(".vtrace")) step.files.push_back(file);
    }
    job->steps.push_back(std::move(step));
  }
  if (job->steps.empty()) {
    return graft::Status::NotFound("job " + job->id + " captured nothing");
  }
  return graft::Status::OK();
}

// -- the service -----------------------------------------------------------------

/// One debug service with its own store, registry, metrics and cache.
/// Members are destroyed in reverse order: server and service first.
struct ReadEnv {
  ReadEnv() : cache(graft::TraceBlockCacheOptions{kCacheBudgetBytes, 8}) {}

  graft::InMemoryTraceStore store;
  graft::obs::JobRegistry registry;
  graft::obs::MetricsRegistry metrics;
  graft::TraceBlockCache cache;
  std::unique_ptr<graft::service::DebugService> service;
  std::unique_ptr<graft::obs::TelemetryServer> server;
  std::vector<std::string> job_ids;
};

const char* const kAlgos[] = {"pagerank", "cc", "sssp"};

/// Starts the service, runs the capture jobs through it, warms the cache.
std::unique_ptr<ReadEnv> SetUpService(const Config& config, Outcome* out) {
  auto env = std::make_unique<ReadEnv>();
  graft::service::DebugServiceOptions options;
  options.store = &env->store;
  options.registry = &env->registry;
  options.metrics = &env->metrics;
  options.cache = &env->cache;
  options.worker_threads = 1;
  env->service = std::make_unique<graft::service::DebugService>(options);
  graft::obs::TelemetryServerOptions server_options;
  server_options.metrics = &env->metrics;
  server_options.registry = &env->registry;
  env->server = graft::obs::TelemetryServer::Create(server_options);
  env->service->RegisterRoutes(env->server.get());

  const int jobs = config.tiny ? 3 : 6;
  const int vertices = config.tiny ? 200 : 3000;
  for (int i = 0; i < jobs; ++i) {
    const std::string body = graft::StrFormat(
        "{\"algo\":\"%s\",\"job_id\":\"read-%d\","
        "\"graph\":{\"generator\":\"power-law\",\"vertices\":%d,"
        "\"edges\":4,\"seed\":%llu},"
        "\"params\":{\"iterations\":%d,\"source\":0},"
        "\"engine\":{\"workers\":%d,\"seed\":%llu},"
        "\"capture\":{\"all_active\":true},"
        "\"journal\":false,\"transport\":\"inproc\"}",
        kAlgos[i % 3], i, vertices,
        static_cast<unsigned long long>(config.seed * 101 + i),
        kPageRankIterations, kEngineWorkers,
        static_cast<unsigned long long>(config.seed));
    auto accepted = env->service->Submit(body);
    out->Check(accepted.ok(), "submit: " + (accepted.ok()
                                                ? std::string()
                                                : accepted.status().ToString()));
    if (accepted.ok()) env->job_ids.push_back(accepted->job_id);
  }
  env->service->DrainJobs();
  for (const std::string& id : env->job_ids) {
    auto entry = env->registry.Find(id);
    out->Check(entry != nullptr &&
                   entry->state() == graft::obs::JobState::kDone,
               "capture job did not finish: " + id);
  }
  // Warm-up: every job's supersteps view and the first page of every step.
  for (const std::string& id : env->job_ids) {
    const std::string base = "/jobs/" + id + "/debug";
    Response r = env->server->Handle("GET", base + "/supersteps");
    out->Check(r.status == 200, "warm-up supersteps: " + r.body);
    for (int64_t s :
         graft::debug::ListCapturedSupersteps(env->store, id)) {
      r = env->server->Handle(
          "GET", graft::StrFormat("%s/vertices?superstep=%lld&limit=%llu",
                                  base.c_str(), static_cast<long long>(s),
                                  static_cast<unsigned long long>(kPageLimit)));
      out->Check(r.status < 500, "warm-up page: " + r.body);
    }
  }
  return env;
}

// -- the reader loop ---------------------------------------------------------------

enum class Route { kVertices, kVertex, kSearch, kSupersteps, kMaster,
                   kViolations, kReproduce };

struct RouteInfo {
  Route route;
  int weight;
  const char* span;  // span around TelemetryServer::Handle
};

/// The request mix is one round of the debug GUI's requests per job, as the
/// service read-path benchmark (BM_DebugServiceReadPath in
/// bench/bench_engine_baseline.cc) issues them: 8 point lookups, 2 table
/// pages, 1 search, and one each of the supersteps, master and violations
/// views. Each round ends in one reproduce (§3.3) of a vertex the views led
/// to.
constexpr RouteInfo kRoutes[] = {
    {Route::kVertex, 8, "service.Handle.vertex"},
    {Route::kVertices, 2, "service.Handle.vertices"},
    {Route::kSearch, 1, "service.Handle.search"},
    {Route::kSupersteps, 1, "service.Handle.supersteps"},
    {Route::kMaster, 1, "service.Handle.master"},
    {Route::kViolations, 1, "service.Handle.violations"},
    {Route::kReproduce, 1, nullptr},
};

struct ReaderStats {
  Outcome checks;
  std::vector<double> read_seconds;  // wall
  std::vector<double> reproduce_seconds;
  std::vector<double> read_cpu_seconds;  // the reader thread's CPU time
  std::vector<double> reproduce_cpu_seconds;
  uint64_t server_errors = 0;
  uint64_t response_bytes = 0;
};

const graft::JsonValue* Path(const graft::JsonValue* v,
                             std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    if (v == nullptr) return nullptr;
    v = v->Get(key);
  }
  return v;
}

int64_t IntAt(const graft::JsonValue* v,
              std::initializer_list<const char*> keys) {
  v = Path(v, keys);
  return (v != nullptr && v->AsInt64()) ? *v->AsInt64() : -1;
}

/// Checks one view answer against the set-up reads.
bool VerifyView(Route route, const Response& response, const JobExpect& job,
                const StepExpect& step, int64_t superstep,
                const Lookup& lookup, uint64_t offset) {
  if (response.status != 200) return false;
  auto parsed = graft::ParseJson(response.body);
  if (!parsed.ok()) return false;
  const graft::JsonValue* root = parsed->get();
  const graft::JsonValue* rows = root->Get("vertices");
  switch (route) {
    case Route::kSupersteps: {
      const graft::JsonValue* steps = root->Get("supersteps");
      return steps != nullptr && steps->items().size() == job.total_steps;
    }
    case Route::kVertices: {
      const uint64_t total = step.ids.size();
      const uint64_t expected = std::min(kPageLimit, total - offset);
      return IntAt(root, {"page", "total"}) == static_cast<int64_t>(total) &&
             IntAt(root, {"page", "returned"}) ==
                 static_cast<int64_t>(expected) &&
             rows != nullptr && rows->items().size() == expected &&
             (expected == 0 ||
              IntAt(rows->items()[0].get(), {"id"}) == step.ids[offset]);
    }
    case Route::kSearch: {
      const uint64_t expected = std::min(kSearchLimit, lookup.search_total);
      return IntAt(root, {"page", "total"}) ==
                 static_cast<int64_t>(lookup.search_total) &&
             rows != nullptr && rows->items().size() == expected &&
             (expected == 0 ||
              IntAt(rows->items()[0].get(), {"id"}) == lookup.search_first);
    }
    case Route::kVertex: {
      if (rows == nullptr || rows->items().size() != 1) return false;
      const graft::JsonValue* row = rows->items()[0].get();
      const graft::JsonValue* value = row->Get("value_after");
      return IntAt(row, {"superstep"}) == superstep &&
             IntAt(row, {"id"}) == lookup.id && value != nullptr &&
             value->AsString() == lookup.value_after;
    }
    case Route::kMaster:
      return IntAt(root, {"superstep"}) == superstep;
    case Route::kViolations:
      return IntAt(root, {"page", "total"}) ==
             static_cast<int64_t>(step.violation_rows);
    case Route::kReproduce:
      break;
  }
  return false;
}

/// Codegen plus replay-fidelity check of one captured vertex, through a
/// session on the shared cache. Returns the op's seconds; -1 on failure.
template <typename Traits>
double Reproduce(ReadEnv& env, const std::string& job_id, int64_t superstep,
                 VertexId id) {
  Span op("op.reproduce", /*root=*/true);
  auto session = [&] {
    Span span("session.Open");
    return graft::debug::DebugSession<Traits>::Open(&env.store, job_id,
                                                    &env.cache);
  }();
  if (!session.ok()) return -1.0;
  auto code = [&] {
    Span span("reproduce.codegen");
    return graft::debug::GenerateVertexTestCodeAt(*session, superstep, id,
                                                  MakeBinding<Traits>());
  }();
  auto computation = MakeComputation<Traits>();
  auto fidelity = [&] {
    Span span("reproduce.replay");
    return graft::debug::CheckReplayFidelityAt(*session, superstep, id,
                                               *computation);
  }();
  const double seconds = op.End();
  const bool ok = code.ok() && code->find("TEST(") != std::string::npos &&
                  fidelity.ok() && fidelity->Faithful();
  return ok ? seconds : -1.0;
}

class Readers {
 public:
  Readers(ReadEnv& env, const std::vector<JobExpect>& jobs, uint64_t seed)
      : env_(env), jobs_(jobs), seed_(seed) {
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (!jobs_[i].master_steps.empty()) master_jobs_.push_back(i);
    }
    for (const RouteInfo& r : kRoutes) total_weight_ += r.weight;
  }

  /// kReaders threads in a closed loop for `seconds`.
  /// `corrupt` ("lookup" or "search") corrupts the expected answer of the
  /// first op of reader 0.
  std::vector<ReaderStats> Run(double seconds, const std::string& corrupt) {
    std::vector<ReaderStats> stats(kReaders);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        std::mt19937_64 rng(seed_ * 7919 + phase_ * 31 + r);
        std::string_view corrupt_next = r == 0 ? corrupt : "";
        do {
          OneOp(rng, corrupt_next, &stats[r]);
          corrupt_next = "";
        } while (SecondsSince(start) < seconds);
      });
    }
    for (std::thread& t : threads) t.join();
    ++phase_;
    return stats;
  }

 private:
  const RouteInfo* Find(Route route) const {
    for (const RouteInfo& r : kRoutes) {
      if (r.route == route) return &r;
    }
    return &kRoutes[0];
  }

  void OneOp(std::mt19937_64& rng, std::string_view corrupt,
             ReaderStats* stats) {
    int pick = std::uniform_int_distribution<int>(0, total_weight_ - 1)(rng);
    const RouteInfo* info = &kRoutes[0];
    for (const RouteInfo& r : kRoutes) {
      info = &r;
      if (pick < r.weight) break;
      pick -= r.weight;
    }
    // A corrupted op is a point lookup with a wrong expected value, or a
    // search with a wrong expected total.
    if (corrupt == "lookup") info = Find(Route::kVertex);
    if (corrupt == "search") info = Find(Route::kSearch);
    const bool master = info->route == Route::kMaster && !master_jobs_.empty();
    const JobExpect& job =
        master ? jobs_[master_jobs_[Zipf(master_jobs_.size(), rng)]]
               : jobs_[Zipf(jobs_.size(), rng)];
    const StepExpect& step = job.steps[Zipf(job.steps.size(), rng)];
    Lookup lookup = step.lookups[Zipf(step.lookups.size(), rng)];
    if (corrupt == "lookup") lookup.value_after += "?";
    if (corrupt == "search") ++lookup.search_total;
    const int64_t superstep =
        master ? job.master_steps[Zipf(job.master_steps.size(), rng)]
               : step.superstep;

    const double cpu_start = ThreadCpuSeconds();
    if (info->route == Route::kReproduce) {
      const double seconds = WithTraits(job.algo, [&](auto tag) {
        return Reproduce<typename decltype(tag)::type>(env_, job.id, superstep,
                                                       lookup.id);
      });
      stats->checks.Check(seconds >= 0,
                          "reproduce " + job.id + " vertex " +
                              std::to_string(lookup.id));
      if (seconds >= 0) {
        stats->reproduce_seconds.push_back(seconds);
        stats->reproduce_cpu_seconds.push_back(ThreadCpuSeconds() - cpu_start);
      }
      return;
    }

    const uint64_t pages = (step.ids.size() + kPageLimit - 1) / kPageLimit;
    const uint64_t offset = kPageLimit * Zipf(pages, rng);
    Span op("op.read", /*root=*/true);
    const std::string base = "/jobs/" + job.id + "/debug";
    const long long s = static_cast<long long>(superstep);
    std::string target;
    switch (info->route) {
      case Route::kSupersteps:
        target = base + "/supersteps";
        break;
      case Route::kVertices:
        target = graft::StrFormat(
            "%s/vertices?superstep=%lld&offset=%llu&limit=%llu", base.c_str(),
            s, static_cast<unsigned long long>(offset),
            static_cast<unsigned long long>(kPageLimit));
        break;
      case Route::kSearch:
        target = graft::StrFormat(
            "%s/vertices?superstep=%lld&search=%lld&limit=%llu", base.c_str(),
            s, static_cast<long long>(lookup.id),
            static_cast<unsigned long long>(kSearchLimit));
        break;
      case Route::kVertex:
        target = graft::StrFormat("%s/vertex/%lld?superstep=%lld",
                                  base.c_str(),
                                  static_cast<long long>(lookup.id), s);
        break;
      case Route::kMaster:
        target = graft::StrFormat("%s/master?superstep=%lld", base.c_str(), s);
        break;
      case Route::kViolations:
        target =
            graft::StrFormat("%s/violations?superstep=%lld", base.c_str(), s);
        break;
      case Route::kReproduce:
        break;
    }
    Response response;
    {
      Span handle(info->span);
      response = env_.server->Handle("GET", target);
    }
    stats->read_seconds.push_back(op.End());
    stats->read_cpu_seconds.push_back(ThreadCpuSeconds() - cpu_start);
    stats->response_bytes += response.body.size();
    if (response.status >= 500) ++stats->server_errors;
    stats->checks.Check(VerifyView(info->route, response, job, step,
                                   superstep, lookup, offset),
                        "GET " + target + " -> " +
                            std::to_string(response.status));
  }

  ReadEnv& env_;
  const std::vector<JobExpect>& jobs_;
  const uint64_t seed_;
  std::vector<size_t> master_jobs_;
  int total_weight_ = 0;
  int phase_ = 0;
};

struct PhaseTotals {
  std::vector<double> read_seconds;
  std::vector<double> reproduce_seconds;
  std::vector<double> read_cpu_seconds;
  double busy_cpu_seconds = 0.0;
  uint64_t server_errors = 0;
  uint64_t response_bytes = 0;
};

void Merge(std::vector<ReaderStats>& readers, PhaseTotals* totals,
           Outcome* out) {
  for (ReaderStats& r : readers) {
    out->attempted += r.checks.attempted;
    out->failed += r.checks.failed;
    totals->busy_cpu_seconds +=
        Sum(r.read_cpu_seconds) + Sum(r.reproduce_cpu_seconds);
    totals->read_cpu_seconds.insert(totals->read_cpu_seconds.end(),
                                    r.read_cpu_seconds.begin(),
                                    r.read_cpu_seconds.end());
    totals->read_seconds.insert(totals->read_seconds.end(),
                                r.read_seconds.begin(), r.read_seconds.end());
    totals->reproduce_seconds.insert(totals->reproduce_seconds.end(),
                                     r.reproduce_seconds.begin(),
                                     r.reproduce_seconds.end());
    totals->server_errors += r.server_errors;
    totals->response_bytes += r.response_bytes;
  }
}

/// Hit rate of the cache lookups between two stats snapshots.
double HitRate(const graft::TraceBlockCache::Stats& before,
               const graft::TraceBlockCache::Stats& after) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + after.misses - before.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

std::vector<double> Millis(std::vector<double> seconds) {
  for (double& s : seconds) s *= 1e3;
  return seconds;
}

/// Traced probes of the read-side layers, called from the benchmark itself:
/// session open / VertexTraces / FindVertexTrace, cache block fetch and raw
/// store reads, on a Zipf sample of the working set.
void ProbeLayers(ReadEnv& env, const std::vector<JobExpect>& jobs,
                 const Config& config, Outcome* out) {
  std::mt19937_64 rng(config.seed * 104729 + 17);
  const int probes = config.tiny ? 5 : 60;
  for (int i = 0; i < probes; ++i) {
    const JobExpect& job = jobs[Zipf(jobs.size(), rng)];
    const StepExpect& step = job.steps[Zipf(job.steps.size(), rng)];
    const Lookup& lookup = step.lookups[Zipf(step.lookups.size(), rng)];
    const std::string& file = step.files[rng() % step.files.size()];
    const bool session_ok = WithTraits(job.algo, [&](auto tag) {
      using Traits = typename decltype(tag)::type;
      Span op("op.probe", /*root=*/true);
      auto session = [&] {
        Span span("session.Open");
        return graft::debug::DebugSession<Traits>::Open(&env.store, job.id,
                                                        &env.cache);
      }();
      if (!session.ok()) return false;
      auto traces = [&] {
        Span span("session.VertexTraces");
        return session->VertexTraces(step.superstep);
      }();
      auto trace = [&] {
        Span span("session.FindVertexTrace");
        return session->FindVertexTrace(step.superstep, lookup.id);
      }();
      return traces.ok() && traces->size() == step.ids.size() &&
             trace.ok() && trace->value_after.ToString() == lookup.value_after;
    });
    out->Check(session_ok, "session probe of " + job.id);
    auto block = [&] {
      Span span("cache.GetFileBlock");
      return env.cache.GetFileBlock(env.store, file);
    }();
    auto records = [&] {
      Span span("store.ReadAll");
      return env.store.ReadAll(file);
    }();
    const uint64_t expected = env.store.RecordCount(file);
    out->Check(block.ok() && (*block)->size() == expected && records.ok() &&
                   records->size() == expected,
               "block read of " + file);
  }
}

}  // namespace

Outcome RunDebugRead(const Config& config) {
  Outcome out;
  SetTracing(false);
  // Set-up is measured in CPU time of the whole process. Untraced runs
  // repeat the set-up between segments of the timed reads (on
  // a spare service, with the readers paused), so setup_s samples the whole
  // run rather than the moment before it.
  const int reps = config.trace ? 1 : (config.tiny ? 2 : 8);
  std::vector<double> setup_seconds;  // process CPU time
  const double setup_start = ProcessCpuSeconds();
  std::unique_ptr<ReadEnv> env = SetUpService(config, &out);
  setup_seconds.push_back(ProcessCpuSeconds() - setup_start);
  if (out.failed > 0) return out;

  // Expected answers from direct, uncached session reads.
  std::mt19937_64 rng(config.seed);
  std::vector<JobExpect> jobs;
  uint64_t working_set = 0;
  for (const std::string& id : env->job_ids) {
    JobExpect job;
    job.id = id;
    job.algo = env->service->AlgoForJob(id);
    const graft::Status status = WithTraits(job.algo, [&](auto tag) {
      return ReadExpected<typename decltype(tag)::type>(env->store, &job, rng);
    });
    out.Check(status.ok(), "direct session read: " + status.ToString());
    if (!status.ok()) return out;
    working_set += env->store.TotalBytes(id + "/");
    jobs.push_back(std::move(job));
  }

  Readers readers(*env, jobs, config.seed);
  // Untimed warm-up of the reader loop itself (checks still count): the
  // readers' allocator arenas and the cache reach their steady state
  // before anything is timed.
  {
    PhaseTotals warmup;
    auto stats = readers.Run(config.tiny ? 0.2 : 2.0, /*corrupt=*/"");
    Merge(stats, &warmup, &out);
  }
  const auto cache_before = env->cache.stats();
  PhaseTotals untraced;
  const int segments = std::max(1, reps - 1);
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  for (int segment = 0; segment < segments; ++segment) {
    if (segment + 1 < reps) {
      const double start = ProcessCpuSeconds();
      std::unique_ptr<ReadEnv> spare = SetUpService(config, &out);
      setup_seconds.push_back(ProcessCpuSeconds() - start);
    }
    auto stats = readers.Run(untraced_seconds / segments,
                             segment == 0 ? config.corrupt : "");
    Merge(stats, &untraced, &out);
  }
  const std::vector<double> read_ms = Millis(untraced.read_seconds);
  const std::vector<double> read_cpu_ms = Millis(untraced.read_cpu_seconds);
  const std::vector<double> reproduce_ms = Millis(untraced.reproduce_seconds);
  const double ops = static_cast<double>(read_ms.size() + reproduce_ms.size());

  out.Info("op", "view read (TelemetryServer::Handle)");
  out.Info("jobs", std::to_string(jobs.size()));
  out.Info("setup_reps", std::to_string(reps));
  out.Info("cache_budget_bytes", std::to_string(kCacheBudgetBytes));
  out.Info("working_set_bytes", std::to_string(working_set));
  out.Info("reproduce_ms", graft::StrFormat("%.4f", Median(reproduce_ms)));
  out.Info("reproduce_samples", std::to_string(reproduce_ms.size()));
  out.Info("work_unit", "view reads and reproduces");

  if (!config.trace) {
    // p95 over thousands of reads. Read cost climbs steeply between p85
    // and p92, where cache misses start, so p90 moved by a quarter with the
    // seed; p95 lies on the flat part above it. p99 spread 0.3 between runs
    // on a shared 4-vCPU host.
    const Tail tail = TailOf(read_cpu_ms, 95.0);
    out.Set("op_cpu_ms", Median(read_cpu_ms));
    out.Set("op_cpu_ms_tail", tail.value);
    out.Set("work_per_cpu_s", ops / untraced.busy_cpu_seconds);
    out.Set("setup_s", Median(setup_seconds));
    out.Info("op_tail_percentile", graft::StrFormat("%.2f", tail.percentile));
    out.Info("op_samples", std::to_string(tail.samples));
    out.Info("op_wall_ms", graft::StrFormat("%.4f", Median(read_ms)));
    out.Info("op_wall_ms_tail",
             graft::StrFormat("%.4f", TailOf(read_ms, 95.0).value));
    out.Info("cache_hit_rate",
             graft::StrFormat("%.4f", HitRate(cache_before, env->cache.stats())));
    return out;
  }

  SetTracing(true);
  PhaseTotals traced;
  {
    auto stats = readers.Run(config.seconds / 2, /*corrupt=*/"");
    Merge(stats, &traced, &out);
  }
  const auto cache_after = env->cache.stats();
  ProbeLayers(*env, jobs, config, &out);
  SetTracing(false);

  for (const RouteInfo& r : kRoutes) {
    if (r.span == nullptr) continue;
    const std::string_view span = r.span;
    out.Set("service.handle_ms." +
                std::string(span.substr(span.find_last_of('.') + 1)),
            Median(SpanSeconds(span)) * 1e3);
  }
  const size_t reads = untraced.read_seconds.size() + traced.read_seconds.size();
  out.Set("service.response_bytes",
          static_cast<double>(untraced.response_bytes + traced.response_bytes) /
              static_cast<double>(std::max<size_t>(reads, 1)));
  out.Set("service.5xx",
          static_cast<double>(untraced.server_errors + traced.server_errors));
  out.Set("session.open_ms", Median(SpanSeconds("session.Open")) * 1e3);
  out.Set("session.vertex_traces_ms",
          Median(SpanSeconds("session.VertexTraces")) * 1e3);
  out.Set("session.find_vertex_ms",
          Median(SpanSeconds("session.FindVertexTrace")) * 1e3);
  out.Set("reproduce.op_ms", Median(SpanSeconds("op.reproduce")) * 1e3);
  out.Set("reproduce.codegen_ms",
          Median(SpanSeconds("reproduce.codegen")) * 1e3);
  out.Set("reproduce.replay_ms", Median(SpanSeconds("reproduce.replay")) * 1e3);
  const uint64_t misses = cache_after.misses - cache_before.misses;
  out.Set("cache.lookups", static_cast<double>(
                               cache_after.hits - cache_before.hits + misses));
  out.Set("cache.hit_rate", HitRate(cache_before, cache_after));
  out.Set("cache.misses", static_cast<double>(misses));
  out.Set("cache.evictions",
          static_cast<double>(cache_after.evictions - cache_before.evictions));
  out.Set("cache.bytes", static_cast<double>(cache_after.bytes));
  out.Set("cache.get_block_ms", Median(SpanSeconds("cache.GetFileBlock")) * 1e3);
  out.Set("store.read_all_ms", Median(SpanSeconds("store.ReadAll")) * 1e3);
  out.Set("bench.op_self_ms", Median(SpanSelfSeconds("op.read")) * 1e3);
  const double untraced_op_ms = Median(read_ms);
  out.Set("trace.untraced_op_ms", untraced_op_ms);
  out.Set("trace.overhead_pct",
          (Median(Millis(traced.read_seconds)) / untraced_op_ms - 1) * 100);
  return out;
}

}  // namespace perfbench
