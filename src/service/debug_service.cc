#include "service/debug_service.h"

#include <utility>
#include <vector>

#include "common/json_parser.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "debug/capture_manager.h"
#include "debug/debug_session.h"
#include "debug/vertex_trace.h"

namespace graft {
namespace service {

namespace {

using obs::HttpRequest;
using Response = obs::TelemetryServer::Response;

/// Largest page a single read answers; larger asks are clamped, not errors.
constexpr uint64_t kMaxPageLimit = 10'000;

Result<debug::ViewRequest> ParseViewRequest(const HttpRequest& request,
                                            debug::ViewKind kind) {
  debug::ViewRequest view;
  view.kind = kind;
  // The HTTP debug API answers JSON unless asked for the terminal rendering.
  view.format = debug::ViewFormat::kJson;
  const std::string format = request.QueryParam("format", "json");
  if (format == "text") {
    view.format = debug::ViewFormat::kText;
  } else if (format != "json") {
    return Status::InvalidArgument("format must be json or text");
  }
  if (const std::string s = request.QueryParam("superstep"); !s.empty()) {
    int64_t superstep = 0;
    if (!ParseInt64(s, &superstep)) {
      return Status::InvalidArgument("superstep must be an integer");
    }
    view.superstep = superstep;
  }
  if (const std::string s = request.QueryParam("offset"); !s.empty()) {
    int64_t offset = 0;
    if (!ParseInt64(s, &offset) || offset < 0) {
      return Status::InvalidArgument("offset must be a non-negative integer");
    }
    view.offset = static_cast<uint64_t>(offset);
  }
  if (const std::string s = request.QueryParam("limit"); !s.empty()) {
    if (s == "all") {
      view.limit = debug::kViewNoLimit;
    } else {
      int64_t limit = 0;
      if (!ParseInt64(s, &limit) || limit < 1) {
        return Status::InvalidArgument("limit must be a positive integer or 'all'");
      }
      view.limit = std::min<uint64_t>(static_cast<uint64_t>(limit),
                                      kMaxPageLimit);
    }
  }
  view.search = request.QueryParam("search");
  return view;
}

Response RenderedView(const debug::ViewResult& view,
                      debug::ViewFormat format) {
  if (format == debug::ViewFormat::kJson) {
    return Response::Json(view.ToJson());
  }
  Response r;
  r.body = view.ToText();
  return r;
}

}  // namespace

DebugService::DebugService(DebugServiceOptions options)
    : options_(options),
      queue_(options.worker_threads, options.queue_capacity) {
  if (options_.registry == nullptr) {
    options_.registry = &obs::JobRegistry::Global();
  }
  if (options_.cache == nullptr) options_.cache = &TraceBlockCache::Global();
  if (options_.catalog == nullptr) options_.catalog = &AlgoCatalog::Global();
}

DebugService::~DebugService() { queue_.Stop(); }

void DebugService::RegisterRoutes(obs::TelemetryServer* server) {
  server->RegisterRoute("POST", "/jobs", [this](const HttpRequest& request) {
    return HandleSubmit(request);
  });
  server->RegisterRoute("GET", "/jobs/{id}/debug/supersteps",
                        [this](const HttpRequest& request) {
                          return HandleSupersteps(request);
                        });
  server->RegisterRoute("GET", "/jobs/{id}/debug/master",
                        [this](const HttpRequest& request) {
                          return HandleMaster(request);
                        });
  server->RegisterRoute("GET", "/jobs/{id}/debug/vertices",
                        [this](const HttpRequest& request) {
                          return HandleView(request, debug::ViewKind::kTabular);
                        });
  server->RegisterRoute(
      "GET", "/jobs/{id}/debug/violations",
      [this](const HttpRequest& request) {
        return HandleView(request, debug::ViewKind::kViolations);
      });
  server->RegisterRoute("GET", "/jobs/{id}/debug/vertex/{vid}",
                        [this](const HttpRequest& request) {
                          return HandleView(request, debug::ViewKind::kVertex);
                        });
  server->RegisterRoute("POST", "/jobs/{id}/minimize",
                        [this](const HttpRequest& request) {
                          return HandleMinimizeSubmit(request);
                        });
  server->RegisterRoute("GET", "/jobs/{id}/minimize",
                        [this](const HttpRequest& request) {
                          return HandleMinimizeStatus(request);
                        });
  server->RegisterRoute("GET", "/jobs/{id}/minimize/reproducer",
                        [this](const HttpRequest& request) {
                          return HandleMinimizeReproducer(request);
                        });
}

Result<JobRequest> DebugService::Submit(std::string_view body) {
  GRAFT_ASSIGN_OR_RETURN(std::unique_ptr<JsonValue> spec, ParseJson(body));
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  GRAFT_ASSIGN_OR_RETURN(JobRequest request,
                         ParseJobRequest(*spec, sequence));
  if (!options_.catalog->Has(request.algo)) {
    return Status::InvalidArgument(
        "unknown algo '" + request.algo + "' (have: " +
        JoinStrings(options_.catalog->Names(), ", ") + ")");
  }
  // Resubmitting a *finished* job id re-runs it (RunJob wipes the stale
  // manifest and invalidates cached blocks); a live one is a conflict.
  std::shared_ptr<obs::JobEntry> existing =
      options_.registry->Find(request.job_id);
  if (existing != nullptr) {
    const obs::JobState state = existing->state();
    if (state != obs::JobState::kDone && state != obs::JobState::kFailed) {
      return Status::AlreadyExists("job '" + request.job_id + "' is already " +
                                   obs::JobStateName(state));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_requests_[request.job_id] = request;
  }
  // Visible as pending immediately; RunJob re-registers (replacing this
  // entry) when a worker picks the job up.
  std::shared_ptr<obs::JobEntry> entry =
      options_.registry->Register(request.job_id);
  RunEnv env{options_.store, options_.metrics, options_.registry};
  const AlgoCatalog* catalog = options_.catalog;
  JobRequest queued = request;
  Status submitted = queue_.Submit([catalog, queued, env] {
    Status run = catalog->Run(queued, env);
    if (!run.ok()) {
      // Spec-level failures never reach RunJob's own registry publishing;
      // surface them on the pending entry so pollers see a terminal state.
      std::shared_ptr<obs::JobEntry> failed =
          env.registry->Find(queued.job_id);
      if (failed != nullptr) failed->Finish(false, run.ToString());
    }
  });
  if (!submitted.ok()) {
    entry->Finish(false, submitted.ToString());
    return submitted;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.jobs_submitted_total")->Increment();
  }
  return request;
}

std::string DebugService::AlgoForJob(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = job_requests_.find(job_id);
  return it != job_requests_.end() ? it->second.algo : "";
}

Status DebugService::SubmitMinimize(const std::string& job_id,
                                    std::string_view body) {
  JobRequest job_request;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = job_requests_.find(job_id);
    if (it == job_requests_.end()) {
      return Status::NotFound(
          "job '" + job_id +
          "' was not submitted through this service; minimize needs the "
          "original job spec");
    }
    job_request = it->second;
  }
  // Minimization re-runs the job from its spec, so the original run must be
  // over (same rule as debug reads; also keeps one job's probes from racing
  // its own capture output).
  GRAFT_RETURN_NOT_OK(CheckReadable(job_id));

  analysis::MinimizerOptions minimize;
  if (!body.empty()) {
    GRAFT_ASSIGN_OR_RETURN(std::unique_ptr<JsonValue> spec, ParseJson(body));
    GRAFT_ASSIGN_OR_RETURN(const std::string oracle,
                           spec->GetString("oracle", "sanitizer"));
    GRAFT_ASSIGN_OR_RETURN(minimize.oracle, analysis::ParseOracleKind(oracle));
    GRAFT_ASSIGN_OR_RETURN(minimize.predicate,
                           spec->GetString("predicate", ""));
    GRAFT_ASSIGN_OR_RETURN(const std::string kind,
                           spec->GetString("finding_kind", ""));
    if (!kind.empty()) {
      bool known = false;
      for (int i = 0; i < analysis::kNumFindingKinds; ++i) {
        const auto candidate = static_cast<analysis::FindingKind>(i);
        if (kind == analysis::FindingKindName(candidate)) {
          minimize.finding_kind = candidate;
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::InvalidArgument("unknown finding_kind '" + kind + "'");
      }
    }
    GRAFT_ASSIGN_OR_RETURN(const int64_t max_probes,
                           spec->GetInt("max_probes", minimize.max_probes));
    if (max_probes < 1) {
      return Status::InvalidArgument("max_probes must be >= 1");
    }
    minimize.max_probes = static_cast<int>(max_probes);
    GRAFT_ASSIGN_OR_RETURN(
        minimize.bisect_supersteps,
        spec->GetBool("bisect_supersteps", minimize.bisect_supersteps));
    GRAFT_ASSIGN_OR_RETURN(
        minimize.minimize_edges,
        spec->GetBool("minimize_edges", minimize.minimize_edges));
  }
  if (minimize.oracle == analysis::OracleKind::kPredicate) {
    // Fail bad predicates at submit time, not on the worker.
    GRAFT_RETURN_NOT_OK(analysis::Predicate::Validate(minimize.predicate));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = minimizations_.find(job_id);
    if (it != minimizations_.end() && it->second.state != "done" &&
        it->second.state != "failed") {
      return Status::AlreadyExists("a minimization of job '" + job_id +
                                   "' is already " + it->second.state);
    }
    minimizations_[job_id] = MinimizeStatus{"pending", "", {}, "", ""};
  }
  Status submitted = queue_.Submit([this, job_id, job_request, minimize] {
    RunMinimize(job_id, job_request, minimize);
  });
  if (!submitted.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    minimizations_.erase(job_id);
    return submitted;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.minimizer_jobs_total")->Increment();
  }
  return Status::OK();
}

void DebugService::RunMinimize(const std::string& job_id,
                               const JobRequest& request,
                               const analysis::MinimizerOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    minimizations_[job_id].state = "running";
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("service.minimizer_active")->Add(1);
  }
  analysis::MinimizerProgressFn progress =
      [this, job_id](const analysis::MinimizerProgress& p) {
        std::lock_guard<std::mutex> lock(mutex_);
        minimizations_[job_id].progress = p;
      };
  Result<analysis::MinimizerReport> report =
      options_.catalog->Minimize(request.algo, request, options, progress);
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("service.minimizer_active")->Add(-1);
    if (report.ok()) {
      options_.metrics->GetCounter("service.minimizer_probes_total")
          ->Increment(static_cast<uint64_t>(report->probes));
    } else {
      options_.metrics->GetCounter("service.minimizer_failed_total")
          ->Increment();
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  MinimizeStatus& state = minimizations_[job_id];
  if (!report.ok()) {
    state.state = "failed";
    state.error = report.status().ToString();
    return;
  }
  state.state = "done";
  state.report_json = report->ToJson();
  state.reproducer = std::move(report->reproducer_code);
}

Result<DebugService::MinimizeStatus> DebugService::MinimizeStatusForJob(
    const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = minimizations_.find(job_id);
  if (it == minimizations_.end()) {
    return Status::NotFound("no minimization submitted for job '" + job_id +
                            "'");
  }
  return it->second;
}

Status DebugService::CheckReadable(const std::string& job_id) const {
  std::shared_ptr<obs::JobEntry> entry = options_.registry->Find(job_id);
  if (entry == nullptr) return Status::OK();  // pre-existing traces
  const obs::JobState state = entry->state();
  if (state == obs::JobState::kDone || state == obs::JobState::kFailed) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "job '" + job_id + "' is still " + obs::JobStateName(state) +
      "; debug reads require a finished job");
}

Response DebugService::HandleSubmit(const HttpRequest& request) {
  Result<JobRequest> accepted = Submit(request.body);
  if (!accepted.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("service.jobs_rejected_total")->Increment();
    }
    return obs::TelemetryServer::ErrorResponse(accepted.status());
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("job_id", accepted->job_id);
  w.KV("algo", accepted->algo);
  w.KV("state", "pending");
  w.Key("endpoints");
  w.BeginObject();
  w.KV("report", "/jobs/" + accepted->job_id + "/report");
  w.KV("events", "/jobs/" + accepted->job_id + "/events");
  w.KV("debug", "/jobs/" + accepted->job_id + "/debug/supersteps");
  w.EndObject();
  w.EndObject();
  return Response::Json(w.TakeString(), /*status=*/202);
}

Response DebugService::HandleSupersteps(const HttpRequest& request) {
  const std::string& job_id = request.params.at("id");
  if (Status readable = CheckReadable(job_id); !readable.ok()) {
    return obs::TelemetryServer::ErrorResponse(readable);
  }
  auto index =
      debug::LoadTraceIndex(*options_.store, job_id, options_.cache);
  if (!index.ok()) return obs::TelemetryServer::ErrorResponse(index.status());
  const debug::TraceIndex& job_index = **index;
  if (job_index.supersteps.empty()) {
    return obs::TelemetryServer::ErrorResponse(
        Status::NotFound("job '" + job_id + "' has no captures"));
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.debug_reads_total")->Increment();
  }
  // Per-superstep counts come from the manifest; a manifest-less job's
  // index has no entries, so it reports 0 records and no master.
  const debug::TraceManifest& manifest = job_index.manifest;
  auto vertex_records = [&manifest](int64_t superstep) -> uint64_t {
    return manifest.Range(debug::TraceRecordKind::kVertex, superstep).size();
  };
  auto has_master = [&manifest](int64_t superstep) {
    return !manifest.Range(debug::TraceRecordKind::kMaster, superstep).empty();
  };
  if (request.QueryParam("format", "json") == "text") {
    Response r;
    r.body = StrFormat(
        "job '%s': %llu captured supersteps\n", job_id.c_str(),
        static_cast<unsigned long long>(job_index.supersteps.size()));
    for (int64_t superstep : job_index.supersteps) {
      r.body += StrFormat("superstep %lld: %llu vertex records%s\n",
                          static_cast<long long>(superstep),
                          static_cast<unsigned long long>(
                              vertex_records(superstep)),
                          has_master(superstep) ? ", master" : "");
    }
    return r;
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("job", job_id);
  w.KV("manifest", job_index.has_manifest);
  w.Key("supersteps");
  w.BeginArray();
  for (int64_t superstep : job_index.supersteps) {
    w.BeginObject();
    w.KV("superstep", superstep);
    w.KV("vertex_records", vertex_records(superstep));
    w.KV("master", has_master(superstep));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Response::Json(w.TakeString());
}

Response DebugService::HandleMaster(const HttpRequest& request) {
  const std::string& job_id = request.params.at("id");
  if (Status readable = CheckReadable(job_id); !readable.ok()) {
    return obs::TelemetryServer::ErrorResponse(readable);
  }
  auto index =
      debug::LoadTraceIndex(*options_.store, job_id, options_.cache);
  if (!index.ok()) return obs::TelemetryServer::ErrorResponse(index.status());
  int64_t superstep = -1;
  if (const std::string s = request.QueryParam("superstep"); !s.empty()) {
    if (!ParseInt64(s, &superstep)) {
      return obs::TelemetryServer::ErrorResponse(
          Status::InvalidArgument("superstep must be an integer"));
    }
  } else {
    // Default: the first superstep with a master trace, or for a
    // manifest-less job the first captured superstep.
    const bool manifest = (*index)->has_manifest;
    const std::vector<int64_t>& steps =
        manifest ? (*index)->master_supersteps : (*index)->supersteps;
    if (steps.empty()) {
      return obs::TelemetryServer::ErrorResponse(Status::NotFound(
          "job '" + job_id + "' has no " +
          (manifest ? "master traces" : "captures")));
    }
    superstep = steps.front();
  }
  auto master = debug::ReadMasterTrace(*options_.store, options_.cache,
                                       **index, superstep);
  if (!master.ok()) {
    return obs::TelemetryServer::ErrorResponse(master.status());
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.debug_reads_total")->Increment();
  }
  if (request.QueryParam("format", "json") == "text") {
    Response r;
    r.body = StrFormat(
        "=== Master — job '%s' — superstep %lld ===\n"
        "vertices=%lld edges=%lld halted=%s\n",
        job_id.c_str(), static_cast<long long>(master->superstep),
        static_cast<long long>(master->total_vertices),
        static_cast<long long>(master->total_edges),
        master->halted ? "yes" : "no");
    for (const auto& [name, value] : master->aggregators_after) {
      r.body += "  " + name + " = " + value.ToString() + "\n";
    }
    return r;
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("job", job_id);
  w.KV("superstep", master->superstep);
  w.KV("total_vertices", master->total_vertices);
  w.KV("total_edges", master->total_edges);
  w.KV("halted", master->halted);
  w.Key("aggregators_before");
  w.BeginObject();
  for (const auto& [name, value] : master->aggregators) {
    w.KV(name, value.ToString());
  }
  w.EndObject();
  w.Key("aggregators_after");
  w.BeginObject();
  for (const auto& [name, value] : master->aggregators_after) {
    w.KV(name, value.ToString());
  }
  w.EndObject();
  w.EndObject();
  return Response::Json(w.TakeString());
}

Response DebugService::HandleView(const HttpRequest& request,
                                  debug::ViewKind kind) {
  const std::string& job_id = request.params.at("id");
  if (Status readable = CheckReadable(job_id); !readable.ok()) {
    return obs::TelemetryServer::ErrorResponse(readable);
  }
  std::string algo = request.QueryParam("algo");
  if (algo.empty()) algo = AlgoForJob(job_id);
  if (algo.empty()) {
    return obs::TelemetryServer::ErrorResponse(Status::InvalidArgument(
        "job '" + job_id +
        "' was not submitted through this service; pass ?algo= (have: " +
        JoinStrings(options_.catalog->Names(), ", ") + ")"));
  }
  Result<debug::ViewRequest> view = ParseViewRequest(request, kind);
  if (!view.ok()) return obs::TelemetryServer::ErrorResponse(view.status());
  if (kind == debug::ViewKind::kVertex) {
    int64_t vid = 0;
    if (!ParseInt64(request.params.at("vid"), &vid)) {
      return obs::TelemetryServer::ErrorResponse(
          Status::InvalidArgument("vertex id must be an integer"));
    }
    view->vertex = vid;
  }
  Result<debug::ViewResult> result = options_.catalog->View(
      algo, *options_.store, job_id, options_.cache, *view);
  if (!result.ok()) {
    return obs::TelemetryServer::ErrorResponse(result.status());
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.debug_reads_total")->Increment();
    options_.metrics
        ->GetCounter(StrFormat("service.debug_reads.%s_total",
                               debug::ViewKindName(kind)))
        ->Increment();
  }
  return RenderedView(*result, view->format);
}

Response DebugService::HandleMinimizeSubmit(const HttpRequest& request) {
  const std::string& job_id = request.params.at("id");
  Status submitted = SubmitMinimize(job_id, request.body);
  if (!submitted.ok()) {
    return obs::TelemetryServer::ErrorResponse(submitted);
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("job_id", job_id);
  w.KV("state", "pending");
  w.Key("endpoints");
  w.BeginObject();
  w.KV("status", "/jobs/" + job_id + "/minimize");
  w.KV("reproducer", "/jobs/" + job_id + "/minimize/reproducer");
  w.EndObject();
  w.EndObject();
  return Response::Json(w.TakeString(), /*status=*/202);
}

Response DebugService::HandleMinimizeStatus(const HttpRequest& request) {
  const std::string& job_id = request.params.at("id");
  Result<MinimizeStatus> status = MinimizeStatusForJob(job_id);
  if (!status.ok()) {
    return obs::TelemetryServer::ErrorResponse(status.status());
  }
  if (status->state == "done") {
    // The finished report verbatim, plus the lifecycle envelope.
    JsonWriter w;
    w.BeginObject();
    w.KV("job_id", job_id);
    w.KV("state", status->state);
    w.Key("report");
    w.Raw(status->report_json);
    w.EndObject();
    return Response::Json(w.TakeString());
  }
  JsonWriter w;
  w.BeginObject();
  w.KV("job_id", job_id);
  w.KV("state", status->state);
  if (!status->error.empty()) w.KV("error", status->error);
  w.Key("progress");
  w.BeginObject();
  w.KV("phase", status->progress.phase);
  w.KV("probes", static_cast<int64_t>(status->progress.probes));
  w.KV("failing_probes",
       static_cast<int64_t>(status->progress.failing_probes));
  w.KV("current_vertices",
       static_cast<uint64_t>(status->progress.current_vertices));
  w.KV("current_edges",
       static_cast<uint64_t>(status->progress.current_edges));
  w.KV("superstep_cap", status->progress.superstep_cap);
  w.EndObject();
  w.EndObject();
  return Response::Json(w.TakeString());
}

Response DebugService::HandleMinimizeReproducer(const HttpRequest& request) {
  const std::string& job_id = request.params.at("id");
  Result<MinimizeStatus> status = MinimizeStatusForJob(job_id);
  if (!status.ok()) {
    return obs::TelemetryServer::ErrorResponse(status.status());
  }
  if (status->state != "done") {
    return obs::TelemetryServer::ErrorResponse(Status::NotFound(
        "minimization of job '" + job_id + "' is " + status->state +
        "; the reproducer exists only once it is done"));
  }
  if (status->reproducer.empty()) {
    return obs::TelemetryServer::ErrorResponse(Status::NotFound(
        "minimization of job '" + job_id +
        "' did not reproduce the failure; no reproducer was generated"));
  }
  Response r;
  r.body = status->reproducer;
  return r;
}

}  // namespace service
}  // namespace graft
