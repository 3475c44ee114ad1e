#include "service/job_request.h"

#include <algorithm>

#include "common/json_parser.h"
#include "common/string_util.h"
#include "graph/generators.h"

namespace graft {
namespace service {

namespace {

constexpr int64_t kMaxRequestVertices = 5'000'000;
constexpr int64_t kMaxRequestEdges = 50'000'000;

bool KnownGenerator(const std::string& name) {
  return name == "erdos-renyi" || name == "power-law" || name == "grid" ||
         name == "ring" || name == "complete" || name == "binary-tree" ||
         name == "star";
}

Status ParseGraph(const JsonValue& graph, JobRequest* out) {
  GRAFT_ASSIGN_OR_RETURN(out->generator,
                         graph.GetString("generator", out->generator));
  if (!KnownGenerator(out->generator)) {
    return Status::InvalidArgument(
        "unknown graph.generator '" + out->generator +
        "' (want erdos-renyi|power-law|grid|ring|complete|binary-tree|star)");
  }
  GRAFT_ASSIGN_OR_RETURN(out->vertices,
                         graph.GetInt("vertices", out->vertices));
  GRAFT_ASSIGN_OR_RETURN(out->edges, graph.GetInt("edges", out->edges));
  GRAFT_ASSIGN_OR_RETURN(out->rows, graph.GetInt("rows", out->rows));
  GRAFT_ASSIGN_OR_RETURN(out->cols, graph.GetInt("cols", out->cols));
  GRAFT_ASSIGN_OR_RETURN(
      int64_t seed, graph.GetInt("seed", static_cast<int64_t>(out->graph_seed)));
  out->graph_seed = static_cast<uint64_t>(seed);
  GRAFT_ASSIGN_OR_RETURN(out->undirected,
                         graph.GetBool("undirected", out->undirected));
  if (out->vertices < 1 || out->vertices > kMaxRequestVertices) {
    return Status::InvalidArgument(
        StrFormat("graph.vertices out of range [1, %lld]",
                  static_cast<long long>(kMaxRequestVertices)));
  }
  if (out->edges < 0 || out->edges > kMaxRequestEdges) {
    return Status::InvalidArgument(
        StrFormat("graph.edges out of range [0, %lld]",
                  static_cast<long long>(kMaxRequestEdges)));
  }
  if (out->generator == "grid" && (out->rows < 0 || out->cols < 0)) {
    return Status::InvalidArgument("graph.rows/cols must be non-negative");
  }
  return Status::OK();
}

Status ParseCapture(const JsonValue& capture, JobRequest* out) {
  GRAFT_ASSIGN_OR_RETURN(out->capture_all,
                         capture.GetBool("all_active", out->capture_all));
  if (const JsonValue* ids = capture.Get("vertices"); ids != nullptr) {
    if (!ids->is_array()) {
      return Status::InvalidArgument("capture.vertices must be an array");
    }
    for (const auto& id : ids->items()) {
      const auto exact = id->AsInt64();
      if (!exact.has_value()) {
        return Status::InvalidArgument(
            "capture.vertices entries must be integers");
      }
      out->capture_vertices.push_back(*exact);
    }
    // An explicit vertex list turns off the capture-everything default
    // unless the body asked for both.
    if (capture.Get("all_active") == nullptr) out->capture_all = false;
  }
  GRAFT_ASSIGN_OR_RETURN(out->num_random,
                         capture.GetInt("num_random", out->num_random));
  if (out->num_random > 0 && capture.Get("all_active") == nullptr &&
      capture.Get("vertices") == nullptr) {
    out->capture_all = false;
  }
  GRAFT_ASSIGN_OR_RETURN(
      out->capture_neighbors,
      capture.GetBool("neighbors", out->capture_neighbors));
  GRAFT_ASSIGN_OR_RETURN(out->max_captures,
                         capture.GetInt("max_captures", out->max_captures));
  if (out->num_random < 0 || out->max_captures < 1) {
    return Status::InvalidArgument(
        "capture.num_random must be >= 0 and capture.max_captures >= 1");
  }
  return Status::OK();
}

}  // namespace

Result<JobRequest> ParseJobRequest(const JsonValue& body, uint64_t sequence) {
  if (!body.is_object()) {
    return Status::InvalidArgument("job spec must be a JSON object");
  }
  JobRequest out;
  GRAFT_ASSIGN_OR_RETURN(out.algo, body.GetString("algo", ""));
  if (out.algo.empty()) {
    return Status::InvalidArgument("job spec requires an \"algo\" field");
  }
  GRAFT_ASSIGN_OR_RETURN(out.job_id, body.GetString("job_id", ""));
  if (out.job_id.empty()) {
    out.job_id = StrFormat("%s-%llu", out.algo.c_str(),
                           static_cast<unsigned long long>(sequence));
  }
  if (out.job_id.find('/') != std::string::npos ||
      out.job_id.find('?') != std::string::npos ||
      out.job_id.find('#') != std::string::npos ||
      out.job_id.find(' ') != std::string::npos) {
    return Status::InvalidArgument(
        "job_id must not contain '/', '?', '#', or spaces");
  }

  if (const JsonValue* graph = body.Get("graph"); graph != nullptr) {
    if (!graph->is_object()) {
      return Status::InvalidArgument("\"graph\" must be an object");
    }
    GRAFT_RETURN_NOT_OK(ParseGraph(*graph, &out));
  }
  if (const JsonValue* params = body.Get("params"); params != nullptr) {
    if (!params->is_object()) {
      return Status::InvalidArgument("\"params\" must be an object");
    }
    GRAFT_ASSIGN_OR_RETURN(out.iterations,
                           params->GetInt("iterations", out.iterations));
    GRAFT_ASSIGN_OR_RETURN(out.source, params->GetInt("source", out.source));
    if (out.iterations < 1 || out.iterations > 100'000) {
      return Status::InvalidArgument(
          "params.iterations out of range [1, 100000]");
    }
  }
  if (const JsonValue* engine = body.Get("engine"); engine != nullptr) {
    if (!engine->is_object()) {
      return Status::InvalidArgument("\"engine\" must be an object");
    }
    GRAFT_ASSIGN_OR_RETURN(int64_t workers,
                           engine->GetInt("workers", out.workers));
    if (workers < 1 || workers > 64) {
      return Status::InvalidArgument("engine.workers out of range [1, 64]");
    }
    out.workers = static_cast<int>(workers);
    GRAFT_ASSIGN_OR_RETURN(
        out.max_supersteps,
        engine->GetInt("max_supersteps", out.max_supersteps));
    if (out.max_supersteps < 1) {
      return Status::InvalidArgument("engine.max_supersteps must be >= 1");
    }
    GRAFT_ASSIGN_OR_RETURN(
        int64_t seed,
        engine->GetInt("seed", static_cast<int64_t>(out.engine_seed)));
    out.engine_seed = static_cast<uint64_t>(seed);
  }
  if (const JsonValue* capture = body.Get("capture"); capture != nullptr) {
    if (!capture->is_object()) {
      return Status::InvalidArgument("\"capture\" must be an object");
    }
    GRAFT_RETURN_NOT_OK(ParseCapture(*capture, &out));
  }
  GRAFT_ASSIGN_OR_RETURN(out.sanitizer,
                         body.GetBool("sanitizer", out.sanitizer));
  GRAFT_ASSIGN_OR_RETURN(
      out.checkpoint_interval,
      body.GetInt("checkpoint_interval", out.checkpoint_interval));
  if (out.checkpoint_interval < 0) {
    return Status::InvalidArgument("checkpoint_interval must be >= 0");
  }
  GRAFT_ASSIGN_OR_RETURN(out.journal, body.GetBool("journal", out.journal));
  // In-process is the only backend (DESIGN.md §15); the member is accepted
  // so clients can name it explicitly.
  GRAFT_ASSIGN_OR_RETURN(std::string transport,
                         body.GetString("transport", "inproc"));
  if (transport != "inproc") {
    return Status::InvalidArgument("unknown transport \"" + transport +
                                   "\" (want inproc)");
  }
  return out;
}

Result<graph::SimpleGraph> BuildRequestedGraph(const JobRequest& request) {
  const uint64_t n = static_cast<uint64_t>(request.vertices);
  graph::SimpleGraph g;
  if (request.generator == "erdos-renyi") {
    const uint64_t m = request.edges > 0 ? static_cast<uint64_t>(request.edges)
                                         : n * 4;
    g = graph::GenerateErdosRenyi(n, m, request.graph_seed);
  } else if (request.generator == "power-law") {
    const int epv =
        request.edges > 0
            ? static_cast<int>(std::min<int64_t>(request.edges, 64))
            : 3;
    g = graph::GeneratePowerLaw(n, epv, request.graph_seed);
  } else if (request.generator == "grid") {
    const int rows = request.rows > 0 ? static_cast<int>(request.rows) : 10;
    const int cols = request.cols > 0 ? static_cast<int>(request.cols) : 10;
    g = graph::GenerateGrid(rows, cols);
  } else if (request.generator == "ring") {
    g = graph::GenerateRing(n);
  } else if (request.generator == "complete") {
    g = graph::GenerateComplete(static_cast<int>(std::min<int64_t>(
        request.vertices, 2'000)));
  } else if (request.generator == "binary-tree") {
    g = graph::GenerateBinaryTree(n);
  } else if (request.generator == "star") {
    g = graph::GenerateStar(n);
  } else {
    return Status::InvalidArgument("unknown graph generator '" +
                                   request.generator + "'");
  }
  // The directed generators get symmetrized on request; the fixed-shape
  // families are already undirected.
  if (request.undirected &&
      (request.generator == "erdos-renyi" || request.generator == "power-law")) {
    g = graph::MakeUndirected(g);
  }
  return g;
}

}  // namespace service
}  // namespace graft
