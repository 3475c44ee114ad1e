#ifndef GRAFT_SERVICE_JOB_REQUEST_H_
#define GRAFT_SERVICE_JOB_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/simple_graph.h"

namespace graft {

class JsonValue;

namespace service {

/// One POST /jobs body, parsed and validated — the algo-agnostic half of a
/// debug-service job submission. Every field maps onto one JSON member of
/// the job-spec schema (see DESIGN.md §13):
///
///   {
///     "algo": "pagerank",                    // pagerank | cc | sssp
///     "job_id": "my-run",                    // optional; derived when absent
///     "graph": {"generator": "erdos-renyi",  // power-law | grid | ring |
///               "vertices": 1000,            //   complete | binary-tree |
///               "edges": 4000,               //   star | erdos-renyi
///               "seed": 42,
///               "undirected": true},
///     "params": {"iterations": 20,           // pagerank
///                "source": 0},               // sssp
///     "engine": {"workers": 2, "max_supersteps": 10000, "seed": 7},
///     "capture": {"all_active": true,        // or:
///                 "vertices": [1, 2, 3],
///                 "num_random": 10,
///                 "neighbors": false,
///                 "max_captures": 100000},
///     "sanitizer": false,
///     "checkpoint_interval": 0,
///     "journal": true,
///     "transport": "inproc"                  // the only backend
///   }
struct JobRequest {
  std::string algo;
  std::string job_id;

  // -- graph --
  std::string generator = "erdos-renyi";
  int64_t vertices = 100;
  /// Edge budget: m for erdos-renyi, edges-per-vertex for power-law,
  /// ignored by the fixed-shape generators. 0 = generator default.
  int64_t edges = 0;
  int64_t rows = 0;  // grid
  int64_t cols = 0;  // grid
  uint64_t graph_seed = 42;
  bool undirected = true;

  // -- algorithm parameters --
  int64_t iterations = 10;  // pagerank
  VertexId source = 0;      // sssp

  // -- engine knobs --
  int workers = 2;
  int64_t max_supersteps = 10'000;
  uint64_t engine_seed = 0x6a0b5eedULL;

  // -- capture knobs --
  bool capture_all = true;
  std::vector<VertexId> capture_vertices;
  int64_t num_random = 0;
  bool capture_neighbors = false;
  int64_t max_captures = 1'000'000;

  // -- extras --
  bool sanitizer = false;
  int64_t checkpoint_interval = 0;
  bool journal = true;
};

/// Parses and validates one POST /jobs body. Unknown algos, unknown
/// generators, and out-of-range sizes are kInvalidArgument; absent optional
/// members keep their defaults. `sequence` seeds the derived job id when the
/// body names none.
Result<JobRequest> ParseJobRequest(const JsonValue& body, uint64_t sequence);

/// Materializes the requested graph. kInvalidArgument on unknown generator
/// names (ParseJobRequest already rejects them; this guards direct callers).
Result<graph::SimpleGraph> BuildRequestedGraph(const JobRequest& request);

}  // namespace service
}  // namespace graft

#endif  // GRAFT_SERVICE_JOB_REQUEST_H_
