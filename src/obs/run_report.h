#ifndef GRAFT_OBS_RUN_REPORT_H_
#define GRAFT_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace graft {

class JsonWriter;

namespace obs {

/// Engine phases profiled every superstep. Names are stable identifiers used
/// by the JSON and Prometheus exports.
enum class Phase : int {
  kMutation = 0,        // topology mutation application
  kDelivery = 1,        // message delivery into partition inboxes
  kMaster = 2,          // master.compute()
  kCompute = 3,         // vertex Compute() phase
  kBarrierWait = 4,     // worker idle time at the superstep barriers
  kAggregatorMerge = 5, // per-worker aggregation merge
};
inline constexpr int kNumPhases = 6;
const char* PhaseName(Phase phase);

/// One worker's slice of one superstep. `compute_seconds` and
/// `delivery_seconds` are the worker's busy time inside the respective
/// parallel phases; `barrier_wait_seconds` is the time it spent idle waiting
/// for the slowest worker (phase wall time minus own busy time, summed over
/// both parallel phases) — the straggler signal.
struct WorkerPhaseProfile {
  int worker = 0;
  double compute_seconds = 0.0;
  double delivery_seconds = 0.0;
  double barrier_wait_seconds = 0.0;
  uint64_t vertices_computed = 0;
  uint64_t messages_sent = 0;
};

/// Phase timings for one superstep; wall-clock for the serial phases, wall
/// plus per-worker busy breakdown for the parallel ones.
struct SuperstepProfile {
  int64_t superstep = 0;
  double mutation_seconds = 0.0;
  double delivery_wall_seconds = 0.0;
  double master_seconds = 0.0;
  double compute_wall_seconds = 0.0;
  double aggregator_merge_seconds = 0.0;
  double total_seconds = 0.0;
  /// True for the trailing superstep of a run that terminated before its
  /// vertex phase (master halt / all vertices halted): mutation, delivery,
  /// and master timings are real, compute and aggregator merge never ran.
  bool partial = false;
  std::vector<WorkerPhaseProfile> workers;
};

/// Capture-layer overhead, measured (not benchmarked): what the Graft
/// instrumentation actually spent serializing and appending traces during
/// the run. This makes the paper's Figure 7 "capture overhead" a first-class
/// quantity in every debugged run.
struct CaptureProfile {
  bool enabled = false;
  uint64_t vertex_captures = 0;
  uint64_t master_captures = 0;
  uint64_t violations = 0;
  uint64_t exceptions = 0;
  uint64_t dropped_by_limit = 0;
  double serialize_seconds = 0.0;  // building trace records
  double append_seconds = 0.0;     // producer-side TraceSink::Append calls
  uint64_t trace_bytes = 0;
  uint64_t store_appends = 0;
  uint64_t store_flushes = 0;
  /// Async (spooling) sink accounting. With the sync sink, append_seconds is
  /// the store-write time and these stay zero; with the async sink,
  /// append_seconds is only the enqueue cost on the BSP critical path and
  /// flush_seconds is the store-write time paid on the background flusher.
  bool async_sink = false;
  double flush_seconds = 0.0;
  uint64_t spool_batches = 0;
  uint64_t spool_max_queue_depth = 0;
  uint64_t spool_backpressure_waits = 0;

  /// Capture cost on the BSP critical path. Background flush time is
  /// deliberately excluded: it overlaps compute, which is the point of the
  /// async sink.
  double OverheadSeconds() const { return serialize_seconds + append_seconds; }
};

/// BSP-sanitizer accounting (DESIGN.md §9): contract violations found by the
/// analysis layer, broken down by rule, plus the measured cost of the
/// determinism re-execution probes — the analysis analogue of
/// CaptureProfile's capture-overhead accounting.
struct AnalysisProfile {
  bool enabled = false;
  bool fail_on_violation = false;
  uint64_t findings_total = 0;
  /// (FindingKindName, count) for every kind with at least one finding.
  std::vector<std::pair<std::string, uint64_t>> findings_by_kind;
  uint64_t determinism_probes = 0;
  uint64_t determinism_mismatches = 0;
  double probe_seconds = 0.0;
};

/// One recovery: either the JobRunner restarted the whole job from a
/// checkpoint after a retryable (kUnavailable) failure, or — in delta
/// checkpoint mode — the engine rebuilt a single failed partition in place
/// (confined recovery) while the healthy partitions kept their state.
struct RecoveryEvent {
  int attempt = 0;                // 1-based retry attempt number (0 when
                                  // the recovery was confined in-engine)
  int64_t restored_superstep = 0; // superstep the checkpoint resumed at
  std::string cause;              // status message of the failure recovered
  double restore_seconds = 0.0;   // time spent rebuilding engine state
  bool confined = false;          // true: only one partition recomputed
  int partition = -1;             // the rebuilt partition (confined only)
};

/// Checkpoint/recovery accounting for one job (DESIGN.md "Fault tolerance &
/// recovery"): what checkpointing cost, and every recovery the JobRunner or
/// engine performed. Checkpoint counters are cumulative across recovery
/// attempts. In delta mode `checkpoint_bytes` covers only the per-checkpoint
/// value deltas + meta; the once-per-epoch topology stream and the
/// continuous outbox log are accounted separately so the per-superstep
/// checkpoint cost is visible on its own.
struct RecoveryProfile {
  bool checkpoints_enabled = false;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;     // serialized payload bytes
  double checkpoint_seconds = 0.0;   // wall time inside checkpoint writes
  double restore_seconds = 0.0;      // wall time inside checkpoint restores
  uint64_t topology_bytes = 0;       // delta mode: packed-edge parts written
  uint64_t log_bytes = 0;            // delta mode: outbox log records
  uint64_t confined_recoveries = 0;  // in-engine single-partition rebuilds
  uint64_t recoveries = 0;           // == events.size()
  std::vector<RecoveryEvent> events;
};

/// Machine-readable profile of one Engine::Run(): per-worker x per-superstep
/// phase timings plus capture-overhead accounting. Attached to JobStats.
struct RunReport {
  std::string job_id;
  int num_workers = 0;
  int64_t supersteps = 0;
  double total_seconds = 0.0;
  /// Execution backend (DESIGN.md §15): "inproc", the shared-memory
  /// thread pool.
  std::string transport = "inproc";
  std::vector<SuperstepProfile> per_superstep;
  CaptureProfile capture;
  AnalysisProfile analysis;
  RecoveryProfile recovery;

  // -- aggregates over per_superstep --
  double TotalComputeWallSeconds() const;
  double TotalDeliveryWallSeconds() const;
  double TotalMasterSeconds() const;
  double TotalMutationSeconds() const;
  double TotalAggregatorMergeSeconds() const;
  /// Sum of every worker's barrier-wait seconds (idle-time integral).
  double TotalBarrierWaitSeconds() const;
  double MaxSuperstepSeconds() const;

  /// Serializes the full report (reuses common/json_writer).
  void AppendJson(JsonWriter* writer) const;
  std::string ToJson() const;

  /// Prometheus text exposition of the report's aggregate series, labelled
  /// with the job id.
  std::string ToPrometheusText(std::string_view prefix = "graft_") const;
};

}  // namespace obs
}  // namespace graft

#endif  // GRAFT_OBS_RUN_REPORT_H_
