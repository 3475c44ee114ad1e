#ifndef GRAFT_DEBUG_CAPTURE_MANAGER_H_
#define GRAFT_DEBUG_CAPTURE_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/stopwatch.h"
#include "debug/debug_config.h"
#include "debug/vertex_trace.h"
#include "io/trace_sink.h"
#include "io/trace_store.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pregel/vertex.h"

namespace graft {
namespace analysis {
class Predicate;  // analysis/predicate.h; stored by pointer only
}  // namespace analysis

namespace debug {

/// Trace-file naming convention inside the TraceStore (the stand-in for the
/// paper's HDFS trace directory).
std::string VertexTraceFile(const std::string& job_id, int64_t superstep,
                            int worker);
std::string MasterTraceFile(const std::string& job_id, int64_t superstep);
std::string JobTracePrefix(const std::string& job_id);

/// Point-in-time copy of a CaptureManager's counters. JobRunner snapshots
/// these at every checkpoint boundary and rewinds the manager on recovery,
/// so the summary of a recovered run counts each capture exactly once. The
/// sink's per-job I/O stats ride along under the same protocol — without
/// them a recovered run double-counts the failed attempt's appends and
/// serialize/append seconds (ISSUE 5 satellite 3).
struct CaptureCounters {
  uint64_t captures = 0;
  uint64_t master_captures = 0;
  uint64_t violations = 0;
  uint64_t exceptions = 0;
  uint64_t dropped_by_limit = 0;
  uint64_t breakpoint_hits = 0;
  double serialize_seconds = 0.0;
  TraceSinkStats sink;  // carries the producer-side append/flush accounting

  friend bool operator==(const CaptureCounters&,
                         const CaptureCounters&) = default;
};

/// Deletes every trace file of `job_id` for supersteps >= `superstep`. Run
/// before re-executing from a checkpoint so the recovered run's re-captures
/// append into empty files instead of duplicating records. The manifest file
/// lives outside the superstep_* layout and survives this.
Status PruneTracesFrom(TraceStore& store, const std::string& job_id,
                       int64_t superstep);

/// Per-debug-run shared state: the resolved capture target set (specified +
/// random + their neighbors), the capture counters, the manifest index under
/// construction, and the trace sink all appends go through. Thread-safe:
/// worker threads consult the (immutable after Prepare) target set, append
/// through the sink, and index into their own per-worker manifest slot.
template <pregel::JobTraits Traits>
class CaptureManager {
 public:
  /// Captures flow through `sink` (not owned; must outlive the manager) and
  /// a manifest index is built with one contention-free slot per worker plus
  /// one for the master.
  CaptureManager(TraceStore* store, TraceSink* sink,
                 const DebugConfig<Traits>* config, std::string job_id,
                 int num_workers)
      : store_(store),
        sink_(sink),
        config_(config),
        job_id_(std::move(job_id)),
        num_workers_(num_workers),
        manifest_slots_(static_cast<size_t>(num_workers) + 1) {
    InitFromConfig();
  }

  CaptureManager(const CaptureManager&) = delete;
  CaptureManager& operator=(const CaptureManager&) = delete;

  /// Resolves categories 1 and 2 against the loaded graph: picks the random
  /// sample, then expands the base set with out-neighbors when requested.
  /// Call once, after graph load and before Engine::Run.
  void PrepareTargets(const std::vector<pregel::Vertex<Traits>>& vertices) {
    targets_.clear();
    for (VertexId id : config_->VerticesToCapture()) {
      targets_[id] |= kReasonSpecified;
    }
    int num_random = config_->NumRandomVerticesToCapture();
    if (num_random > 0 && !vertices.empty()) {
      // Reservoir-free sampling: draw distinct indices.
      Rng rng(Mix64(config_->RandomSeed() ^ 0x5a3bULL));
      std::unordered_map<size_t, bool> chosen;
      size_t want = std::min(static_cast<size_t>(num_random), vertices.size());
      while (chosen.size() < want) {
        chosen.emplace(static_cast<size_t>(rng.NextBounded(vertices.size())),
                       true);
      }
      for (const auto& [index, unused] : chosen) {
        (void)unused;
        targets_[vertices[index].id()] |= kReasonRandom;
      }
    }
    if (config_->CaptureNeighborsOfVertices() && !targets_.empty()) {
      std::vector<VertexId> neighbors;
      for (const auto& v : vertices) {
        auto it = targets_.find(v.id());
        if (it == targets_.end() ||
            (it->second & (kReasonSpecified | kReasonRandom)) == 0) {
          continue;
        }
        for (const auto& e : v.edges()) neighbors.push_back(e.target);
      }
      for (VertexId n : neighbors) targets_[n] |= kReasonNeighbor;
    }
  }

  /// Reason bits from categories 1/2 (+neighbors) for this vertex, or 0.
  uint32_t TargetReasons(VertexId id) const {
    auto it = targets_.find(id);
    return it == targets_.end() ? 0 : it->second;
  }

  const DebugConfig<Traits>& config() const { return *config_; }
  const std::string& job_id() const { return job_id_; }
  TraceSink* sink() const { return sink_; }

  bool has_message_constraint() const { return has_message_constraint_; }
  bool has_vertex_value_constraint() const {
    return has_vertex_value_constraint_;
  }
  bool capture_all_active() const { return capture_all_active_; }

  /// Arms a conditional breakpoint (DESIGN.md §14). `predicate` is not
  /// owned and must outlive the manager; null disarms. Call before
  /// Engine::Run — the pointer is read without synchronization by worker
  /// threads.
  void ArmBreakpoint(const analysis::Predicate* predicate) {
    breakpoint_ = predicate;
  }
  const analysis::Predicate* breakpoint() const { return breakpoint_; }

  /// Accounts one vertex.compute() call that satisfied the armed
  /// breakpoint. Counted for every hit, including ones whose capture was
  /// then dropped by the limit — the minimizer's oracle needs the true
  /// count, not the recorded one.
  void CountBreakpointHit() {
    breakpoint_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t num_breakpoint_hits() const {
    return breakpoint_hits_.load(std::memory_order_relaxed);
  }

  /// True while the safety-net threshold has not been reached.
  bool UnderCaptureLimit() const {
    return captures_.load(std::memory_order_relaxed) < max_captures_;
  }

  /// Accounts a capture that was skipped because the threshold was hit.
  void CountSkippedByLimit() {
    dropped_by_limit_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one finished vertex record (if still under the limit) to
  /// `worker`'s trace file. Returns whether it was written, or the sink's
  /// error — capture I/O failures are part of the run's outcome, not a
  /// log-and-continue event. With an async sink "written" means accepted for
  /// flushing; a deferred store failure surfaces at the next append or
  /// superstep-barrier quiesce. `build_seconds`, the time spent building the
  /// record, is accounted as serialize time.
  Result<bool> RecordVertex(const VertexRecordBuilder<Traits>& record,
                            int worker, double build_seconds) {
    GRAFT_CHECK(worker >= 0 && worker < num_workers_);
    uint64_t n = captures_.fetch_add(1, std::memory_order_relaxed);
    if (n >= max_captures_) {
      captures_.fetch_sub(1, std::memory_order_relaxed);
      ++dropped_by_limit_;
      return false;
    }
    obs::AtomicDoubleAdd(&serialize_seconds_, build_seconds);
    ManifestSlot& slot = manifest_slots_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.file_superstep != record.superstep()) {
      slot.file = VertexTraceFile(job_id_, record.superstep(), worker);
      slot.file_superstep = record.superstep();
    }
    Status append = sink_->Append(slot.file, record.record());
    if (!append.ok()) {
      // The record never reached the sink; undo the reservation so the
      // counters only ever count accepted captures.
      captures_.fetch_sub(1, std::memory_order_relaxed);
      return append;
    }
    if ((record.reasons() & (kReasonVertexValue | kReasonMessageValue)) !=
        0) {
      violations_.fetch_add(record.num_violations(),
                            std::memory_order_relaxed);
    }
    if (record.has_exception()) {
      exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    IndexRecordLocked(slot, worker, TraceRecordKind::kVertex,
                      record.superstep(), record.id());
    return true;
  }

  Status RecordMasterTrace(const MasterTrace& trace) {
    Stopwatch serialize_clock;
    std::string payload = trace.SerializeFramed();
    obs::AtomicDoubleAdd(&serialize_seconds_,
                         serialize_clock.ElapsedSeconds());
    GRAFT_RETURN_NOT_OK(
        sink_->Append(MasterTraceFile(job_id_, trace.superstep), payload));
    master_captures_.fetch_add(1, std::memory_order_relaxed);
    ManifestSlot& slot = manifest_slots_.back();
    std::lock_guard<std::mutex> lock(slot.mutex);
    IndexRecordLocked(slot, -1, TraceRecordKind::kMaster, trace.superstep, 0);
    return Status::OK();
  }

  /// Counter snapshot/rewind for checkpoint-coordinated recovery. Only
  /// callable between supersteps with the sink quiesced (no concurrent
  /// Record* calls, no in-flight background flushes).
  CaptureCounters SnapshotCounters() const {
    CaptureCounters c;
    c.captures = num_captures();
    c.master_captures = num_master_captures();
    c.violations = num_violations();
    c.exceptions = num_exceptions();
    c.dropped_by_limit = num_dropped_by_limit();
    c.breakpoint_hits = num_breakpoint_hits();
    c.serialize_seconds = serialize_seconds();
    c.sink = sink_->stats();
    return c;
  }
  void RestoreCounters(const CaptureCounters& c) {
    captures_.store(c.captures, std::memory_order_relaxed);
    master_captures_.store(c.master_captures, std::memory_order_relaxed);
    violations_.store(c.violations, std::memory_order_relaxed);
    exceptions_.store(c.exceptions, std::memory_order_relaxed);
    dropped_by_limit_.store(c.dropped_by_limit, std::memory_order_relaxed);
    breakpoint_hits_.store(c.breakpoint_hits, std::memory_order_relaxed);
    serialize_seconds_.store(c.serialize_seconds, std::memory_order_relaxed);
    sink_->RestoreStats(c.sink);
  }

  /// Drops manifest entries for supersteps >= `superstep` and resets the
  /// per-file ordinal trackers. Must accompany PruneTracesFrom on recovery:
  /// pruned files restart at record ordinal 0.
  void RewindManifest(int64_t superstep) {
    for (ManifestSlot& slot : manifest_slots_) {
      std::lock_guard<std::mutex> lock(slot.mutex);
      std::erase_if(slot.entries, [superstep](const TraceManifestEntry& e) {
        return e.superstep >= superstep;
      });
      slot.current_superstep = -1;
      slot.next_index = 0;
    }
  }

  /// Writes the job's manifest index as one framed record to
  /// ManifestFile(job_id). Called once at the end of a successful run, after
  /// the final sink quiesce; entries are emitted in sorted order so the
  /// manifest bytes are deterministic regardless of worker interleaving.
  Status WriteManifest() {
    TraceManifest manifest;
    for (ManifestSlot& slot : manifest_slots_) {
      std::lock_guard<std::mutex> lock(slot.mutex);
      manifest.entries.insert(manifest.entries.end(), slot.entries.begin(),
                              slot.entries.end());
    }
    // A run that captured nothing leaves the store untouched — readers treat
    // an absent manifest and an absent job identically (scan of nothing).
    if (manifest.entries.empty()) return Status::OK();
    std::sort(manifest.entries.begin(), manifest.entries.end());
    return store_->Append(ManifestFile(job_id_), manifest.Serialize());
  }

  uint64_t num_captures() const {
    return captures_.load(std::memory_order_relaxed);
  }
  uint64_t num_violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  uint64_t num_exceptions() const {
    return exceptions_.load(std::memory_order_relaxed);
  }
  uint64_t num_dropped_by_limit() const {
    return dropped_by_limit_.load(std::memory_order_relaxed);
  }
  uint64_t num_master_captures() const {
    return master_captures_.load(std::memory_order_relaxed);
  }
  double serialize_seconds() const {
    return serialize_seconds_.load(std::memory_order_relaxed);
  }

  /// Total bytes of trace data this job has written — the paper's "small
  /// log files" claim is checked against this in the benches.
  uint64_t TraceBytes() const {
    return store_->TotalBytes(JobTracePrefix(job_id_));
  }

  /// Fills the capture half of a run report. The I/O fields come from the
  /// sink's per-job stats, which rewind with the checkpoint protocol — a
  /// recovered run reports each durable append exactly once, where the
  /// store's lifetime io_stats would also count the failed attempt.
  void FillCaptureProfile(obs::CaptureProfile* capture) const {
    capture->enabled = true;
    capture->vertex_captures = num_captures();
    capture->master_captures = num_master_captures();
    capture->violations = num_violations();
    capture->exceptions = num_exceptions();
    capture->dropped_by_limit = num_dropped_by_limit();
    capture->serialize_seconds = serialize_seconds();
    capture->trace_bytes = TraceBytes();
    TraceSinkStats io = sink_->stats();
    capture->append_seconds = io.append_seconds;
    capture->store_appends = io.appends;
    capture->store_flushes = io.flushes;
    capture->async_sink = sink_->async();
    capture->flush_seconds = io.flush_seconds;
    capture->spool_batches = io.batches;
    capture->spool_max_queue_depth = io.max_queue_depth;
    capture->spool_backpressure_waits = io.backpressure_waits;
  }

  /// Copies the capture counters into `registry` as capture.* metrics.
  void ExportMetrics(obs::MetricsRegistry* registry) const {
    registry->GetCounter("capture.vertex_captures_total")
        ->Increment(num_captures());
    registry->GetCounter("capture.master_captures_total")
        ->Increment(num_master_captures());
    registry->GetCounter("capture.violations_total")
        ->Increment(num_violations());
    registry->GetCounter("capture.exceptions_total")
        ->Increment(num_exceptions());
    registry->GetCounter("capture.dropped_by_limit_total")
        ->Increment(num_dropped_by_limit());
    registry->GetCounter("capture.breakpoint_hits_total")
        ->Increment(num_breakpoint_hits());
    registry->GetGauge("capture.serialize_seconds")
        ->Add(serialize_seconds());
    registry->GetGauge("capture.trace_bytes")
        ->Add(static_cast<double>(TraceBytes()));
    TraceSinkStats io = sink_->stats();
    registry->GetGauge("capture.append_seconds")->Add(io.append_seconds);
    registry->GetGauge("capture.flush_seconds")->Add(io.flush_seconds);
    registry->GetCounter("capture.spool_batches_total")
        ->Increment(io.batches);
    registry->GetCounter("capture.spool_backpressure_waits_total")
        ->Increment(io.backpressure_waits);
    registry->GetGauge("capture.spool_max_queue_depth")
        ->Set(static_cast<double>(io.max_queue_depth));
  }

 private:
  /// Manifest entries produced by one writer thread (worker w at index w,
  /// the master at the last index), plus that worker's trace file name for
  /// the superstep it is capturing. The mutex is uncontended in steady
  /// state — only the owner thread appends; Rewind/Write run at barriers.
  struct ManifestSlot {
    std::mutex mutex;
    std::vector<TraceManifestEntry> entries;
    int64_t current_superstep = -1;
    uint64_t next_index = 0;
    int64_t file_superstep = -1;
    std::string file;
  };

  void InitFromConfig() {
    GRAFT_CHECK(store_ != nullptr);
    GRAFT_CHECK(sink_ != nullptr);
    GRAFT_CHECK(config_ != nullptr);
    GRAFT_CHECK(num_workers_ > 0);
    has_message_constraint_ = config_->HasMessageValueConstraint();
    has_vertex_value_constraint_ = config_->HasVertexValueConstraint();
    capture_all_active_ = config_->CaptureAllActiveVertices();
    max_captures_ = config_->MaxCaptures();
  }

  /// Appends the manifest entry of the record just appended through
  /// `slot`'s writer; `worker` is -1 for the master. Requires slot.mutex.
  static void IndexRecordLocked(ManifestSlot& slot, int worker,
                                TraceRecordKind kind, int64_t superstep,
                                VertexId vertex_id) {
    if (slot.current_superstep != superstep) {
      slot.current_superstep = superstep;
      slot.next_index = 0;
    }
    TraceManifestEntry entry;
    entry.kind = kind;
    entry.superstep = superstep;
    entry.vertex_id = vertex_id;
    entry.worker = worker;
    entry.record_index = slot.next_index++;
    slot.entries.push_back(entry);
  }

  TraceStore* store_;
  TraceSink* sink_;
  const DebugConfig<Traits>* config_;
  std::string job_id_;
  int num_workers_ = 1;
  std::vector<ManifestSlot> manifest_slots_;

  std::unordered_map<VertexId, uint32_t> targets_;
  bool has_message_constraint_ = false;
  bool has_vertex_value_constraint_ = false;
  bool capture_all_active_ = false;
  uint64_t max_captures_ = 0;
  const analysis::Predicate* breakpoint_ = nullptr;

  std::atomic<uint64_t> captures_{0};
  std::atomic<uint64_t> master_captures_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> exceptions_{0};
  std::atomic<uint64_t> dropped_by_limit_{0};
  std::atomic<uint64_t> breakpoint_hits_{0};
  std::atomic<double> serialize_seconds_{0.0};
};

inline std::string VertexTraceFile(const std::string& job_id,
                                   int64_t superstep, int worker) {
  return StrFormat("%s/superstep_%06lld/worker_%03d.vtrace", job_id.c_str(),
                   static_cast<long long>(superstep), worker);
}

inline std::string MasterTraceFile(const std::string& job_id,
                                   int64_t superstep) {
  return StrFormat("%s/superstep_%06lld/master.mtrace", job_id.c_str(),
                   static_cast<long long>(superstep));
}

inline std::string JobTracePrefix(const std::string& job_id) {
  return job_id + "/";
}

inline Status PruneTracesFrom(TraceStore& store, const std::string& job_id,
                              int64_t superstep) {
  const std::string prefix = JobTracePrefix(job_id);
  int64_t pruned_dirs = -1;  // dedup: superstep dirs arrive sorted per file
  for (const std::string& file : store.ListFiles(prefix)) {
    const std::string_view rest = std::string_view(file).substr(prefix.size());
    const std::optional<int64_t> s = ParseNumberedDir(rest, "superstep_");
    if (!s.has_value() || *s < superstep || *s == pruned_dirs) continue;
    GRAFT_RETURN_NOT_OK(store.DeletePrefix(
        prefix + std::string(rest.substr(0, rest.find('/') + 1))));
    pruned_dirs = *s;
  }
  return Status::OK();
}

}  // namespace debug
}  // namespace graft

#endif  // GRAFT_DEBUG_CAPTURE_MANAGER_H_
