#ifndef GRAFT_PREGEL_ENGINE_H_
#define GRAFT_PREGEL_ENGINE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/flat_index.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "io/trace_sink.h"
#include "obs/event_journal.h"
#include "obs/job_registry.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pregel/checkpoint.h"
#include "pregel/computation.h"
#include "pregel/compute_context.h"
#include "pregel/job_stats.h"
#include "pregel/master.h"
#include "pregel/message_store.h"
#include "pregel/phase.h"
#include "pregel/vertex.h"

namespace graft {
namespace pregel {

/// Multi-threaded BSP engine implementing the Pregel/Giraph execution
/// contract (DESIGN.md §4): hash-partitioned vertices across worker threads,
/// supersteps separated by barriers, messages sent in superstep S delivered
/// in S+1 (optionally combined), aggregators merged at superstep boundaries,
/// an optional master.compute() at the beginning of every superstep, vote-to-
/// halt termination, and Pregel-style topology mutation between supersteps.
///
/// This is the paper's "Apache Giraph" substrate: worker tasks on cluster
/// machines become worker threads, with identical superstep semantics
/// (DESIGN.md substitutions table).
///
/// Hot-path architecture (the Figure 7 denominator — DESIGN.md §4):
///  * a persistent WorkerPool executes both parallel phases of every
///    superstep on the same parked threads (no per-phase thread spawn/join);
///  * messages move through a double-buffered, chunk-backed MessageStore
///    with sender-side combining when Options::combiner is set;
///  * graph totals and the vote-to-halt termination check are maintained
///    incrementally per partition (alive/edge/awake counters updated during
///    compute and mutation), so no per-superstep O(V) scan remains.
///
/// The implementation is split into phase-scoped headers included at the
/// bottom of this file:
///  * engine_contexts.h   — the WorkerCtx/MasterCtx/ReplayCtx context classes
///  * engine_superstep.h  — the superstep loop, delivery, and compute phases
///  * engine_checkpoint.h — checkpoint write/restore and confined recovery
template <JobTraits Traits>
class Engine {
 public:
  using VertexT = Vertex<Traits>;
  using VertexValue = typename Traits::VertexValue;
  using EdgeValue = typename Traits::EdgeValue;
  using Message = typename Traits::Message;
  using Combiner = std::function<Message(const Message&, const Message&)>;

  struct Options {
    /// Worker threads (Giraph worker tasks).
    int num_workers = 2;
    /// Safety cap; the MWM scenario (§4.3) relies on jobs that do NOT
    /// converge, so the cap is what ends them.
    int64_t max_supersteps = 1'000'000;
    /// Job seed: all randomness (vertex RNG streams, master RNG) derives
    /// from it, making whole runs reproducible.
    uint64_t seed = 0x6a0b5eedULL;
    /// Pregel semantics for messages sent to nonexistent vertex ids: create
    /// the vertex with `default_vertex_value` (Giraph's default resolver) or
    /// silently drop and count (what MWM wants after removing vertices).
    bool create_missing_vertices = false;
    VertexValue default_vertex_value{};
    /// Optional message combiner (associative + commutative). When set, the
    /// engine combines on the sender side: each worker folds its sends into
    /// one slot per destination vertex, and delivery merges at most
    /// num_workers partials per vertex.
    Combiner combiner;
    std::string job_id = "job";
    /// Optional shared metrics registry. When set, the engine records its
    /// phase-latency histograms and counters there (so one registry can
    /// collect engine + trace-store + capture metrics for a whole debugged
    /// run); when null the engine uses a private registry. Either way the
    /// JobStats::report carries the structured per-superstep profile.
    obs::MetricsRegistry* metrics = nullptr;
    /// Superstep checkpointing (DESIGN.md "Fault tolerance & recovery");
    /// disabled unless interval > 0 and a store is set. Application code
    /// should configure this through JobSpec, which defaults the store.
    CheckpointOptions checkpoint;
    /// Computation factory for confined recovery's replay loop (delta mode).
    /// JobRunner points this at the raw user computation: replaying through
    /// the capture-instrumented wrapper would re-record traces the store
    /// already holds. Null falls back to the engine's main factory.
    ComputationFactory<Traits> replay_computation;
    /// Optional deterministic fault injector consulted at the start of each
    /// worker's compute and delivery slice. Injected faults abort the run
    /// with Status::Unavailable — the retryable class JobRunner recovers
    /// from. Store-level faults are injected via FaultInjectingTraceStore.
    FaultInjector* fault_injector = nullptr;
    /// Optional phase clock the engine stamps at every barrier-cycle
    /// transition (setup, mutation, delivery, master, compute, merge). The
    /// BspSanitizer's checked contexts read it to validate aggregator access
    /// timing. Null (the default) skips all stamping — the release path
    /// pays one pointer test per phase, nothing per vertex or message.
    PhaseClock* phase_clock = nullptr;
    /// Optional structured event journal (DESIGN.md §11). When set, the
    /// engine emits span events per phase and per worker slice — O(workers)
    /// events per superstep, nothing per vertex or message. Null (the
    /// default) costs one pointer test per phase.
    obs::EventJournal* journal = nullptr;
    /// Optional live-progress sink: when set, the engine publishes a
    /// RunReport snapshot at every superstep barrier so the telemetry
    /// server's /jobs/<id>/report advances while the job runs. Application
    /// code configures this through JobSpec::telemetry.
    obs::JobEntry* telemetry = nullptr;
  };

  /// Observes superstep boundaries; Graft's capture manager subscribes to
  /// record master contexts and per-superstep metadata without the engine
  /// knowing anything about the debugger.
  class SuperstepObserver {
   public:
    virtual ~SuperstepObserver() = default;
    /// After mutation application + message delivery, before master runs.
    /// `aggs` are the values the master (and then vertices) will see.
    virtual void OnSuperstepStart(int64_t superstep,
                                  const std::map<std::string, AggValue>& aggs) {
      (void)superstep;
      (void)aggs;
    }
    /// After master.compute() for `superstep` returned.
    virtual void OnMasterComputed(int64_t superstep,
                                  const std::map<std::string, AggValue>& aggs,
                                  bool master_halted) {
      (void)superstep;
      (void)aggs;
      (void)master_halted;
    }
    virtual void OnSuperstepEnd(int64_t superstep,
                                const SuperstepStats& stats) {
      (void)superstep;
      (void)stats;
    }
    /// After a checkpoint for `superstep` was committed. The capture layer
    /// snapshots its counters here so a recovery can rewind them to the
    /// checkpoint's state.
    virtual void OnCheckpoint(int64_t superstep) { (void)superstep; }
  };

  Engine(Options options, std::vector<VertexT> initial_vertices,
         ComputationFactory<Traits> computation_factory,
         MasterFactory master_factory = nullptr)
      : options_(std::move(options)),
        computation_factory_(std::move(computation_factory)),
        pool_(options_.num_workers) {
    GRAFT_CHECK(options_.num_workers >= 1);
    GRAFT_CHECK(computation_factory_ != nullptr);
    if (master_factory) master_ = master_factory();
    partitions_.resize(static_cast<size_t>(options_.num_workers));
    part_base_superstep_.assign(partitions_.size(), 0);
    msg_store_.Configure(options_.num_workers, options_.combiner);
    if (options_.checkpoint.enabled()) {
      TraceSinkOptions sink_options;
      sink_options.async = options_.checkpoint.async_parts;
      sink_options.journal = options_.journal;
      ckpt_sink_ = MakeTraceSink(options_.checkpoint.store, sink_options);
    }
    for (VertexT& v : initial_vertices) {
      AddVertexInternal(std::move(v));
    }
    metrics_ = options_.metrics != nullptr ? options_.metrics : &own_metrics_;
    const std::vector<double> bounds = obs::DefaultLatencyBounds();
    hist_compute_ = metrics_->GetHistogram("engine.compute_seconds", bounds,
                                           options_.num_workers);
    hist_delivery_ = metrics_->GetHistogram("engine.delivery_seconds", bounds,
                                            options_.num_workers);
    hist_barrier_wait_ = metrics_->GetHistogram("engine.barrier_wait_seconds",
                                                bounds, options_.num_workers);
    hist_mutation_ = metrics_->GetHistogram("engine.mutation_seconds", bounds);
    hist_master_ = metrics_->GetHistogram("engine.master_seconds", bounds);
    hist_agg_merge_ =
        metrics_->GetHistogram("engine.aggregator_merge_seconds", bounds);
    hist_superstep_ =
        metrics_->GetHistogram("engine.superstep_seconds", bounds);
    ctr_supersteps_ = metrics_->GetCounter("engine.supersteps_total");
    ctr_messages_ = metrics_->GetCounter("engine.messages_sent_total");
    ctr_dropped_ = metrics_->GetCounter("engine.messages_dropped_total");
    ctr_vertices_computed_ =
        metrics_->GetCounter("engine.vertices_computed_total");
    gauge_pool_threads_ = metrics_->GetGauge("engine.pool.threads");
    gauge_pool_phases_ = metrics_->GetGauge("engine.pool.parallel_phases");
    ctr_checkpoints_ = metrics_->GetCounter("engine.checkpoints_total");
    ctr_checkpoint_bytes_ =
        metrics_->GetCounter("engine.checkpoint_bytes_total");
    gauge_checkpoint_seconds_ =
        metrics_->GetGauge("engine.checkpoint_seconds");
    gauge_restore_seconds_ = metrics_->GetGauge("engine.restore_seconds");
    ctr_topology_bytes_ = metrics_->GetCounter("engine.topology_bytes_total");
    ctr_log_bytes_ = metrics_->GetCounter("engine.outbox_log_bytes_total");
    ctr_confined_recoveries_ =
        metrics_->GetCounter("engine.confined_recoveries_total");
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the job to termination. Returns per-superstep statistics, or
  /// Status::Aborted when an exception escaped Compute() (the vertex and
  /// superstep are named in the message; any Graft traces written up to the
  /// failure remain readable — that is the point of the debugger).
  Result<JobStats> Run();

  // ---- Post-run / observer inspection -----------------------------------

  int64_t superstep() const { return superstep_; }
  uint64_t NumAliveVertices() const { return total_vertices_; }
  uint64_t NumEdges() const { return total_edges_; }
  const Options& options() const { return options_; }

  /// Pointer to a live vertex, or error when absent/removed. Stable only
  /// while the engine is not running a superstep.
  Result<const VertexT*> FindVertex(VertexId id) const {
    const Partition& p = partitions_[PartitionOf(id)];
    const uint32_t slot = p.index.Find(id);
    if (slot == FlatIndex::kNotFound || !p.vertices[slot].alive()) {
      return Status::NotFound("vertex " + std::to_string(id) +
                              " not in graph");
    }
    return &p.vertices[slot];
  }

  /// Invokes fn(const VertexT&) on every live vertex.
  template <typename Fn>
  void ForEachVertex(Fn&& fn) const {
    for (const Partition& p : partitions_) {
      for (const VertexT& v : p.vertices) {
        if (v.alive()) fn(v);
      }
    }
  }

  /// Aggregator values as of the last completed superstep.
  const std::map<std::string, AggValue>& VisibleAggregators() const {
    return visible_aggregators_;
  }

  void AddObserver(SuperstepObserver* observer) {
    observers_.push_back(observer);
  }

  /// Records an infrastructure failure (injected fault, capture I/O error)
  /// and asks the run to wind down: Run() returns `status` at the next
  /// abort checkpoint. First abort wins. Thread-safe — callable from worker
  /// threads and observers.
  void RequestAbort(Status status) {
    GRAFT_CHECK(!status.ok());
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (!abort_status_.has_value()) abort_status_ = std::move(status);
    }
    has_abort_.store(true, std::memory_order_relaxed);
  }

  /// Rebuilds this engine from the committed checkpoint `superstep` written
  /// by a previous engine of the same job (same num_workers, job_id, seed,
  /// combiner — partition assignment must match or restore fails). The
  /// engine must be freshly constructed with no vertices. On success, Run()
  /// resumes by executing `superstep` against the restored inboxes and
  /// reports whole-job statistics including the restored prefix.
  Status RestoreFromCheckpoint(int64_t superstep);

  // Checkpoint accounting, readable even after Run() returned an error (a
  // failed Result carries no JobStats — JobRunner folds these into the
  // final attempt's recovery profile).
  uint64_t checkpoints_written() const { return ckpt_written_; }
  uint64_t checkpoint_bytes() const { return ckpt_bytes_; }
  double checkpoint_seconds() const { return ckpt_seconds_; }
  double restore_seconds() const { return restore_seconds_; }
  bool recovered() const { return recovered_; }
  int64_t resume_superstep() const { return resume_superstep_; }
  // Delta-mode accounting (zero in full mode).
  uint64_t topology_bytes() const { return topology_bytes_; }
  uint64_t outbox_log_bytes() const {
    return log_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t confined_recoveries() const { return confined_recoveries_; }
  /// Total vertex Compute() calls executed by confined-recovery replay —
  /// the recompute the rest of the cluster did NOT have to do is everything
  /// outside this count. Tests assert healthy partitions contribute zero.
  uint64_t confined_replayed_vertices() const {
    return confined_replayed_vertices_;
  }
  const std::vector<obs::RecoveryEvent>& confined_recovery_events() const {
    return confined_events_;
  }

  /// The registry this engine records into (Options::metrics when supplied,
  /// otherwise the engine's private registry).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Stable partition (worker) assignment of a vertex id.
  size_t PartitionOf(VertexId id) const {
    return PartitionOfHash(Mix64(static_cast<uint64_t>(id)));
  }

  /// Partition assignment from an already-mixed hash: multiply-shift range
  /// reduction (hash * P / 2^64) instead of `hash % P` — no integer divide
  /// on the per-message routing path.
  size_t PartitionOfHash(uint64_t hash) const {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(hash) *
         static_cast<uint64_t>(options_.num_workers)) >>
        64);
  }

  /// Recounts alive vertices, live edges, and awake (non-halted) vertices
  /// with a full scan and compares against the incremental per-partition
  /// counters. Test/debug hook — the hot path never calls this; it is how
  /// the topology-mutation consistency tests prove the incremental
  /// bookkeeping right. Safe to call between supersteps (e.g. from a
  /// SuperstepObserver) or after Run().
  Status ValidateCountersByFullScan() const {
    for (size_t pi = 0; pi < partitions_.size(); ++pi) {
      const Partition& p = partitions_[pi];
      uint64_t alive = 0;
      uint64_t edges = 0;
      uint64_t awake = 0;
      for (const VertexT& v : p.vertices) {
        if (!v.alive()) continue;
        ++alive;
        edges += v.num_edges();
        if (!v.halted()) ++awake;
      }
      if (alive != p.alive_count || edges != p.edge_count ||
          awake != p.awake_count) {
        return Status::Internal(StrFormat(
            "partition %zu counter drift: alive %llu/%llu edges %llu/%llu "
            "awake %llu/%llu (counted/scanned)",
            pi, static_cast<unsigned long long>(p.alive_count),
            static_cast<unsigned long long>(alive),
            static_cast<unsigned long long>(p.edge_count),
            static_cast<unsigned long long>(edges),
            static_cast<unsigned long long>(p.awake_count),
            static_cast<unsigned long long>(awake)));
      }
    }
    return Status::OK();
  }

 private:
  struct Partition {
    std::vector<VertexT> vertices;
    FlatIndex index;  // id -> slot in `vertices`; slots are never unmapped
    // Incremental bookkeeping, owned by the partition's worker during
    // parallel phases and by the engine thread between them: counts over
    // alive vertices only. `awake_count` is the number of alive vertices
    // with halted()==false — the vote-to-halt half of the termination
    // check.
    uint64_t alive_count = 0;
    uint64_t edge_count = 0;
    uint64_t awake_count = 0;
    /// Delta checkpointing: true when any vertex state changed since this
    /// partition's last value part was written. Clean partitions ride a
    /// checkpoint header-only — the meta points at their previous part.
    bool dirty = true;
  };

  struct MutationBuffer {
    std::vector<VertexId> remove_vertices;
    std::vector<std::tuple<VertexId, VertexId, EdgeValue>> add_edges;
    std::vector<std::pair<VertexId, VertexId>> remove_edges;

    bool Empty() const {
      return remove_vertices.empty() && add_edges.empty() &&
             remove_edges.empty();
    }
    void Clear() {
      remove_vertices.clear();
      add_edges.clear();
      remove_edges.clear();
    }
  };

  /// One staged (not-yet-routed) message. Sends are buffered per worker in
  /// batches of kSendBatch and routed together: the batch loop computes all
  /// the partition hashes first and prefetches the index cells and combining
  /// slots, so the per-message cache misses overlap instead of serializing.
  struct StagedSend {
    VertexId target;
    Message message;
  };
  static constexpr size_t kSendBatch = 64;

  // Engine-side context implementations, defined in engine_contexts.h.
  class WorkerCtx;
  class MasterCtx;
  class ReplayCtx;

  // ---- Superstep-loop phases (engine_superstep.h) -----------------------

  /// Routes one batch of staged messages from `sender`'s compute thread into
  /// the message store, in send order (see engine_superstep.h).
  void FlushSends(int sender, std::vector<StagedSend>* batch);

  /// Flags the topology as changed at the current superstep. Every effective
  /// mutation path funnels through here; delta checkpoints key their
  /// once-per-epoch topology rewrite on it, and confined recovery refuses a
  /// replay window that contains a change (the window must be slot-stable).
  void MarkTopologyChanged() {
    topology_changed_.store(true, std::memory_order_relaxed);
    last_topology_change_superstep_.store(superstep_,
                                          std::memory_order_relaxed);
  }

  void AddVertexInternal(VertexT vertex);
  void ApplyMutations(std::vector<WorkerCtx>& contexts, SuperstepStats* ss);
  VertexT* FindMutableVertex(VertexId id);

  /// Drains the message store into this superstep's inboxes on the worker
  /// pool; returns the number of messages delivered into inboxes — the
  /// "messages in flight" half of the termination check.
  uint64_t DeliverMessages(SuperstepStats* ss, obs::SuperstepProfile* prof);

  /// O(workers) totals refresh from the incremental partition counters.
  void UpdateTotalsFromPartitions() {
    uint64_t vertices = 0;
    uint64_t edges = 0;
    for (const Partition& p : partitions_) {
      vertices += p.alive_count;
      edges += p.edge_count;
    }
    total_vertices_ = vertices;
    total_edges_ = edges;
  }

  /// True when any vertex will run Compute() this superstep: a message was
  /// delivered into an inbox, or some alive vertex has not voted to halt.
  /// O(workers); replaces the former full-graph scan.
  bool AnyVertexActive(uint64_t delivered_messages) const {
    if (delivered_messages > 0) return true;
    for (const Partition& p : partitions_) {
      if (p.awake_count > 0) return true;
    }
    return false;
  }

  void RunWorker(WorkerCtx* ctx, Computation<Traits>* computation,
                 SuperstepStats* ss, obs::WorkerPhaseProfile* wp);

  /// Publishes a barrier-granularity RunReport snapshot to the telemetry
  /// entry (see engine_superstep.h).
  static constexpr size_t kLiveProgressTail = 32;
  void PublishProgress(const JobStats& stats, const Stopwatch& total_clock);

  /// One relaxed-cost pointer test when the sanitizer is off; the stamp is
  /// only ~7 atomic stores per superstep when it is on.
  void StampPhase(EnginePhase phase, int64_t superstep) {
    if (options_.phase_clock != nullptr) {
      options_.phase_clock->Set(phase, superstep);
    }
  }

  Status TakeAbortStatus();
  void RecordComputeError(VertexId id, const std::string& what);
  void MergeAggregators(std::vector<WorkerCtx>& contexts);
  void ResetVisibleAggregators(
      const std::map<std::string, AggValue>& previous_merged);
  void RecordPartialSuperstep(JobStats* stats, SuperstepStats* ss,
                              obs::SuperstepProfile* prof,
                              const Stopwatch& superstep_clock);
  void FinalizeStats(JobStats* stats, const Stopwatch& clock);
  void RecordSuperstepMetrics(const obs::SuperstepProfile& prof,
                              const SuperstepStats& ss);

  // ---- Checkpoint / restore / confined recovery (engine_checkpoint.h) ---

  bool UseConfinedRecovery() const {
    return options_.checkpoint.enabled() && options_.checkpoint.delta();
  }

  Status WriteCheckpoint(int64_t superstep, uint64_t delivered,
                         uint64_t dropped, const JobStats& stats);
  Status WriteTopologyEpochIfChanged();
  Status FinishPendingCheckpoint();
  void DiscardPendingCheckpoint();
  Status AppendOutboxLog(int part);
  Status AppendAggLog();
  Status ReplayLogIntoPartition(int64_t s, int part, uint64_t* delivered,
                                uint64_t* dropped);
  Status RestorePartitionDelta(int part, int64_t epoch, int64_t base);
  Status RestoreDelta(int64_t superstep, const CheckpointMeta& meta);
  Status DeleteOutboxLogsAfter(int64_t checkpoint);
  Status ConfinedRecover(int part);
  Status ReplayPartitionCompute(int part, Computation<Traits>* computation,
                                ReplayCtx* ctx);

  // ---- State ------------------------------------------------------------

  Options options_;
  ComputationFactory<Traits> computation_factory_;
  std::unique_ptr<MasterCompute> master_;
  WorkerPool pool_;
  MessageStore<Message> msg_store_;
  std::vector<Partition> partitions_;
  std::vector<SuperstepObserver*> observers_;

  std::unordered_map<std::string, AggregatorSpec> aggregator_specs_;
  std::map<std::string, AggValue> visible_aggregators_;

  int64_t superstep_ = 0;
  uint64_t total_vertices_ = 0;
  uint64_t total_edges_ = 0;
  bool master_halted_ = false;

  std::mutex stats_mutex_;
  std::optional<std::string> compute_error_;
  std::atomic<bool> has_compute_error_{false};
  std::optional<Status> abort_status_;  // guarded by stats_mutex_
  std::atomic<bool> has_abort_{false};

  // Checkpoint/recovery state. `restored_*` carry checkpointed state from
  // RestoreFromCheckpoint into Run(); the rest is accounting surfaced via
  // the run report and the post-run accessors.
  int64_t resume_superstep_ = 0;
  bool recovered_ = false;
  uint64_t restored_pending_ = 0;
  uint64_t restored_dropped_ = 0;
  std::map<std::string, AggValue> restored_aggregators_;
  std::vector<SuperstepStats> restored_per_superstep_;
  uint64_t restored_total_messages_ = 0;
  uint64_t restored_total_messages_dropped_ = 0;
  uint64_t ckpt_written_ = 0;
  uint64_t ckpt_bytes_ = 0;
  double ckpt_seconds_ = 0.0;
  double restore_seconds_ = 0.0;

  // Delta-checkpoint + outbox-log state (DESIGN.md §12). The sink spools
  // checkpoint parts, topology parts, and outbox-log records off the
  // barrier; COMMIT waits on Quiesce. `topology_epoch_` versions the
  // packed-edge stream; a bump forces every partition dirty so the next
  // delta checkpoint re-bases on the new epoch. `part_base_superstep_`
  // records, per partition, the checkpoint whose value part last covered
  // it (header-only deltas for clean partitions point backwards).
  static constexpr uint8_t kOutboxLogVersion = 1;
  std::unique_ptr<TraceSink> ckpt_sink_;
  int64_t topology_epoch_ = -1;
  std::atomic<bool> topology_changed_{true};
  std::atomic<int64_t> last_topology_change_superstep_{-1};
  std::vector<int64_t> part_base_superstep_;
  int64_t last_committed_checkpoint_ = -1;
  bool pending_checkpoint_ = false;
  int64_t pending_checkpoint_superstep_ = -1;
  uint64_t pending_checkpoint_bytes_ = 0;
  double pending_checkpoint_seconds_ = 0.0;
  uint64_t topology_bytes_ = 0;
  std::atomic<uint64_t> log_bytes_{0};
  uint64_t confined_recoveries_ = 0;
  uint64_t confined_replayed_vertices_ = 0;
  std::vector<obs::RecoveryEvent> confined_events_;

  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* hist_compute_ = nullptr;
  obs::Histogram* hist_delivery_ = nullptr;
  obs::Histogram* hist_barrier_wait_ = nullptr;
  obs::Histogram* hist_mutation_ = nullptr;
  obs::Histogram* hist_master_ = nullptr;
  obs::Histogram* hist_agg_merge_ = nullptr;
  obs::Histogram* hist_superstep_ = nullptr;
  obs::Counter* ctr_supersteps_ = nullptr;
  obs::Counter* ctr_messages_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::Counter* ctr_vertices_computed_ = nullptr;
  obs::Gauge* gauge_pool_threads_ = nullptr;
  obs::Gauge* gauge_pool_phases_ = nullptr;
  obs::Counter* ctr_checkpoints_ = nullptr;
  obs::Counter* ctr_checkpoint_bytes_ = nullptr;
  obs::Gauge* gauge_checkpoint_seconds_ = nullptr;
  obs::Gauge* gauge_restore_seconds_ = nullptr;
  obs::Counter* ctr_topology_bytes_ = nullptr;
  obs::Counter* ctr_log_bytes_ = nullptr;
  obs::Counter* ctr_confined_recoveries_ = nullptr;
};

}  // namespace pregel
}  // namespace graft

// Out-of-line member definitions, phase-scoped. Each header is standalone
// includable (it includes engine.h back; the include guard above breaks the
// cycle).
#include "pregel/engine_contexts.h"    // IWYU pragma: keep
#include "pregel/engine_superstep.h"   // IWYU pragma: keep
#include "pregel/engine_checkpoint.h"  // IWYU pragma: keep

#endif  // GRAFT_PREGEL_ENGINE_H_
