#ifndef GRAFT_PREGEL_JOB_H_
#define GRAFT_PREGEL_JOB_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/predicate.h"
#include "analysis/sanitizer.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "debug/capture_manager.h"
#include "debug/debug_config.h"
#include "debug/instrumented_computation.h"
#include "io/fault_injecting_trace_store.h"
#include "io/trace_block_cache.h"
#include "io/trace_sink.h"
#include "io/trace_store.h"
#include "obs/event_journal.h"
#include "obs/job_registry.h"
#include "obs/run_report.h"
#include "pregel/checkpoint.h"
#include "pregel/engine.h"
#include "pregel/transport.h"

namespace graft {
namespace pregel {

/// Retained-event capacity of a job-owned event journal (a ring: the oldest
/// events are dropped and counted once it wraps).
inline constexpr size_t kJobJournalCapacity = 1 << 16;

/// Everything that defines one job run, in one named-field struct — the
/// single configuration surface for plain runs, debugged (Graft) runs, and
/// checkpointed/fault-injected runs.
template <JobTraits Traits>
struct JobSpec {
  /// Engine-level knobs (workers, seed, combiner, job_id, metrics...). The
  /// `options.checkpoint` and `options.fault_injector` fields are overwritten
  /// by the top-level `checkpoint` / `fault_injector` fields below — set
  /// those instead.
  typename Engine<Traits>::Options options;

  /// The input graph. Consumed by RunJob (moved into the first engine).
  std::vector<Vertex<Traits>> vertices;

  /// Per-worker computation factory. Required.
  ComputationFactory<Traits> computation;
  /// Optional master.compute() factory.
  MasterFactory master;

  /// BSP contract analysis (DESIGN.md §9); `sanitizer.enabled = false` (the
  /// default) runs the job completely unchecked — no wrapping, no phase
  /// clock, no epoch stamps. Findings persist to `trace_store` when one is
  /// set, and always appear in the run report's analysis profile.
  analysis::SanitizerOptions sanitizer;

  /// Automated localization hooks (DESIGN.md §14). `breakpoint` is a
  /// predicate-DSL expression armed as a conditional trace breakpoint:
  /// every vertex.compute() call satisfying it is captured with
  /// kReasonBreakpoint and counted into JobRunSummary::breakpoint_hits —
  /// the minimizer's cheapest failure oracle. Requires `debug_config` +
  /// `trace_store`. Empty (the default) is unarmed: the instrumented path
  /// pays one null check per vertex and the uninstrumented path nothing.
  struct AnalysisOptions {
    std::string breakpoint;
  };
  AnalysisOptions analysis;

  /// Graft capture configuration; null runs the job without instrumentation.
  /// Requires `trace_store`.
  const debug::DebugConfig<Traits>* debug_config = nullptr;
  /// Where vertex/master traces land (under `options.job_id/`). Also the
  /// default checkpoint store.
  TraceStore* trace_store = nullptr;
  /// How capture appends reach the trace store: synchronous (default) or
  /// through the spooling background flusher (`capture_io.async = true`),
  /// which moves store writes off the BSP critical path. Trace bytes are
  /// identical either way; only the timing profile changes (DESIGN.md §10).
  TraceSinkOptions capture_io;

  /// Superstep checkpointing. `checkpoint.store` defaults to `trace_store`
  /// when unset; interval 0 disables checkpointing (and recovery).
  CheckpointOptions checkpoint;
  /// Optional deterministic fault injector: compute/delivery faults are
  /// checked by the engine, store faults by wrapping the configured stores
  /// in FaultInjectingTraceStore. Injector state (budgets, armed points)
  /// persists across recovery attempts, so a one-shot fault fires once.
  FaultInjector* fault_injector = nullptr;
  /// Recovery attempts after retryable (kUnavailable) failures before the
  /// failure is reported. Only meaningful with checkpointing enabled.
  int max_recovery_attempts = 3;

  /// Live telemetry plane (DESIGN.md §11): the structured event journal and
  /// the job-registry progress publishing the embedded HTTP server reads.
  struct TelemetryOptions {
    /// Enables the structured event journal for this run. The engine and the
    /// capture/checkpoint/recovery paths emit phase spans into it; off (the
    /// default) costs one pointer test per phase.
    bool journal = false;
    /// Use an externally owned journal instead of a job-owned one. Implies
    /// `journal`.
    obs::EventJournal* journal_sink = nullptr;
    /// Register the job and publish barrier-granularity progress snapshots
    /// so an attached TelemetryServer can serve /jobs/<id>/report and
    /// /jobs/<id>/events while the job runs.
    bool publish = false;
    /// Registry to publish into; null with `publish` uses
    /// obs::JobRegistry::Global(). Setting a registry implies `publish`.
    obs::JobRegistry* registry = nullptr;
  };
  TelemetryOptions telemetry;

  /// Execution backend (DESIGN.md §15). In-process threads are the only
  /// backend; the field names it so specs and reports stay explicit.
  TransportOptions transport;

  /// Invoked with the engine before/after each attempt's Run() — the hook
  /// for attaching extensions (InvariantChecker) and for reading final
  /// vertex values without re-running.
  std::function<void(Engine<Traits>&)> pre_run;
  std::function<void(Engine<Traits>&)> post_run;
};

/// Outcome of a RunJob call: job stats plus capture and recovery summaries.
/// The programmatic equivalent of the paper GUI's header bar, extended with
/// the fault-tolerance column.
struct JobRunSummary {
  JobStats stats;
  /// Non-OK when the job failed terminally: kAborted for a deterministic
  /// user-compute error (never retried — it would recur on replay), or the
  /// final kUnavailable when recovery attempts were exhausted or impossible.
  /// Traces written before the failure remain readable — that is the point
  /// of the debugger.
  Status job_status;
  uint64_t captures = 0;
  uint64_t violations = 0;
  uint64_t exceptions = 0;
  uint64_t dropped_by_capture_limit = 0;
  uint64_t trace_bytes = 0;
  /// vertex.compute() calls that satisfied the armed breakpoint predicate
  /// (0 when JobSpec::analysis.breakpoint is empty).
  uint64_t breakpoint_hits = 0;
  /// BSP contract violations recorded by the sanitizer (0 when disabled).
  uint64_t analysis_findings = 0;
  /// Engine runs executed (1 = no recovery happened).
  int attempts = 1;
  /// One entry per successful restore-from-checkpoint.
  std::vector<obs::RecoveryEvent> recoveries;
};

/// Runs a JobSpec to completion — the one code path behind Engine-style
/// plain runs, debugged runs, and checkpoint recovery:
///
///   1. wraps the user computation with the Graft Instrumenter when a
///      DebugConfig is present, and the stores with fault decorators when an
///      injector is armed;
///   2. runs the engine; on a retryable (kUnavailable) failure, restores a
///      fresh engine from the latest committed checkpoint, prunes traces of
///      re-executed supersteps, rewinds the capture counters to their
///      checkpoint-time snapshot, and retries — up to max_recovery_attempts;
///   3. folds capture counters, checkpoint accounting, and recovery events
///      into the summary's JobStats::report.
///
/// Returns a Status error only for unusable specs and unrecoverable restore
/// corruption; job-level failures (compute errors, exhausted retries) are
/// reported in JobRunSummary::job_status with the partial evidence intact.
template <JobTraits Traits>
Result<JobRunSummary> RunJob(JobSpec<Traits> spec) {
  using EngineT = Engine<Traits>;
  if (spec.computation == nullptr) {
    return Status::InvalidArgument("JobSpec.computation is required");
  }
  if (spec.debug_config != nullptr && spec.trace_store == nullptr) {
    return Status::InvalidArgument(
        "JobSpec.debug_config requires JobSpec.trace_store");
  }
  // Conditional breakpoint: compile and type-check before anything runs, so
  // a bad predicate is a spec error, not a mid-job surprise.
  std::optional<analysis::Predicate> breakpoint;
  if (!spec.analysis.breakpoint.empty()) {
    if (spec.debug_config == nullptr) {
      return Status::InvalidArgument(
          "JobSpec.analysis.breakpoint requires JobSpec.debug_config and "
          "JobSpec.trace_store");
    }
    GRAFT_ASSIGN_OR_RETURN(
        analysis::Predicate compiled,
        analysis::Predicate::Compile(spec.analysis.breakpoint));
    GRAFT_RETURN_NOT_OK(compiled.CheckInputSupport(
        analysis::kHasNumericVertexValue<Traits>));
    breakpoint = std::move(compiled);
  }
  CheckpointOptions ckpt = spec.checkpoint;
  if (ckpt.store == nullptr) ckpt.store = spec.trace_store;
  if (spec.checkpoint.interval > 0 && ckpt.store == nullptr) {
    return Status::InvalidArgument(
        "JobSpec.checkpoint.interval > 0 requires a checkpoint store "
        "(checkpoint.store or trace_store)");
  }

  // Telemetry plane: resolve the event journal (external sink or job-owned)
  // and register the job for live progress publishing. `owned_journal` is
  // declared before the cleanup guard below so the guard's detach runs while
  // the journal is still alive.
  std::optional<obs::EventJournal> owned_journal;
  obs::EventJournal* journal = spec.telemetry.journal_sink;
  if (journal == nullptr && spec.telemetry.journal) {
    owned_journal.emplace(kJobJournalCapacity);
    journal = &*owned_journal;
  }
  std::shared_ptr<obs::JobEntry> telemetry_entry;
  if (spec.telemetry.publish || spec.telemetry.registry != nullptr) {
    obs::JobRegistry* registry = spec.telemetry.registry != nullptr
                                     ? spec.telemetry.registry
                                     : &obs::JobRegistry::Global();
    telemetry_entry = registry->Register(spec.options.job_id);
    if (journal != nullptr) telemetry_entry->AttachJournal(journal);
    telemetry_entry->MarkRunning();
  }
  // Guard: on every exit — including spec-error returns below — the entry
  // stops referencing the (possibly job-owned) journal before it dies.
  struct TelemetryGuard {
    std::shared_ptr<obs::JobEntry> entry;
    ~TelemetryGuard() {
      if (entry != nullptr) entry->DetachJournal();
    }
  } telemetry_guard{telemetry_entry};
  spec.capture_io.journal = journal;
  if (journal != nullptr) {
    journal->Instant("job.start", "job", -1, -1);
  }

  // Store wrapping: one fault decorator per distinct underlying store, so
  // injected store faults hit capture appends and checkpoint writes alike.
  std::optional<FaultInjectingTraceStore> faulty_traces;
  std::optional<FaultInjectingTraceStore> faulty_ckpt;
  TraceStore* trace_store = spec.trace_store;
  if (spec.fault_injector != nullptr && trace_store != nullptr) {
    faulty_traces.emplace(trace_store, spec.fault_injector);
    trace_store = &*faulty_traces;
  }
  if (ckpt.store != nullptr && spec.fault_injector != nullptr) {
    if (ckpt.store == spec.trace_store) {
      ckpt.store = trace_store;
    } else {
      faulty_ckpt.emplace(ckpt.store, spec.fault_injector);
      ckpt.store = &*faulty_ckpt;
    }
  }

  std::optional<debug::CaptureManager<Traits>> manager;
  std::unique_ptr<TraceSink> sink;
  if (spec.debug_config != nullptr) {
    sink = MakeTraceSink(trace_store, spec.capture_io);
    manager.emplace(trace_store, sink.get(), spec.debug_config,
                    spec.options.job_id, spec.options.num_workers);
    if (breakpoint) manager->ArmBreakpoint(&*breakpoint);
    manager->PrepareTargets(spec.vertices);
    // A stale manifest from an earlier run under this job id would satisfy
    // reads with the old index; captures start from a clean slate.
    GRAFT_RETURN_NOT_OK(
        trace_store->DeletePrefix(debug::ManifestFile(spec.options.job_id)));
    // Mirror in the shared block cache: cached blocks from an earlier run
    // under this job id (same store, same file names) must not satisfy reads
    // of the new run's traces. Keyed by the *user's* store — that is the one
    // DebugSession readers open (the fault decorator has its own uid).
    TraceBlockCache::Global().InvalidatePrefix(*spec.trace_store,
                                               spec.options.job_id + "/");
  }

  // BSP sanitizer: one shared instance across recovery attempts (like the
  // capture manager), plus the phase clock its aggregator checks read.
  std::optional<PhaseClock> phase_clock;
  std::optional<analysis::BspSanitizer<Traits>> bsp;
  if (spec.sanitizer.enabled) {
    phase_clock.emplace();
    bsp.emplace(spec.sanitizer, trace_store, spec.options.job_id,
                &*phase_clock, spec.computation, spec.options.combiner);
  }
  const MasterFactory master =
      bsp ? bsp->WrapMaster(spec.master) : spec.master;

  // Capture-counter snapshots keyed by checkpoint superstep: recovery
  // rewinds the (shared, cross-attempt) manager so re-executed captures are
  // not double-counted.
  std::map<int64_t, debug::CaptureCounters> snapshots;
  class SnapshotObserver final : public EngineT::SuperstepObserver {
   public:
    SnapshotObserver(debug::CaptureManager<Traits>* manager,
                     std::map<int64_t, debug::CaptureCounters>* snapshots)
        : manager_(manager), snapshots_(snapshots) {}
    void OnCheckpoint(int64_t superstep) override {
      if (manager_ != nullptr) {
        (*snapshots_)[superstep] = manager_->SnapshotCounters();
      }
    }

   private:
    debug::CaptureManager<Traits>* manager_;
    std::map<int64_t, debug::CaptureCounters>* snapshots_;
  };
  SnapshotObserver snapshot_observer(manager ? &*manager : nullptr,
                                     &snapshots);

  /// Captures the master context every superstep (§3.4: Graft does this
  /// automatically whenever the program has a master.compute()). A failed
  /// master-trace append aborts the run with the store's status instead of
  /// being logged and dropped.
  class MasterCaptureObserver final : public EngineT::SuperstepObserver {
   public:
    MasterCaptureObserver(debug::CaptureManager<Traits>* manager,
                          bool has_master)
        : manager_(manager), has_master_(has_master) {}

    void OnSuperstepStart(int64_t superstep,
                          const std::map<std::string, AggValue>& aggs)
        override {
      (void)superstep;
      before_ = aggs;
    }
    void OnMasterComputed(int64_t superstep,
                          const std::map<std::string, AggValue>& aggs,
                          bool master_halted) override {
      if (!has_master_ || manager_ == nullptr) return;
      if (!manager_->config().ShouldCaptureSuperstep(superstep)) return;
      debug::MasterTrace trace;
      trace.superstep = superstep;
      trace.total_vertices = engine_->NumAliveVertices();
      trace.total_edges = engine_->NumEdges();
      trace.aggregators = before_;
      trace.aggregators_after = aggs;
      trace.halted = master_halted;
      Status recorded = manager_->RecordMasterTrace(trace);
      if (!recorded.ok()) engine_->RequestAbort(std::move(recorded));
    }
    void set_engine(EngineT* engine) { engine_ = engine; }

   private:
    debug::CaptureManager<Traits>* manager_;
    bool has_master_;
    std::map<std::string, AggValue> before_;
    EngineT* engine_ = nullptr;
  };
  MasterCaptureObserver master_observer(manager ? &*manager : nullptr,
                                        spec.master != nullptr);

  /// Drains the trace sink at every superstep barrier. Two guarantees hang
  /// off this: a deferred flush error from the spooling sink aborts the run
  /// before the *next* checkpoint commits (the engine checks aborts after
  /// delivery, ahead of its checkpoint write), so recovery never resumes
  /// past unflushed records; and checkpoint-time counter snapshots always
  /// observe a drained, consistent sink.
  class SinkQuiesceObserver final : public EngineT::SuperstepObserver {
   public:
    explicit SinkQuiesceObserver(TraceSink* sink) : sink_(sink) {}
    void OnSuperstepEnd(int64_t superstep,
                        const SuperstepStats& stats) override {
      (void)superstep;
      (void)stats;
      Status drained = sink_->Quiesce();
      if (!drained.ok()) engine_->RequestAbort(std::move(drained));
    }
    void set_engine(EngineT* engine) { engine_ = engine; }

   private:
    TraceSink* sink_;
    EngineT* engine_ = nullptr;
  };
  SinkQuiesceObserver quiesce_observer(sink.get());

  typename EngineT::Options options = spec.options;
  options.checkpoint = ckpt;
  options.fault_injector = spec.fault_injector;
  options.phase_clock = phase_clock ? &*phase_clock : nullptr;
  options.journal = journal;
  options.telemetry = telemetry_entry.get();
  // Confined recovery replays the raw user computation: replayed vertices
  // must see the original deterministic inputs, and the capture/sanitizer
  // wrappers must not re-record supersteps that already have traces.
  options.replay_computation = spec.computation;

  const std::string job_id = options.job_id;
  const int max_attempts = std::max(0, spec.max_recovery_attempts);

  JobRunSummary summary;
  std::vector<obs::RecoveryEvent> recoveries;
  // Checkpoint accounting of failed attempts, folded into the final report
  // (a failed Run() returns no JobStats to carry them).
  uint64_t prior_ckpt_written = 0;
  uint64_t prior_ckpt_bytes = 0;
  double prior_ckpt_seconds = 0.0;
  double prior_restore_seconds = 0.0;
  uint64_t prior_topology_bytes = 0;
  uint64_t prior_log_bytes = 0;
  uint64_t prior_confined = 0;
  std::vector<obs::RecoveryEvent> prior_confined_events;
  Status last_failure = Status::OK();

  for (int attempt = 0;; ++attempt) {
    // Wrap order: Instrument(Sanitize(user)) — the user program talks to the
    // sanitizer's checked context, whose calls the capture interceptor then
    // records, so captures reflect what the user actually did.
    ComputationFactory<Traits> base =
        bsp ? bsp->WrapComputation() : spec.computation;
    ComputationFactory<Traits> factory =
        manager ? debug::InstrumentFactory<Traits>(std::move(base), &*manager)
                : std::move(base);
    EngineT engine(options,
                   attempt == 0 ? std::move(spec.vertices)
                                : std::vector<Vertex<Traits>>{},
                   std::move(factory), master);
    if (bsp) {
      // Fatal-policy and store-failure channel for this attempt: findings
      // abort the engine in flight (works from worker and master threads
      // alike — no exception has to thread through the barrier machinery).
      bsp->log().set_abort(
          [&engine](Status status) { engine.RequestAbort(std::move(status)); });
    }
    if (attempt > 0) {
      Result<int64_t> latest =
          LatestCommittedCheckpoint(*ckpt.store, job_id);
      if (!latest.ok()) {
        // Nothing to recover from; report the original failure.
        summary.job_status = last_failure;
        break;
      }
      const int64_t resume = *latest;
      GRAFT_RETURN_NOT_OK(engine.RestoreFromCheckpoint(resume));
      if (sink != nullptr) {
        // Drop spooled-but-unflushed records and clear the latched error
        // before pruning: the dropped records belong to supersteps about to
        // be re-executed, and an in-flight flush must not land after the
        // prune deletes its file.
        sink->DiscardPending();
      }
      if ((manager || bsp) && trace_store != nullptr) {
        // Re-executed supersteps re-capture and re-record findings: drop
        // their stale trace/finding files so the recovered run's records are
        // exactly the fault-free ones.
        GRAFT_RETURN_NOT_OK(
            debug::PruneTracesFrom(*trace_store, job_id, resume));
        // Re-executed supersteps rewrite files under their old names;
        // cached blocks of the pruned files are now stale.
        if (spec.trace_store != nullptr) {
          TraceBlockCache::Global().InvalidatePrefix(*spec.trace_store,
                                                     job_id + "/");
        }
      }
      if (bsp) {
        // In-memory mirror of the prune: forget findings from the pruned
        // supersteps so re-execution records them afresh (dedup would
        // otherwise suppress them while their files are gone).
        bsp->log().RewindToSuperstep(resume);
      }
      if (manager) {
        // Rewind the capture counters to the checkpoint's snapshot, so the
        // recovered run's counts — including the sink's per-job I/O stats —
        // are exactly the fault-free ones.
        auto snap = snapshots.find(resume);
        manager->RestoreCounters(snap != snapshots.end()
                                     ? snap->second
                                     : debug::CaptureCounters{});
        // Mirror the trace prune in the manifest-under-construction: pruned
        // files restart at record ordinal 0.
        manager->RewindManifest(resume);
      }
      obs::RecoveryEvent event;
      event.attempt = attempt;
      event.restored_superstep = resume;
      event.cause = last_failure.ToString();
      event.restore_seconds = engine.restore_seconds();
      recoveries.push_back(std::move(event));
      if (telemetry_entry != nullptr) {
        telemetry_entry->MarkRecovering(last_failure.ToString());
      }
      if (journal != nullptr) {
        journal->Instant("recovery.retry", "recovery", -1, resume,
                         static_cast<uint64_t>(attempt));
      }
    }
    engine.AddObserver(&snapshot_observer);
    master_observer.set_engine(&engine);
    engine.AddObserver(&master_observer);
    if (sink != nullptr) {
      quiesce_observer.set_engine(&engine);
      engine.AddObserver(&quiesce_observer);
    }
    if (spec.pre_run) spec.pre_run(engine);

    Result<JobStats> stats = engine.Run();
    if (stats.ok() && sink != nullptr) {
      // Early-termination paths (master halt, all vertices halted) skip the
      // final OnSuperstepEnd, so the last master trace may still be in
      // flight. A deferred capture-I/O failure is a run failure — retryable
      // through the normal recovery path like any other store fault.
      Status drained = sink->Quiesce();
      if (!drained.ok()) stats = std::move(drained);
    }
    if (stats.ok() && manager) {
      Status indexed = manager->WriteManifest();
      if (!indexed.ok()) stats = std::move(indexed);
    }
    summary.attempts = attempt + 1;
    if (stats.ok()) {
      summary.stats = std::move(stats).value();
      summary.job_status = Status::OK();
      obs::RecoveryProfile& rec = summary.stats.report.recovery;
      rec.checkpoints_written += prior_ckpt_written;
      rec.checkpoint_bytes += prior_ckpt_bytes;
      rec.checkpoint_seconds += prior_ckpt_seconds;
      rec.restore_seconds += prior_restore_seconds;
      rec.topology_bytes += prior_topology_bytes;
      rec.log_bytes += prior_log_bytes;
      rec.confined_recoveries += prior_confined;
      // The engine already filled rec.events with this attempt's confined
      // recoveries; prepend the ones from failed attempts and the
      // JobRunner's own restart events.
      std::vector<obs::RecoveryEvent> events =
          std::move(prior_confined_events);
      events.insert(events.end(), recoveries.begin(), recoveries.end());
      events.insert(events.end(), rec.events.begin(), rec.events.end());
      rec.events = std::move(events);
      rec.recoveries = rec.events.size();
      if (spec.post_run) spec.post_run(engine);
      break;
    }
    prior_ckpt_written += engine.checkpoints_written();
    prior_ckpt_bytes += engine.checkpoint_bytes();
    prior_ckpt_seconds += engine.checkpoint_seconds();
    prior_restore_seconds += engine.restore_seconds();
    prior_topology_bytes += engine.topology_bytes();
    prior_log_bytes += engine.outbox_log_bytes();
    prior_confined += engine.confined_recoveries();
    const std::vector<obs::RecoveryEvent>& confined =
        engine.confined_recovery_events();
    prior_confined_events.insert(prior_confined_events.end(),
                                 confined.begin(), confined.end());
    last_failure = stats.status();
    if (last_failure.IsUnavailable() && options.checkpoint.enabled() &&
        attempt < max_attempts) {
      continue;  // retry from the latest committed checkpoint
    }
    summary.job_status = last_failure;
    // Even a failed run reports its fault-tolerance accounting.
    obs::RecoveryProfile& rec = summary.stats.report.recovery;
    rec.checkpoints_enabled = options.checkpoint.enabled();
    rec.checkpoints_written = prior_ckpt_written;
    rec.checkpoint_bytes = prior_ckpt_bytes;
    rec.checkpoint_seconds = prior_ckpt_seconds;
    rec.restore_seconds = prior_restore_seconds;
    rec.topology_bytes = prior_topology_bytes;
    rec.log_bytes = prior_log_bytes;
    rec.confined_recoveries = prior_confined;
    std::vector<obs::RecoveryEvent> events = std::move(prior_confined_events);
    events.insert(events.end(), recoveries.begin(), recoveries.end());
    rec.events = std::move(events);
    rec.recoveries = rec.events.size();
    break;
  }
  summary.recoveries = std::move(recoveries);

  summary.stats.report.transport = TransportKindName(spec.transport.kind);

  if (manager) {
    summary.captures = manager->num_captures();
    summary.violations = manager->num_violations();
    summary.exceptions = manager->num_exceptions();
    summary.dropped_by_capture_limit = manager->num_dropped_by_limit();
    summary.trace_bytes = manager->TraceBytes();
    summary.breakpoint_hits = manager->num_breakpoint_hits();
    // Attach the capture-overhead half of the run report (the engine filled
    // the phase-timing half during Run).
    manager->FillCaptureProfile(&summary.stats.report.capture);
    if (spec.options.metrics != nullptr) {
      manager->ExportMetrics(spec.options.metrics);
      trace_store->ExportMetrics(spec.options.metrics);
    }
  }
  if (bsp) {
    bsp->log().set_abort(nullptr);  // the last attempt's engine is gone
    bsp->log().FillAnalysisProfile(&summary.stats.report.analysis);
    summary.analysis_findings = summary.stats.report.analysis.findings_total;
    if (spec.options.metrics != nullptr) {
      bsp->log().ExportMetrics(spec.options.metrics);
    }
  }
  if (journal != nullptr) {
    journal->Instant("job.end", "job", -1, summary.stats.supersteps,
                     summary.job_status.ok() ? 1 : 0);
    if (spec.options.metrics != nullptr) {
      spec.options.metrics->GetCounter("journal.events_total")
          ->Increment(journal->appended());
      spec.options.metrics->GetCounter("journal.events_dropped_total")
          ->Increment(journal->dropped());
    }
  }
  if (telemetry_entry != nullptr) {
    // Final report: now enriched with the capture/analysis/recovery
    // profiles the engine's barrier snapshots did not have.
    telemetry_entry->PublishReport(summary.stats.report);
    telemetry_entry->Finish(summary.job_status.ok(),
                            summary.job_status.ToString());
    // Cache the full Chrome-trace export so /jobs/<id>/events outlives the
    // job-owned journal (the guard's second detach is a no-op).
    telemetry_entry->DetachJournal();
  }
  return summary;
}

}  // namespace pregel
}  // namespace graft

#endif  // GRAFT_PREGEL_JOB_H_
