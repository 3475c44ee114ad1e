#ifndef GRAFT_PREGEL_ENGINE_SUPERSTEP_H_
#define GRAFT_PREGEL_ENGINE_SUPERSTEP_H_

/// The superstep loop and its parallel phases (pure code motion from
/// engine.h): mutation application, message delivery, the vertex-compute
/// phase, aggregator merge, and the per-superstep bookkeeping. See engine.h
/// for the class overview.

#include "pregel/engine.h"  // IWYU pragma: keep

namespace graft {
namespace pregel {

template <JobTraits Traits>
Result<JobStats> Engine<Traits>::Run() {
  Stopwatch total_clock;
  JobStats stats;
  stats.report.job_id = options_.job_id;
  stats.report.num_workers = options_.num_workers;
  // A recovered run reports whole-job statistics: seed them with the
  // prefix restored from the checkpoint (empty on a fresh run).
  stats.per_superstep = restored_per_superstep_;
  stats.total_messages = restored_total_messages_;
  stats.total_messages_dropped = restored_total_messages_dropped_;
  StampPhase(EnginePhase::kSetup, -1);
  MasterCtx master_ctx(this);
  if (master_ != nullptr) {
    master_->Initialize(master_ctx);
    // Regular aggregators start at their initial value for superstep 0.
    ResetVisibleAggregators(/*previous_merged=*/{});
  }
  if (recovered_) {
    // The aggregator values the checkpointed superstep saw (persistent
    // aggregators and master SetAggregated state included); specs were
    // just re-registered by Initialize above.
    visible_aggregators_ = restored_aggregators_;
  } else if (options_.checkpoint.enabled()) {
    // Checkpoint 0: the loaded input graph, so any later failure —
    // including one before the first interval boundary — has a recovery
    // point. Committed eagerly even in async mode: a superstep-0 fault
    // must already find it on the store.
    GRAFT_RETURN_NOT_OK(WriteCheckpoint(0, 0, 0, stats));
    GRAFT_RETURN_NOT_OK(FinishPendingCheckpoint());
    for (auto* obs : observers_) obs->OnCheckpoint(0);
  }

  std::vector<WorkerCtx> contexts;
  std::vector<std::unique_ptr<Computation<Traits>>> computations;
  contexts.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    contexts.emplace_back(this, w);
    computations.push_back(computation_factory_());
    GRAFT_CHECK(computations.back() != nullptr);
  }

  for (superstep_ = resume_superstep_; superstep_ < options_.max_supersteps;
       ++superstep_) {
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->set_current_superstep(superstep_);
    }
    Stopwatch superstep_clock;
    SuperstepStats ss;
    ss.superstep = superstep_;
    obs::SuperstepProfile prof;
    prof.superstep = superstep_;
    prof.workers.resize(static_cast<size_t>(options_.num_workers));
    for (int w = 0; w < options_.num_workers; ++w) {
      prof.workers[static_cast<size_t>(w)].worker = w;
    }
    // RAII: published on every exit from this iteration, including the
    // early termination returns below.
    obs::JournalSpan superstep_span(options_.journal, "superstep", "engine",
                                    -1, superstep_);

    // 1. Apply topology mutations requested in the previous superstep.
    {
      StampPhase(EnginePhase::kMutation, superstep_);
      obs::JournalSpan span(options_.journal, "mutation", "engine", -1,
                            superstep_);
      Stopwatch clock;
      ApplyMutations(contexts, &ss);
      prof.mutation_seconds = clock.ElapsedSeconds();
    }

    // 2. Deliver messages sent in the previous superstep (after mutations,
    //    so a message for a just-removed vertex follows the missing-vertex
    //    policy, per Pregel).
    uint64_t delivered = 0;
    {
      StampPhase(EnginePhase::kDelivery, superstep_);
      obs::JournalSpan span(options_.journal, "delivery", "engine", -1,
                            superstep_);
      Stopwatch clock;
      delivered = DeliverMessages(&ss, &prof);
      prof.delivery_wall_seconds = clock.ElapsedSeconds();
      span.End(delivered);
    }
    // On the resumed superstep the delivery above drained nothing (the
    // outboxes died with the failed run) — the checkpointed inbox contents
    // and their delivery accounting stand in for it.
    delivered += std::exchange(restored_pending_, uint64_t{0});
    ss.messages_dropped += std::exchange(restored_dropped_, uint64_t{0});
    if (has_abort_.load(std::memory_order_relaxed)) {
      return TakeAbortStatus();
    }

    // 3. Refresh global data visible to this superstep — an O(workers)
    //    sum of the incrementally-maintained partition counters (the
    //    former full-graph scan is gone).
    UpdateTotalsFromPartitions();

    // Checkpoint boundary: state at the start of superstep S (mutations
    // applied, inboxes filled, master not yet run) — exactly what
    // RestoreFromCheckpoint rebuilds. Skipped at the resume superstep
    // itself: that checkpoint is already committed.
    if (options_.checkpoint.enabled() && superstep_ > 0 &&
        superstep_ % options_.checkpoint.interval == 0 &&
        superstep_ != resume_superstep_) {
      GRAFT_RETURN_NOT_OK(
          WriteCheckpoint(superstep_, delivered, ss.messages_dropped,
                          stats));
      for (auto* obs : observers_) obs->OnCheckpoint(superstep_);
    }

    for (auto* obs : observers_) {
      obs->OnSuperstepStart(superstep_, visible_aggregators_);
    }

    // 4. Master phase: sees aggregators merged at the end of superstep-1.
    StampPhase(EnginePhase::kMasterCompute, superstep_);
    if (master_ != nullptr) {
      obs::JournalSpan span(options_.journal, "master", "engine", -1,
                            superstep_);
      Stopwatch clock;
      master_ctx.BeginSuperstep(superstep_);
      master_->Compute(master_ctx);
      prof.master_seconds = clock.ElapsedSeconds();
    }
    for (auto* obs : observers_) {
      obs->OnMasterComputed(superstep_, visible_aggregators_,
                            master_halted_);
    }
    // An observer (e.g. the master-trace capture path) may have hit an
    // infrastructure failure.
    if (has_abort_.load(std::memory_order_relaxed)) {
      return TakeAbortStatus();
    }
    if (master_halted_) {
      stats.termination = TerminationReason::kMasterHalted;
      stats.total_messages_dropped += ss.messages_dropped;
      RecordPartialSuperstep(&stats, &ss, &prof, superstep_clock);
      FinalizeStats(&stats, total_clock);
      return stats;
    }

    // 5. Termination check: nothing to do this superstep? Incremental —
    //    awake (non-halted) vertices are counted as compute and mutation
    //    toggle them, and delivery already knows whether any message
    //    landed in an inbox.
    if (!AnyVertexActive(delivered)) {
      stats.termination = TerminationReason::kAllHalted;
      stats.total_messages_dropped += ss.messages_dropped;
      RecordPartialSuperstep(&stats, &ss, &prof, superstep_clock);
      FinalizeStats(&stats, total_clock);
      return stats;
    }

    // 6. Vertex phase across all workers, on the persistent pool.
    has_compute_error_.store(false, std::memory_order_relaxed);
    compute_error_.reset();
    // Delta mode journals the aggregator values this superstep's compute
    // will see — confined recovery's replay loop feeds them back to
    // Compute() without re-running the master.
    if (options_.checkpoint.enabled() && options_.checkpoint.delta()) {
      Status logged = AppendAggLog();
      if (!logged.ok()) {
        RequestAbort(std::move(logged));
        return TakeAbortStatus();
      }
    }
    // Confined recovery: in delta mode the injected worker-crash sweep
    // runs on the engine thread *before* the pool launches, so a failed
    // partition can be rebuilt in place (checkpoint + log replay) while
    // the healthy partitions' state is never touched. When the rebuild's
    // preconditions fail the fault degrades to the legacy global abort.
    if (options_.fault_injector != nullptr && UseConfinedRecovery()) {
      for (int w = 0; w < options_.num_workers; ++w) {
        if (!options_.fault_injector->ShouldFail(FaultSite::kWorkerCompute,
                                                 w)) {
          continue;
        }
        Status confined = ConfinedRecover(w);
        if (!confined.ok()) {
          RequestAbort(Status::Unavailable(StrFormat(
              "injected worker crash at superstep %lld, worker %d (%s)",
              static_cast<long long>(superstep_), w,
              confined.message().c_str())));
          return TakeAbortStatus();
        }
      }
    }
    {
      StampPhase(EnginePhase::kVertexCompute, superstep_);
      obs::JournalSpan span(options_.journal, "compute", "engine", -1,
                            superstep_);
      Stopwatch clock;
      pool_.Run([&](int w) {
        RunWorker(&contexts[static_cast<size_t>(w)],
                  computations[static_cast<size_t>(w)].get(), &ss,
                  &prof.workers[static_cast<size_t>(w)]);
      });
      prof.compute_wall_seconds = clock.ElapsedSeconds();
    }
    // A worker's barrier wait is the time it idled for the slowest peer in
    // the two intra-superstep parallel phases.
    for (obs::WorkerPhaseProfile& wp : prof.workers) {
      wp.barrier_wait_seconds =
          std::max(0.0, prof.compute_wall_seconds - wp.compute_seconds) +
          std::max(0.0, prof.delivery_wall_seconds - wp.delivery_seconds);
    }
    // Infrastructure aborts (injected fault, capture I/O failure) outrank
    // compute errors: they carry the retryable status class JobRunner
    // keys its recovery loop on.
    if (has_abort_.load(std::memory_order_relaxed)) {
      return TakeAbortStatus();
    }
    if (compute_error_.has_value()) {
      stats.termination = TerminationReason::kComputeError;
      FinalizeStats(&stats, total_clock);
      ss.seconds = superstep_clock.ElapsedSeconds();
      prof.total_seconds = ss.seconds;
      stats.per_superstep.push_back(ss);
      stats.report.per_superstep.push_back(std::move(prof));
      return Status::Aborted(*compute_error_);
    }

    // 7. Merge per-worker aggregations into the next superstep's view.
    {
      StampPhase(EnginePhase::kAggregatorMerge, superstep_);
      obs::JournalSpan span(options_.journal, "aggregator_merge", "engine",
                            -1, superstep_);
      Stopwatch clock;
      MergeAggregators(contexts);
      prof.aggregator_merge_seconds = clock.ElapsedSeconds();
    }

    // Commit the checkpoint written at this superstep's boundary: its
    // parts rode the async spool while master/compute ran; quiesce and
    // COMMIT now that the superstep's own work is done.
    if (pending_checkpoint_) {
      Status committed = FinishPendingCheckpoint();
      if (!committed.ok()) {
        RequestAbort(std::move(committed));
        return TakeAbortStatus();
      }
    }

    ss.seconds = superstep_clock.ElapsedSeconds();
    prof.total_seconds = ss.seconds;
    stats.total_messages += ss.messages_sent;
    stats.total_messages_dropped += ss.messages_dropped;
    RecordSuperstepMetrics(prof, ss);
    stats.per_superstep.push_back(ss);
    stats.report.per_superstep.push_back(std::move(prof));
    superstep_span.End(ss.messages_sent);
    PublishProgress(stats, total_clock);
    for (auto* obs : observers_) obs->OnSuperstepEnd(superstep_, ss);
  }
  stats.termination = TerminationReason::kMaxSupersteps;
  FinalizeStats(&stats, total_clock);
  return stats;
}

/// Routes one batch of staged messages from `sender`'s compute thread into
/// the message store, in send order. With a combiner each destination slot
/// is resolved here (one hash lookup — the same lookup delivery used to
/// pay) so combining happens sender-side; unresolvable targets (unknown
/// ids) fall back to the entry path and follow the missing-vertex policy
/// at delivery. There is deliberately no alive() check on resolved slots —
/// it would cost a second random access per message; a message combined
/// into a currently-dead slot is handled at delivery (resurrected by the
/// missing-vertex pre-pass when the policy is on, dropped by the alive()
/// recheck otherwise).
///
/// The batch is processed in passes — hash + index-cell prefetch, probe +
/// slot prefetch, write — so the two random memory accesses every message
/// pays (index cell, combining slot) are in flight for the whole batch at
/// once instead of one serialized pair per send.
template <JobTraits Traits>
void Engine<Traits>::FlushSends(int sender, std::vector<StagedSend>* batch) {
  const size_t n = batch->size();
  std::array<uint64_t, kSendBatch> hash;
  std::array<uint32_t, kSendBatch> dest;
  GRAFT_CHECK(n <= kSendBatch);
  for (size_t i = 0; i < n; ++i) {
    hash[i] = FlatIndex::Hash((*batch)[i].target);
    dest[i] = static_cast<uint32_t>(PartitionOfHash(hash[i]));
    partitions_[dest[i]].index.Prefetch(hash[i]);
  }
  if (msg_store_.combining()) {
    std::array<uint32_t, kSendBatch> slot;
    for (size_t i = 0; i < n; ++i) {
      slot[i] = partitions_[dest[i]].index.FindHashed((*batch)[i].target,
                                                      hash[i]);
      if (slot[i] != FlatIndex::kNotFound) {
        msg_store_.PrefetchCombinedSlot(sender, dest[i], slot[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      StagedSend& s = (*batch)[i];
      if (slot[i] != FlatIndex::kNotFound) {
        msg_store_.SendCombined(sender, dest[i], slot[i], s.message);
      } else {
        msg_store_.SendEntry(sender, dest[i], s.target, s.message);
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      StagedSend& s = (*batch)[i];
      msg_store_.SendEntry(sender, dest[i], s.target, s.message);
    }
  }
  batch->clear();
}

template <JobTraits Traits>
void Engine<Traits>::AddVertexInternal(VertexT vertex) {
  MarkTopologyChanged();
  const size_t part = PartitionOf(vertex.id());
  Partition& p = partitions_[part];
  p.dirty = true;
  p.alive_count += 1;
  p.edge_count += vertex.num_edges();
  if (!vertex.halted()) p.awake_count += 1;
  bool inserted = false;
  const uint32_t slot = p.index.InsertOrFind(
      vertex.id(), static_cast<uint32_t>(p.vertices.size()), &inserted);
  if (inserted) {
    p.vertices.push_back(std::move(vertex));
  } else {
    // Resurrect a removed slot; adding a live duplicate is an input error.
    VertexT& dst = p.vertices[slot];
    GRAFT_CHECK(!dst.alive())
        << "duplicate vertex id " << vertex.id() << " in input graph";
    dst = std::move(vertex);
    // The slot's inbox may hold messages delivered before the vertex was
    // removed; a resurrected vertex must not inherit them.
    msg_store_.ClearInbox(part, slot);
  }
  msg_store_.EnsureInboxSlots(part, p.vertices.size());
}

template <JobTraits Traits>
void Engine<Traits>::ApplyMutations(std::vector<WorkerCtx>& contexts,
                                    SuperstepStats* ss) {
  for (WorkerCtx& ctx : contexts) {
    MutationBuffer& m = ctx.mutations();
    if (m.Empty()) continue;
    for (const auto& [source, target, value] : m.add_edges) {
      VertexT* v = FindMutableVertex(source);
      if ((v == nullptr || !v->alive()) &&
          options_.create_missing_vertices) {
        AddVertexInternal(
            VertexT(source, options_.default_vertex_value, {}));
        v = FindMutableVertex(source);
      }
      if (v != nullptr && v->alive()) {
        v->AddEdge(target, value);
        partitions_[PartitionOf(source)].edge_count += 1;
        ++ss->edges_added;
        MarkTopologyChanged();
      }
    }
    for (const auto& [source, target] : m.remove_edges) {
      VertexT* v = FindMutableVertex(source);
      if (v != nullptr && v->alive()) {
        const size_t removed = v->RemoveEdgesTo(target);
        partitions_[PartitionOf(source)].edge_count -= removed;
        ss->edges_removed += removed;
        if (removed > 0) MarkTopologyChanged();
      }
    }
    for (VertexId id : m.remove_vertices) {
      VertexT* v = FindMutableVertex(id);
      if (v != nullptr && v->alive()) {
        Partition& p = partitions_[PartitionOf(id)];
        p.alive_count -= 1;
        p.edge_count -= v->num_edges();
        if (!v->halted()) p.awake_count -= 1;
        v->set_alive(false);
        v->mutable_edges()->clear();
        ++ss->vertices_removed;
        p.dirty = true;
        MarkTopologyChanged();
      }
    }
    m.Clear();
  }
}

template <JobTraits Traits>
typename Engine<Traits>::VertexT* Engine<Traits>::FindMutableVertex(
    VertexId id) {
  Partition& p = partitions_[PartitionOf(id)];
  const uint32_t slot = p.index.Find(id);
  if (slot == FlatIndex::kNotFound) return nullptr;
  return &p.vertices[slot];
}

/// Drains the message store into this superstep's inboxes on the worker
/// pool — each worker handles exactly its own partition, including the
/// missing-vertex creation pass (partition-local by construction, since a
/// pending target hashes to the partition that will create it; one index
/// lookup per pending target). Returns the number of messages delivered
/// into inboxes — the "messages in flight" half of the termination check.
template <JobTraits Traits>
uint64_t Engine<Traits>::DeliverMessages(SuperstepStats* ss,
                                         obs::SuperstepProfile* prof) {
  using Stats = typename MessageStore<Message>::DeliveryStats;
  std::vector<Stats> per_worker(static_cast<size_t>(options_.num_workers));
  const bool log_outbox =
      options_.checkpoint.enabled() && options_.checkpoint.delta();
  auto deliver = [&](int w) {
    Stopwatch clock;
    obs::JournalSpan span(options_.journal, "delivery", "worker", w,
                          superstep_);
    const size_t part = static_cast<size_t>(w);
    if (options_.fault_injector != nullptr &&
        options_.fault_injector->ShouldFail(FaultSite::kDelivery, w)) {
      RequestAbort(Status::Unavailable(StrFormat(
          "injected delivery fault at superstep %lld, partition %d",
          static_cast<long long>(superstep_), w)));
      prof->workers[part].delivery_seconds = clock.ElapsedSeconds();
      return;
    }
    // Delta mode: journal this partition's incoming outbox units before
    // draining them, so recovery can regenerate the inbox by replay
    // instead of reading a snapshot.
    if (log_outbox) {
      Status logged = AppendOutboxLog(w);
      if (!logged.ok()) {
        RequestAbort(std::move(logged));
        prof->workers[part].delivery_seconds = clock.ElapsedSeconds();
        return;
      }
    }
    Partition& p = partitions_[part];
    if (options_.create_missing_vertices) {
      msg_store_.ForEachCombinedSlot(part, [&](size_t slot) {
        // A combined slot always names an indexed vertex; it only needs
        // resurrecting when a mutation removed the vertex after the send.
        if (!p.vertices[slot].alive()) {
          AddVertexInternal(VertexT(p.vertices[slot].id(),
                                    options_.default_vertex_value, {}));
        }
      });
      msg_store_.ForEachEntryTarget(part, [&](VertexId target) {
        const uint32_t slot = p.index.Find(target);
        if (slot == FlatIndex::kNotFound || !p.vertices[slot].alive()) {
          AddVertexInternal(
              VertexT(target, options_.default_vertex_value, {}));
        }
      });
    }
    per_worker[part] = msg_store_.Deliver(
        part,
        [&](VertexId target) -> size_t {
          const uint32_t slot = p.index.Find(target);
          if (slot == FlatIndex::kNotFound || !p.vertices[slot].alive()) {
            return MessageStore<Message>::kNoSlot;
          }
          return slot;
        },
        [&](size_t slot) { return p.vertices[slot].alive(); });
    prof->workers[part].delivery_seconds = clock.ElapsedSeconds();
    span.End(per_worker[part].delivered);
  };
  pool_.Run(deliver);
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  for (const Stats& s : per_worker) {
    delivered += s.delivered;
    dropped += s.dropped;
  }
  ss->messages_dropped = dropped;
  return delivered;
}

template <JobTraits Traits>
void Engine<Traits>::RunWorker(WorkerCtx* ctx,
                               Computation<Traits>* computation,
                               SuperstepStats* ss,
                               obs::WorkerPhaseProfile* wp) {
  Stopwatch clock;
  obs::JournalSpan span(options_.journal, "compute", "worker",
                        ctx->worker_index(), superstep_);
  const size_t part = static_cast<size_t>(ctx->worker_index());
  // In confined-recovery mode the engine thread already swept this fault
  // site before launching the pool; consulting it again here would burn a
  // second armed hit on the same superstep.
  if (options_.fault_injector != nullptr && !UseConfinedRecovery() &&
      options_.fault_injector->ShouldFail(FaultSite::kWorkerCompute,
                                          ctx->worker_index())) {
    // The simulated worker crash: this worker does no compute at all this
    // superstep, leaving its partition's state mid-superstep-inconsistent
    // — recovery must come from the last checkpoint, not this engine.
    RequestAbort(Status::Unavailable(StrFormat(
        "injected worker crash at superstep %lld, worker %d",
        static_cast<long long>(superstep_), ctx->worker_index())));
    wp->compute_seconds = clock.ElapsedSeconds();
    return;
  }
  Partition& p = partitions_[part];
  uint64_t active = 0;
  int64_t edge_delta = 0;
  int64_t awake_delta = 0;
  for (size_t i = 0; i < p.vertices.size(); ++i) {
    VertexT& v = p.vertices[i];
    if (!v.alive()) continue;
    std::vector<Message>& inbox = msg_store_.Inbox(part, i);
    if (v.halted() && inbox.empty()) continue;
    const bool was_awake = !v.halted();
    v.Activate();
    ++active;
    const int64_t edges_before = static_cast<int64_t>(v.num_edges());
    ctx->BeginVertex(v.id());
    bool failed = false;
    try {
      computation->Compute(*ctx, v, inbox);
    } catch (const WorkerAbortError& e) {
      // Infrastructure failure surfaced inside the compute path (e.g. the
      // Graft instrumenter's trace append failed) — an engine abort, not
      // a user compute error.
      RequestAbort(e.status());
      failed = true;
    } catch (const std::exception& e) {
      RecordComputeError(v.id(), e.what());
      failed = true;
    } catch (...) {
      RecordComputeError(v.id(), "(non-standard exception)");
      failed = true;
    }
    msg_store_.ClearInbox(part, i);
    // Incremental bookkeeping: net local edge mutations and the vote-to-
    // halt transition of this vertex.
    edge_delta += static_cast<int64_t>(v.num_edges()) - edges_before;
    if (was_awake && v.halted()) --awake_delta;
    if (!was_awake && !v.halted()) ++awake_delta;
    if (failed || has_compute_error_.load(std::memory_order_relaxed) ||
        has_abort_.load(std::memory_order_relaxed)) {
      break;  // this or another worker failed
    }
  }
  ctx->FlushStagedSends();
  p.edge_count =
      static_cast<uint64_t>(static_cast<int64_t>(p.edge_count) + edge_delta);
  p.awake_count = static_cast<uint64_t>(
      static_cast<int64_t>(p.awake_count) + awake_delta);
  if (active > 0) p.dirty = true;
  // Local (direct, non-request) edge mutations change the topology too.
  if (edge_delta != 0) MarkTopologyChanged();
  const uint64_t sent = ctx->TakeMessagesSent();
  wp->compute_seconds = clock.ElapsedSeconds();
  wp->vertices_computed = active;
  wp->messages_sent = sent;
  span.End(active);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ss->active_vertices += active;
  ss->messages_sent += sent;
}

/// Publishes a barrier-granularity RunReport snapshot to the telemetry
/// entry so /jobs/<id>/report advances while the job runs. Nothing when
/// telemetry is off. The live snapshot carries only the most recent
/// kLiveProgressTail superstep profiles: copying + serializing the full
/// growing history at every barrier would make progress publishing
/// O(supersteps^2) over a long run. The final PublishReport in RunJob
/// ships the complete history.
template <JobTraits Traits>
void Engine<Traits>::PublishProgress(const JobStats& stats,
                                     const Stopwatch& total_clock) {
  if (options_.telemetry == nullptr) return;
  obs::RunReport snapshot;
  snapshot.job_id = stats.report.job_id;
  snapshot.num_workers = stats.report.num_workers;
  snapshot.supersteps = superstep_ + 1;
  snapshot.total_seconds = total_clock.ElapsedSeconds();
  snapshot.capture = stats.report.capture;
  snapshot.analysis = stats.report.analysis;
  snapshot.recovery = stats.report.recovery;
  const std::vector<obs::SuperstepProfile>& profiles =
      stats.report.per_superstep;
  const size_t first = profiles.size() > kLiveProgressTail
                           ? profiles.size() - kLiveProgressTail
                           : 0;
  snapshot.per_superstep.assign(
      profiles.begin() + static_cast<std::ptrdiff_t>(first), profiles.end());
  options_.telemetry->PublishReport(snapshot);
}

template <JobTraits Traits>
Status Engine<Traits>::TakeAbortStatus() {
  // A checkpoint spooled this superstep but not yet committed dies with
  // the run: without its COMMIT marker it stays invisible to recovery,
  // and the next attempt's boundary write deletes the leftovers.
  DiscardPendingCheckpoint();
  StampPhase(EnginePhase::kDone, superstep_);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return abort_status_.value_or(
      Status::Internal("abort requested without a status"));
}

template <JobTraits Traits>
void Engine<Traits>::RecordComputeError(VertexId id, const std::string& what) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (!compute_error_.has_value()) {
    compute_error_ = StrFormat(
        "exception escaped Compute() at superstep %lld, vertex %lld: %s",
        static_cast<long long>(superstep_), static_cast<long long>(id),
        what.c_str());
  }
  has_compute_error_.store(true, std::memory_order_relaxed);
}

template <JobTraits Traits>
void Engine<Traits>::MergeAggregators(std::vector<WorkerCtx>& contexts) {
  // Start from initial (regular) or carried-forward (persistent) values.
  std::map<std::string, AggValue> merged;
  for (const auto& [name, spec] : aggregator_specs_) {
    if (spec.persistent) {
      auto it = visible_aggregators_.find(name);
      merged[name] =
          it == visible_aggregators_.end() ? spec.initial : it->second;
    } else {
      merged[name] = spec.initial;
    }
  }
  for (WorkerCtx& ctx : contexts) {
    for (auto& [name, update] : ctx.partial_aggregations()) {
      auto spec = aggregator_specs_.find(name);
      merged[name] = MergeAggValue(spec->second.op, merged[name], update);
    }
    ctx.partial_aggregations().clear();
  }
  visible_aggregators_ = std::move(merged);
}

template <JobTraits Traits>
void Engine<Traits>::ResetVisibleAggregators(
    const std::map<std::string, AggValue>& previous_merged) {
  visible_aggregators_.clear();
  for (const auto& [name, spec] : aggregator_specs_) {
    auto it = previous_merged.find(name);
    visible_aggregators_[name] =
        it == previous_merged.end() ? spec.initial : it->second;
  }
}

/// Completes the bookkeeping of a superstep that terminated the job
/// before its vertex phase (master halt / all halted): the run report
/// keeps the partial superstep's mutation/delivery/master timings instead
/// of silently dropping them. Metrics histograms and counters only cover
/// completed supersteps, so they are not recorded here.
template <JobTraits Traits>
void Engine<Traits>::RecordPartialSuperstep(JobStats* stats,
                                            SuperstepStats* ss,
                                            obs::SuperstepProfile* prof,
                                            const Stopwatch& superstep_clock) {
  ss->seconds = superstep_clock.ElapsedSeconds();
  prof->total_seconds = ss->seconds;
  prof->partial = true;
  for (obs::WorkerPhaseProfile& wp : prof->workers) {
    wp.barrier_wait_seconds =
        std::max(0.0, prof->delivery_wall_seconds - wp.delivery_seconds);
  }
  stats->per_superstep.push_back(*ss);
  stats->report.per_superstep.push_back(std::move(*prof));
}

template <JobTraits Traits>
void Engine<Traits>::FinalizeStats(JobStats* stats, const Stopwatch& clock) {
  // Commit a still-pending async checkpoint at termination — the run may
  // have ended (halt or compute error) before the end-of-superstep commit
  // point. The checkpoint captured start-of-superstep state, so it is
  // valid regardless of how the superstep itself went.
  if (pending_checkpoint_) {
    Status committed = FinishPendingCheckpoint();
    if (!committed.ok()) DiscardPendingCheckpoint();
  }
  StampPhase(EnginePhase::kDone, superstep_);
  UpdateTotalsFromPartitions();
  stats->supersteps = superstep_;
  stats->final_vertices = total_vertices_;
  stats->final_edges = total_edges_;
  stats->total_seconds = clock.ElapsedSeconds();
  stats->report.supersteps = superstep_;
  stats->report.total_seconds = stats->total_seconds;
  stats->report.recovery.checkpoints_enabled =
      options_.checkpoint.enabled();
  stats->report.recovery.checkpoints_written = ckpt_written_;
  stats->report.recovery.checkpoint_bytes = ckpt_bytes_;
  stats->report.recovery.checkpoint_seconds = ckpt_seconds_;
  stats->report.recovery.restore_seconds = restore_seconds_;
  stats->report.recovery.topology_bytes = topology_bytes_;
  stats->report.recovery.log_bytes =
      log_bytes_.load(std::memory_order_relaxed);
  stats->report.recovery.confined_recoveries = confined_recoveries_;
  stats->report.recovery.events = confined_events_;
  stats->report.recovery.recoveries = confined_events_.size();
  // Pool-reuse evidence for the run report consumers: a fixed thread
  // count across a growing number of parallel phases means no per-phase
  // spawn happened.
  gauge_pool_threads_->Set(static_cast<double>(options_.num_workers - 1));
  gauge_pool_phases_->Set(static_cast<double>(pool_.generations()));
  if (options_.telemetry != nullptr) {
    options_.telemetry->PublishReport(stats->report);
  }
}

/// Records the completed superstep's phase timings into the metrics
/// registry (the per-worker shards were written lock-free during the
/// parallel phases; histograms merge shards on export).
template <JobTraits Traits>
void Engine<Traits>::RecordSuperstepMetrics(const obs::SuperstepProfile& prof,
                                            const SuperstepStats& ss) {
  hist_mutation_->Record(prof.mutation_seconds);
  hist_master_->Record(prof.master_seconds);
  hist_agg_merge_->Record(prof.aggregator_merge_seconds);
  hist_superstep_->Record(prof.total_seconds);
  for (const obs::WorkerPhaseProfile& wp : prof.workers) {
    hist_compute_->Record(wp.compute_seconds, wp.worker);
    hist_delivery_->Record(wp.delivery_seconds, wp.worker);
    hist_barrier_wait_->Record(wp.barrier_wait_seconds, wp.worker);
  }
  ctr_supersteps_->Increment();
  ctr_messages_->Increment(ss.messages_sent);
  ctr_dropped_->Increment(ss.messages_dropped);
  ctr_vertices_computed_->Increment(ss.active_vertices);
}

}  // namespace pregel
}  // namespace graft

#endif  // GRAFT_PREGEL_ENGINE_SUPERSTEP_H_
