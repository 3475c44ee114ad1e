#ifndef GRAFT_PREGEL_ENGINE_CHECKPOINT_H_
#define GRAFT_PREGEL_ENGINE_CHECKPOINT_H_

/// Checkpoint write/restore, the outbox/aggregator logs, and confined
/// recovery (pure code motion from engine.h). See engine.h for the class
/// overview and DESIGN.md §12 for the checkpoint protocol.

#include "pregel/engine.h"  // IWYU pragma: keep

namespace graft {
namespace pregel {

template <JobTraits Traits>
Status Engine<Traits>::RestoreFromCheckpoint(int64_t superstep) {
  GRAFT_CHECK(options_.checkpoint.enabled())
      << "RestoreFromCheckpoint without checkpoint options";
  for (const Partition& p : partitions_) {
    GRAFT_CHECK(p.vertices.empty())
        << "RestoreFromCheckpoint on a non-empty engine";
  }
  Stopwatch clock;
  obs::JournalSpan span(options_.journal, "checkpoint.restore",
                        "checkpoint", -1, superstep);
  TraceStore& store = *options_.checkpoint.store;
  GRAFT_ASSIGN_OR_RETURN(
      std::vector<std::string> meta_records,
      store.ReadAll(CheckpointMetaFile(options_.job_id, superstep)));
  if (meta_records.size() != 1) {
    return Status::Internal(
        StrFormat("checkpoint meta has %zu records, want 1",
                  meta_records.size()));
  }
  GRAFT_ASSIGN_OR_RETURN(CheckpointMeta meta,
                         CheckpointMeta::Parse(meta_records[0]));
  if (meta.num_partitions != options_.num_workers) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %d partitions but engine has %d workers",
        meta.num_partitions, options_.num_workers));
  }
  if (meta.mode == CheckpointMode::kDelta) {
    GRAFT_RETURN_NOT_OK(RestoreDelta(superstep, meta));
  } else {
    for (int part = 0; part < options_.num_workers; ++part) {
      GRAFT_ASSIGN_OR_RETURN(
          std::vector<std::string> records,
          store.ReadAll(
              CheckpointPartFile(options_.job_id, superstep, part)));
      if (records.size() != 1) {
        return Status::Internal(StrFormat(
            "checkpoint part %d has %zu records, want 1", part,
            records.size()));
      }
      BinaryReader r(records[0]);
      GRAFT_ASSIGN_OR_RETURN(uint64_t alive, r.ReadVarint());
      for (uint64_t i = 0; i < alive; ++i) {
        GRAFT_ASSIGN_OR_RETURN(int64_t id, r.ReadSignedVarint());
        GRAFT_ASSIGN_OR_RETURN(VertexValue value, VertexValue::Read(r));
        GRAFT_ASSIGN_OR_RETURN(bool halted, r.ReadBool());
        GRAFT_ASSIGN_OR_RETURN(uint64_t num_edges, r.ReadVarint());
        std::vector<typename VertexT::EdgeT> edges;
        edges.reserve(num_edges);
        for (uint64_t e = 0; e < num_edges; ++e) {
          GRAFT_ASSIGN_OR_RETURN(int64_t target, r.ReadSignedVarint());
          GRAFT_ASSIGN_OR_RETURN(EdgeValue ev, EdgeValue::Read(r));
          edges.push_back({target, std::move(ev)});
        }
        GRAFT_ASSIGN_OR_RETURN(uint64_t num_msgs, r.ReadVarint());
        std::vector<Message> inbox;
        inbox.reserve(num_msgs);
        for (uint64_t m = 0; m < num_msgs; ++m) {
          GRAFT_ASSIGN_OR_RETURN(Message msg, Message::Read(r));
          inbox.push_back(std::move(msg));
        }
        if (PartitionOf(id) != static_cast<size_t>(part)) {
          return Status::InvalidArgument(StrFormat(
              "vertex %lld checkpointed in partition %d but hashes to %zu "
              "— engine options do not match the checkpointing engine's",
              static_cast<long long>(id), part, PartitionOf(id)));
        }
        VertexT v(id, std::move(value), std::move(edges));
        if (halted) v.VoteToHalt();
        AddVertexInternal(std::move(v));
        msg_store_.RestoreInbox(
            static_cast<size_t>(part),
            partitions_[static_cast<size_t>(part)].vertices.size() - 1,
            std::move(inbox));
      }
      if (!r.AtEnd()) {
        return Status::Internal(StrFormat(
            "trailing bytes in checkpoint part %d", part));
      }
      const Partition& p = partitions_[static_cast<size_t>(part)];
      const CheckpointMeta::PartitionCounters& c =
          meta.partitions[static_cast<size_t>(part)];
      if (p.alive_count != c.alive || p.edge_count != c.edges ||
          p.awake_count != c.awake) {
        return Status::Internal(StrFormat(
            "checkpoint counter drift in partition %d: alive %llu/%llu "
            "edges %llu/%llu awake %llu/%llu (restored/meta)",
            part, static_cast<unsigned long long>(p.alive_count),
            static_cast<unsigned long long>(c.alive),
            static_cast<unsigned long long>(p.edge_count),
            static_cast<unsigned long long>(c.edges),
            static_cast<unsigned long long>(p.awake_count),
            static_cast<unsigned long long>(c.awake)));
      }
    }
  }
  restored_aggregators_ = std::move(meta.aggregators);
  restored_per_superstep_ = std::move(meta.per_superstep);
  restored_total_messages_ = meta.total_messages;
  restored_total_messages_dropped_ = meta.total_messages_dropped;
  restored_pending_ = meta.pending_messages;
  restored_dropped_ = meta.messages_dropped_at_resume;
  resume_superstep_ = superstep;
  last_committed_checkpoint_ = superstep;
  recovered_ = true;
  UpdateTotalsFromPartitions();
  restore_seconds_ = clock.ElapsedSeconds();
  gauge_restore_seconds_->Set(restore_seconds_);
  return Status::OK();
}

/// Serializes the engine state at the start of superstep `superstep` into
/// options_.checkpoint.store. Two protocols (CheckpointOptions::mode):
///
///  * kFull — self-contained per-partition records (all varint-coded):
///      alive_count, then per alive vertex in slot order:
///        id, value, halted, num_edges, (target, edge_value)*,
///        inbox_size, message*
///  * kDelta — the topology (id/degree pairs + packed length-prefixed
///    edges) goes to a once-per-mutation-epoch part; the checkpoint itself
///    writes, and only for partitions dirtied since their last value part,
///        alive_count, then per alive vertex in slot order:
///          length-prefixed value, halted
///    Clean partitions are header-only — the meta's base_superstep keeps
///    pointing at their previous part. Inboxes are never snapshotted;
///    recovery regenerates them by replaying the outbox log.
///
/// Slot order is load-bearing: restoring in this order reproduces the
/// original FlatIndex insertion order (dead slots compacted away), which
/// keeps every downstream iteration order — and hence traces — identical.
///
/// Commit protocol: delete leftovers of a previous partial attempt, spool
/// part + meta records through ckpt_sink_, then — immediately when
/// async_parts is off, at the end of the superstep otherwise (see
/// FinishPendingCheckpoint) — quiesce the sink, Flush, write the COMMIT
/// marker, Flush, GC. A crash mid-write leaves no COMMIT and the
/// checkpoint stays invisible to recovery.
template <JobTraits Traits>
Status Engine<Traits>::WriteCheckpoint(int64_t superstep, uint64_t delivered,
                                       uint64_t dropped,
                                       const JobStats& stats) {
  Stopwatch clock;
  obs::JournalSpan span(options_.journal, "checkpoint.write", "checkpoint",
                        -1, superstep);
  TraceStore& store = *options_.checkpoint.store;
  const bool delta = options_.checkpoint.delta();
  GRAFT_RETURN_NOT_OK(
      store.DeletePrefix(CheckpointDir(options_.job_id, superstep)));
  uint64_t bytes = 0;
  if (delta) {
    GRAFT_RETURN_NOT_OK(WriteTopologyEpochIfChanged());
  }
  BinaryWriter scratch;
  for (int part = 0; part < options_.num_workers; ++part) {
    Partition& p = partitions_[static_cast<size_t>(part)];
    if (delta && !p.dirty) continue;  // header-only delta
    BinaryWriter w;
    w.WriteVarint(p.alive_count);
    for (size_t i = 0; i < p.vertices.size(); ++i) {
      const VertexT& v = p.vertices[i];
      if (!v.alive()) continue;
      if (delta) {
        scratch.Clear();
        v.value().Write(scratch);
        w.WriteString(scratch.buffer());
        w.WriteBool(v.halted());
        continue;
      }
      w.WriteSignedVarint(v.id());
      v.value().Write(w);
      w.WriteBool(v.halted());
      w.WriteVarint(v.num_edges());
      for (const auto& e : v.edges()) {
        w.WriteSignedVarint(e.target);
        e.value.Write(w);
      }
      const std::vector<Message>& inbox =
          msg_store_.Inbox(static_cast<size_t>(part), i);
      w.WriteVarint(inbox.size());
      for (const Message& m : inbox) m.Write(w);
    }
    bytes += w.size();
    GRAFT_RETURN_NOT_OK(ckpt_sink_->Append(
        CheckpointPartFile(options_.job_id, superstep, part), w.buffer()));
    part_base_superstep_[static_cast<size_t>(part)] = superstep;
    p.dirty = false;
  }
  CheckpointMeta meta;
  meta.superstep = superstep;
  meta.num_partitions = options_.num_workers;
  meta.mode = options_.checkpoint.mode;
  meta.topology_epoch = delta ? topology_epoch_ : 0;
  meta.pending_messages = delivered;
  meta.messages_dropped_at_resume = dropped;
  for (size_t part = 0; part < partitions_.size(); ++part) {
    const Partition& p = partitions_[part];
    meta.partitions.push_back(
        {p.alive_count, p.edge_count, p.awake_count,
         delta ? part_base_superstep_[part] : superstep});
  }
  meta.aggregators = visible_aggregators_;
  meta.total_messages = stats.total_messages;
  meta.total_messages_dropped = stats.total_messages_dropped;
  meta.per_superstep = stats.per_superstep;
  const std::string meta_record = meta.Serialize();
  bytes += meta_record.size();
  GRAFT_RETURN_NOT_OK(ckpt_sink_->Append(
      CheckpointMetaFile(options_.job_id, superstep), meta_record));
  pending_checkpoint_ = true;
  pending_checkpoint_superstep_ = superstep;
  pending_checkpoint_bytes_ = bytes;
  pending_checkpoint_seconds_ = clock.ElapsedSeconds();
  span.End(bytes);
  if (!options_.checkpoint.async_parts) {
    return FinishPendingCheckpoint();
  }
  return Status::OK();
}

/// Delta mode: (re)writes the packed-topology parts when any mutation
/// happened since the last epoch, bumping the epoch and dirtying every
/// partition so the value deltas re-align with the new slot layout.
/// Per-partition record (all varint-coded):
///   alive_count, then per alive vertex in slot order: id, degree;
///   then per vertex, per edge: target, length-prefixed edge value.
template <JobTraits Traits>
Status Engine<Traits>::WriteTopologyEpochIfChanged() {
  if (!topology_changed_.exchange(false, std::memory_order_relaxed)) {
    return Status::OK();
  }
  ++topology_epoch_;
  TraceStore& store = *options_.checkpoint.store;
  GRAFT_RETURN_NOT_OK(store.DeletePrefix(
      CheckpointTopologyDir(options_.job_id, topology_epoch_)));
  BinaryWriter scratch;
  for (int part = 0; part < options_.num_workers; ++part) {
    Partition& p = partitions_[static_cast<size_t>(part)];
    BinaryWriter w;
    w.WriteVarint(p.alive_count);
    for (const VertexT& v : p.vertices) {
      if (!v.alive()) continue;
      w.WriteSignedVarint(v.id());
      w.WriteVarint(v.num_edges());
    }
    for (const VertexT& v : p.vertices) {
      if (!v.alive()) continue;
      for (const auto& e : v.edges()) {
        w.WriteSignedVarint(e.target);
        scratch.Clear();
        e.value.Write(scratch);
        w.WriteString(scratch.buffer());
      }
    }
    topology_bytes_ += w.size();
    ctr_topology_bytes_->Increment(w.size());
    GRAFT_RETURN_NOT_OK(ckpt_sink_->Append(
        CheckpointTopologyPartFile(options_.job_id, topology_epoch_, part),
        w.buffer()));
    p.dirty = true;
  }
  return Status::OK();
}

/// Second half of the commit protocol: quiesce the spool (every part is
/// durable in the store or the first latched error surfaces here), Flush,
/// COMMIT, Flush, GC. Runs at the end of the checkpointed superstep in
/// async mode — the store writes overlap master/compute instead of
/// stalling the boundary — and inline from WriteCheckpoint otherwise.
template <JobTraits Traits>
Status Engine<Traits>::FinishPendingCheckpoint() {
  if (!pending_checkpoint_) return Status::OK();
  pending_checkpoint_ = false;
  const int64_t superstep = pending_checkpoint_superstep_;
  Stopwatch clock;
  obs::JournalSpan span(options_.journal, "checkpoint.commit", "checkpoint",
                        -1, superstep);
  TraceStore& store = *options_.checkpoint.store;
  GRAFT_RETURN_NOT_OK(ckpt_sink_->Quiesce());
  GRAFT_RETURN_NOT_OK(store.Flush());
  GRAFT_RETURN_NOT_OK(store.Append(
      CheckpointCommitFile(options_.job_id, superstep), "ok"));
  GRAFT_RETURN_NOT_OK(store.Flush());
  GRAFT_RETURN_NOT_OK(GarbageCollectCheckpoints(store, options_.job_id,
                                                options_.checkpoint.keep));
  last_committed_checkpoint_ = superstep;
  ckpt_written_ += 1;
  ckpt_bytes_ += pending_checkpoint_bytes_;
  ckpt_seconds_ += pending_checkpoint_seconds_ + clock.ElapsedSeconds();
  ctr_checkpoints_->Increment();
  ctr_checkpoint_bytes_->Increment(pending_checkpoint_bytes_);
  gauge_checkpoint_seconds_->Set(ckpt_seconds_);
  span.End(pending_checkpoint_bytes_);
  return Status::OK();
}

template <JobTraits Traits>
void Engine<Traits>::DiscardPendingCheckpoint() {
  if (!pending_checkpoint_) return;
  pending_checkpoint_ = false;
  if (ckpt_sink_ != nullptr) ckpt_sink_->DiscardPending();
}

/// Delta mode, called from each delivery worker for its own partition
/// before Deliver() drains the outboxes: serializes every pending unit —
/// in the exact deterministic order Deliver() consumes them (senders
/// ascending; per sender, combined slots in first-touch order, then entry
/// units in append order) — into one log record. Targets are recorded by
/// vertex id, not slot: a restore compacts dead slots away, shifting slot
/// numbers. Record layout:
///   u8 version, superstep, partition, unit_count, then per unit:
///     u8 kind (0 combined / 1 entry), target id,
///     [combined only: pre-combining count], length-prefixed message
template <JobTraits Traits>
Status Engine<Traits>::AppendOutboxLog(int part) {
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFail(FaultSite::kLogAppend, part)) {
    return Status::Unavailable(StrFormat(
        "injected outbox-log append fault at superstep %lld, partition %d",
        static_cast<long long>(superstep_), part));
  }
  const size_t q = static_cast<size_t>(part);
  uint64_t units = 0;
  msg_store_.ForEachPending(
      q, [&](size_t, const Message&, uint32_t) { ++units; },
      [&](VertexId, const Message&) { ++units; });
  if (units == 0) return Status::OK();
  const Partition& p = partitions_[q];
  BinaryWriter w;
  BinaryWriter scratch;
  w.WriteU8(kOutboxLogVersion);
  w.WriteVarint(static_cast<uint64_t>(superstep_));
  w.WriteVarint(q);
  w.WriteVarint(units);
  msg_store_.ForEachPending(
      q,
      [&](size_t slot, const Message& value, uint32_t count) {
        w.WriteU8(0);
        w.WriteSignedVarint(p.vertices[slot].id());
        w.WriteVarint(count);
        scratch.Clear();
        value.Write(scratch);
        w.WriteString(scratch.buffer());
      },
      [&](VertexId target, const Message& message) {
        w.WriteU8(1);
        w.WriteSignedVarint(target);
        scratch.Clear();
        message.Write(scratch);
        w.WriteString(scratch.buffer());
      });
  log_bytes_.fetch_add(w.size(), std::memory_order_relaxed);
  ctr_log_bytes_->Increment(w.size());
  return ckpt_sink_->Append(OutboxLogFile(options_.job_id, superstep_, part),
                            w.buffer());
}

/// Delta mode: journals the aggregator values visible to this superstep's
/// compute (post-master, so SetAggregated overrides are included). The
/// confined replay loop reads these back instead of re-running the master.
template <JobTraits Traits>
Status Engine<Traits>::AppendAggLog() {
  if (visible_aggregators_.empty()) return Status::OK();
  BinaryWriter w;
  w.WriteVarint(visible_aggregators_.size());
  for (const auto& [name, value] : visible_aggregators_) {
    w.WriteString(name);
    value.Write(w);
  }
  log_bytes_.fetch_add(w.size(), std::memory_order_relaxed);
  ctr_log_bytes_->Increment(w.size());
  return ckpt_sink_->Append(OutboxAggFile(options_.job_id, superstep_),
                            w.buffer());
}

/// Replays the outbox log of superstep `s` into partition `part`'s
/// inboxes, mirroring Deliver()'s unit order and its alive/missing
/// verdicts. `delivered`/`dropped` (optional) accumulate pre-combining
/// counts for the meta assertion.
template <JobTraits Traits>
Status Engine<Traits>::ReplayLogIntoPartition(int64_t s, int part,
                                              uint64_t* delivered,
                                              uint64_t* dropped) {
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->ShouldFail(FaultSite::kLogReplay, part)) {
    return Status::Unavailable(StrFormat(
        "injected log-replay fault for superstep %lld, partition %d",
        static_cast<long long>(s), part));
  }
  TraceStore& store = *options_.checkpoint.store;
  const std::string file = OutboxLogFile(options_.job_id, s, part);
  // No log file means nothing was pending for this partition at s.
  if (!store.Exists(file)) return Status::OK();
  GRAFT_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         store.ReadAll(file));
  if (records.size() != 1) {
    return Status::Internal(
        StrFormat("outbox log %s has %zu records, want 1", file.c_str(),
                  records.size()));
  }
  const size_t q = static_cast<size_t>(part);
  Partition& p = partitions_[q];
  BinaryReader r(records[0]);
  GRAFT_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version != kOutboxLogVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported outbox log version %d", version));
  }
  GRAFT_ASSIGN_OR_RETURN(uint64_t rec_superstep, r.ReadVarint());
  GRAFT_ASSIGN_OR_RETURN(uint64_t rec_partition, r.ReadVarint());
  if (static_cast<int64_t>(rec_superstep) != s || rec_partition != q) {
    return Status::Internal(StrFormat(
        "outbox log %s claims superstep %llu partition %llu", file.c_str(),
        static_cast<unsigned long long>(rec_superstep),
        static_cast<unsigned long long>(rec_partition)));
  }
  GRAFT_ASSIGN_OR_RETURN(uint64_t units, r.ReadVarint());
  for (uint64_t u = 0; u < units; ++u) {
    GRAFT_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
    GRAFT_ASSIGN_OR_RETURN(int64_t target, r.ReadSignedVarint());
    uint64_t count = 1;
    if (kind == 0) {
      GRAFT_ASSIGN_OR_RETURN(count, r.ReadVarint());
    } else if (kind != 1) {
      return Status::Internal(
          StrFormat("unknown outbox log unit kind %d", kind));
    }
    GRAFT_ASSIGN_OR_RETURN(std::string payload, r.ReadString());
    BinaryReader pr(payload);
    GRAFT_ASSIGN_OR_RETURN(Message message, Message::Read(pr));
    const uint32_t slot = p.index.Find(target);
    const bool live =
        slot != FlatIndex::kNotFound && p.vertices[slot].alive();
    if (!live) {
      if (dropped != nullptr) *dropped += count;
      continue;
    }
    if (kind == 0) {
      msg_store_.ReplayCombined(q, slot, message);
    } else {
      msg_store_.ReplayEntry(q, slot, message);
    }
    if (delivered != nullptr) *delivered += count;
  }
  if (!r.AtEnd()) {
    return Status::Internal(
        StrFormat("trailing bytes in outbox log %s", file.c_str()));
  }
  return Status::OK();
}

/// Rebuilds one partition from a delta checkpoint: zips the topology part
/// of `epoch` (ids, degrees, packed edges) with the value part written at
/// `base` (values, halt flags) in slot order.
template <JobTraits Traits>
Status Engine<Traits>::RestorePartitionDelta(int part, int64_t epoch,
                                             int64_t base) {
  TraceStore& store = *options_.checkpoint.store;
  GRAFT_ASSIGN_OR_RETURN(
      std::vector<std::string> topo_records,
      store.ReadAll(
          CheckpointTopologyPartFile(options_.job_id, epoch, part)));
  if (topo_records.size() != 1) {
    return Status::Internal(StrFormat(
        "topology part %d of epoch %lld has %zu records, want 1", part,
        static_cast<long long>(epoch), topo_records.size()));
  }
  GRAFT_ASSIGN_OR_RETURN(
      std::vector<std::string> value_records,
      store.ReadAll(CheckpointPartFile(options_.job_id, base, part)));
  if (value_records.size() != 1) {
    return Status::Internal(StrFormat(
        "value part %d of checkpoint %lld has %zu records, want 1", part,
        static_cast<long long>(base), value_records.size()));
  }
  BinaryReader tr(topo_records[0]);
  BinaryReader vr(value_records[0]);
  GRAFT_ASSIGN_OR_RETURN(uint64_t alive, tr.ReadVarint());
  GRAFT_ASSIGN_OR_RETURN(uint64_t value_alive, vr.ReadVarint());
  if (alive != value_alive) {
    return Status::Internal(StrFormat(
        "partition %d: topology part holds %llu vertices, value part %llu",
        part, static_cast<unsigned long long>(alive),
        static_cast<unsigned long long>(value_alive)));
  }
  std::vector<int64_t> ids(alive);
  std::vector<uint64_t> degrees(alive);
  for (uint64_t i = 0; i < alive; ++i) {
    GRAFT_ASSIGN_OR_RETURN(ids[i], tr.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(degrees[i], tr.ReadVarint());
  }
  for (uint64_t i = 0; i < alive; ++i) {
    std::vector<typename VertexT::EdgeT> edges;
    edges.reserve(degrees[i]);
    for (uint64_t e = 0; e < degrees[i]; ++e) {
      GRAFT_ASSIGN_OR_RETURN(int64_t target, tr.ReadSignedVarint());
      GRAFT_ASSIGN_OR_RETURN(std::string edge_payload, tr.ReadString());
      BinaryReader er(edge_payload);
      GRAFT_ASSIGN_OR_RETURN(EdgeValue ev, EdgeValue::Read(er));
      edges.push_back({target, std::move(ev)});
    }
    GRAFT_ASSIGN_OR_RETURN(std::string value_payload, vr.ReadString());
    BinaryReader pr(value_payload);
    GRAFT_ASSIGN_OR_RETURN(VertexValue value, VertexValue::Read(pr));
    GRAFT_ASSIGN_OR_RETURN(bool halted, vr.ReadBool());
    if (PartitionOf(ids[i]) != static_cast<size_t>(part)) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld checkpointed in partition %d but hashes to %zu — "
          "engine options do not match the checkpointing engine's",
          static_cast<long long>(ids[i]), part, PartitionOf(ids[i])));
    }
    VertexT v(ids[i], std::move(value), std::move(edges));
    if (halted) v.VoteToHalt();
    AddVertexInternal(std::move(v));
  }
  if (!tr.AtEnd() || !vr.AtEnd()) {
    return Status::Internal(
        StrFormat("trailing bytes in delta parts of partition %d", part));
  }
  return Status::OK();
}

/// Delta half of RestoreFromCheckpoint: rebuild every partition from
/// topology + value parts, drop the failed attempt's log records past the
/// checkpoint, then regenerate the checkpointed superstep's inboxes by
/// replaying its outbox log — asserting the replayed delivery counts
/// against the meta's authoritative pending_messages.
template <JobTraits Traits>
Status Engine<Traits>::RestoreDelta(int64_t superstep,
                                    const CheckpointMeta& meta) {
  for (int part = 0; part < options_.num_workers; ++part) {
    const CheckpointMeta::PartitionCounters& c =
        meta.partitions[static_cast<size_t>(part)];
    GRAFT_RETURN_NOT_OK(
        RestorePartitionDelta(part, meta.topology_epoch, c.base_superstep));
    const Partition& p = partitions_[static_cast<size_t>(part)];
    if (p.alive_count != c.alive || p.edge_count != c.edges ||
        p.awake_count != c.awake) {
      return Status::Internal(StrFormat(
          "checkpoint counter drift in partition %d: alive %llu/%llu "
          "edges %llu/%llu awake %llu/%llu (restored/meta)",
          part, static_cast<unsigned long long>(p.alive_count),
          static_cast<unsigned long long>(c.alive),
          static_cast<unsigned long long>(p.edge_count),
          static_cast<unsigned long long>(c.edges),
          static_cast<unsigned long long>(p.awake_count),
          static_cast<unsigned long long>(c.awake)));
    }
  }
  GRAFT_RETURN_NOT_OK(DeleteOutboxLogsAfter(superstep));
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  for (int part = 0; part < options_.num_workers; ++part) {
    GRAFT_RETURN_NOT_OK(
        ReplayLogIntoPartition(superstep, part, &delivered, &dropped));
  }
  if (delivered != meta.pending_messages ||
      dropped != meta.messages_dropped_at_resume) {
    return Status::Internal(StrFormat(
        "outbox log replay disagrees with checkpoint %lld: replayed %llu "
        "delivered / %llu dropped, meta says %llu / %llu",
        static_cast<long long>(superstep),
        static_cast<unsigned long long>(delivered),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(meta.pending_messages),
        static_cast<unsigned long long>(meta.messages_dropped_at_resume)));
  }
  topology_epoch_ = meta.topology_epoch;
  for (size_t part = 0; part < partitions_.size(); ++part) {
    part_base_superstep_[part] = meta.partitions[part].base_superstep;
    partitions_[part].dirty = false;
  }
  topology_changed_.store(false, std::memory_order_relaxed);
  last_topology_change_superstep_.store(superstep,
                                        std::memory_order_relaxed);
  return Status::OK();
}

/// Drops outbox log dirs the failed attempt wrote past the checkpoint —
/// the resumed run re-executes those supersteps and re-appends them — and
/// the checkpointed superstep's aggregator record (its master re-runs on
/// resume and re-appends an identical one; keeping both would leave two
/// records in the file).
template <JobTraits Traits>
Status Engine<Traits>::DeleteOutboxLogsAfter(int64_t checkpoint) {
  TraceStore& store = *options_.checkpoint.store;
  const std::string prefix = OutboxRoot(options_.job_id);
  std::set<int64_t> doomed;
  for (const std::string& file : store.ListFiles(prefix)) {
    const std::optional<int64_t> s =
        ParseNumberedDir(std::string_view(file).substr(prefix.size()), "s");
    if (s.has_value() && *s > checkpoint) doomed.insert(*s);
  }
  for (int64_t s : doomed) {
    GRAFT_RETURN_NOT_OK(
        store.DeletePrefix(OutboxLogDir(options_.job_id, s)));
  }
  return store.DeletePrefix(OutboxAggFile(options_.job_id, checkpoint));
}

/// Confined recovery (delta mode): rebuilds the faulted partition in
/// place — restore it from its checkpoint parts, then roll it forward by
/// alternating outbox-log replay (regenerates each superstep's inbox) with
/// a single-partition re-run of the vertex phase under ReplayCtx — while
/// every healthy partition's state is left untouched. Preconditions
/// (checked before anything is destroyed): a committed checkpoint exists
/// and the topology has not changed since it; on failure the caller falls
/// back to the legacy global abort-and-restart path.
template <JobTraits Traits>
Status Engine<Traits>::ConfinedRecover(int part) {
  Stopwatch clock;
  GRAFT_RETURN_NOT_OK(FinishPendingCheckpoint());
  if (last_committed_checkpoint_ < 0) {
    return Status::FailedPrecondition(
        "confined recovery needs a committed checkpoint");
  }
  const int64_t checkpoint = last_committed_checkpoint_;
  if (last_topology_change_superstep_.load(std::memory_order_relaxed) >
      checkpoint) {
    return Status::FailedPrecondition(StrFormat(
        "topology mutated after checkpoint %lld — replay window is not "
        "slot-stable",
        static_cast<long long>(checkpoint)));
  }
  obs::JournalSpan span(options_.journal, "checkpoint.confined_recovery",
                        "checkpoint", part, superstep_);
  // Outbox records for this very superstep may still sit in the spool.
  GRAFT_RETURN_NOT_OK(ckpt_sink_->Quiesce());
  const size_t q = static_cast<size_t>(part);
  const uint64_t want_alive = partitions_[q].alive_count;
  const uint64_t want_edges = partitions_[q].edge_count;
  const uint64_t want_awake = partitions_[q].awake_count;
  // The rebuild below re-adds vertices through AddVertexInternal, which
  // flags topology changes; a confined rebuild reconstructs *existing*
  // topology, so the flags are restored once it is done.
  const bool saved_topology_changed =
      topology_changed_.load(std::memory_order_relaxed);
  const int64_t saved_last_change =
      last_topology_change_superstep_.load(std::memory_order_relaxed);
  partitions_[q] = Partition{};
  msg_store_.ResetPartition(q);
  GRAFT_RETURN_NOT_OK(
      RestorePartitionDelta(part, topology_epoch_, part_base_superstep_[q]));
  std::unique_ptr<Computation<Traits>> computation =
      options_.replay_computation != nullptr ? options_.replay_computation()
                                             : computation_factory_();
  GRAFT_CHECK(computation != nullptr);
  ReplayCtx ctx(this, part);
  for (int64_t s = checkpoint;; ++s) {
    GRAFT_RETURN_NOT_OK(ReplayLogIntoPartition(s, part, nullptr, nullptr));
    if (s == superstep_) break;
    GRAFT_RETURN_NOT_OK(ctx.BeginSuperstep(s));
    GRAFT_RETURN_NOT_OK(ReplayPartitionCompute(part, computation.get(),
                                               &ctx));
  }
  topology_changed_.store(saved_topology_changed,
                          std::memory_order_relaxed);
  last_topology_change_superstep_.store(saved_last_change,
                                        std::memory_order_relaxed);
  Partition& p = partitions_[q];
  if (p.alive_count != want_alive || p.edge_count != want_edges ||
      p.awake_count != want_awake) {
    return Status::Internal(StrFormat(
        "confined replay of partition %d diverged: alive %llu/%llu edges "
        "%llu/%llu awake %llu/%llu (replayed/expected)",
        part, static_cast<unsigned long long>(p.alive_count),
        static_cast<unsigned long long>(want_alive),
        static_cast<unsigned long long>(p.edge_count),
        static_cast<unsigned long long>(want_edges),
        static_cast<unsigned long long>(p.awake_count),
        static_cast<unsigned long long>(want_awake)));
  }
  p.dirty = true;  // conservatively rewrite its next value part
  ++confined_recoveries_;
  ctr_confined_recoveries_->Increment();
  obs::RecoveryEvent event;
  event.attempt = 0;
  event.restored_superstep = checkpoint;
  event.cause = StrFormat(
      "injected worker crash at superstep %lld, worker %d",
      static_cast<long long>(superstep_), part);
  event.restore_seconds = clock.ElapsedSeconds();
  event.confined = true;
  event.partition = part;
  restore_seconds_ += event.restore_seconds;
  gauge_restore_seconds_->Set(restore_seconds_);
  confined_events_.push_back(std::move(event));
  span.End(static_cast<uint64_t>(superstep_ - checkpoint));
  return Status::OK();
}

/// Re-runs one partition's vertex phase for the replay superstep held by
/// `ctx`. Mirrors RunWorker's iteration exactly — slot order, skip rules,
/// activate-then-compute, inbox cleared after — so the replayed value and
/// halt transitions are what the lost originals were. The replay window is
/// mutation-free by precondition, so a local edge mutation here means the
/// computation is not deterministic and the rebuild is rejected.
template <JobTraits Traits>
Status Engine<Traits>::ReplayPartitionCompute(int part,
                                              Computation<Traits>* computation,
                                              ReplayCtx* ctx) {
  Partition& p = partitions_[static_cast<size_t>(part)];
  int64_t awake_delta = 0;
  uint64_t active = 0;
  for (size_t i = 0; i < p.vertices.size(); ++i) {
    VertexT& v = p.vertices[i];
    if (!v.alive()) continue;
    std::vector<Message>& inbox =
        msg_store_.Inbox(static_cast<size_t>(part), i);
    if (v.halted() && inbox.empty()) continue;
    const bool was_awake = !v.halted();
    v.Activate();
    ++active;
    const int64_t edges_before = static_cast<int64_t>(v.num_edges());
    ctx->BeginVertex(v.id());
    try {
      computation->Compute(*ctx, v, inbox);
    } catch (const std::exception& e) {
      return Status::Internal(StrFormat(
          "exception during confined replay at superstep %lld, vertex "
          "%lld: %s",
          static_cast<long long>(ctx->superstep()),
          static_cast<long long>(v.id()), e.what()));
    } catch (...) {
      return Status::Internal(StrFormat(
          "exception during confined replay at superstep %lld, vertex %lld",
          static_cast<long long>(ctx->superstep()),
          static_cast<long long>(v.id())));
    }
    msg_store_.ClearInbox(static_cast<size_t>(part), i);
    if (static_cast<int64_t>(v.num_edges()) != edges_before) {
      return Status::Internal(StrFormat(
          "local edge mutation during confined replay at superstep %lld, "
          "vertex %lld",
          static_cast<long long>(ctx->superstep()),
          static_cast<long long>(v.id())));
    }
    if (was_awake && v.halted()) --awake_delta;
    if (!was_awake && !v.halted()) ++awake_delta;
  }
  p.awake_count = static_cast<uint64_t>(
      static_cast<int64_t>(p.awake_count) + awake_delta);
  confined_replayed_vertices_ += active;
  return Status::OK();
}

}  // namespace pregel
}  // namespace graft

#endif  // GRAFT_PREGEL_ENGINE_CHECKPOINT_H_
