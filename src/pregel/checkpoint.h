#ifndef GRAFT_PREGEL_CHECKPOINT_H_
#define GRAFT_PREGEL_CHECKPOINT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "io/trace_store.h"
#include "pregel/agg_value.h"
#include "pregel/job_stats.h"

namespace graft {
namespace pregel {

/// What a checkpoint persists (DESIGN.md §12).
///
///  * kFull — the legacy snapshot: vertex values, edges, halt flags, and the
///    full pending inboxes, rewritten every checkpointed superstep.
///  * kDelta — the lightweight FTPregel-style protocol: immutable topology
///    (CSR-style packed edges) is written once per mutation epoch; each
///    checkpoint writes only vertex values + halt flags for partitions that
///    changed since their last value part (clean partitions are header-only
///    — the meta just points at their previous value part); pending inboxes
///    are never snapshotted — every delivery appends the per-partition
///    outbox to a message log and recovery *regenerates* inboxes by
///    replaying it. Delta mode also runs confined recovery: a failure at one
///    partition rolls back and recomputes only that partition, falling back
///    to a global rollback when there is no committed checkpoint yet or the
///    topology mutated since it.
enum class CheckpointMode : uint8_t {
  kFull = 0,
  kDelta = 1,
};

/// Checkpoint policy, part of Engine::Options / JobSpec (DESIGN.md "Fault
/// tolerance & recovery"). A checkpoint labelled S snapshots the engine's
/// state at the *start* of superstep S — after the previous superstep's
/// mutations were applied and its messages delivered into inboxes, before
/// master/compute run — so recovery resumes by executing superstep S.
struct CheckpointOptions {
  /// Supersteps between checkpoints; 0 disables checkpointing. When > 0 the
  /// engine also writes checkpoint 0 (the loaded input graph) before the
  /// first superstep, so any later failure has a recovery point.
  int64_t interval = 0;
  /// Where checkpoints are written. JobSpec defaults this to the job's
  /// trace store; plain (non-debug) jobs must set it explicitly.
  TraceStore* store = nullptr;
  /// Committed checkpoints retained; older ones are garbage-collected via
  /// DeletePrefix after each successful commit.
  int keep = 1;
  /// Snapshot protocol. kDelta is the production recommendation (see the
  /// EXPERIMENTS.md overhead table); kFull remains the default for
  /// compatibility with jobs that inspect raw checkpoint parts.
  CheckpointMode mode = CheckpointMode::kFull;
  /// Spool part/meta writes through an async sink and quiesce before COMMIT
  /// (keeps store latency off the superstep barrier); set false to force
  /// the synchronous single-shot commit.
  bool async_parts = true;

  bool enabled() const { return interval > 0 && store != nullptr; }
  bool delta() const { return mode == CheckpointMode::kDelta; }
};

/// Checkpoint file layout inside the TraceStore. The `checkpoints/` root
/// keeps checkpoint files disjoint from the job's trace files (which live
/// under `<job_id>/...`), so trace pruning and checkpoint GC cannot step on
/// each other.
///
///   checkpoints/<job>/superstep_%06lld/part-%03d   one record per partition
///   checkpoints/<job>/superstep_%06lld/meta        CheckpointMeta record
///   checkpoints/<job>/superstep_%06lld/COMMIT      written last, after Flush
///
/// Delta mode adds two sibling trees (ListCommittedCheckpoints keys on the
/// `superstep_*/COMMIT` shape, so these never masquerade as checkpoints):
///
///   checkpoints/<job>/topology_%06lld/part-%03d    packed edges, one write
///                                                  per mutation epoch
///   checkpoints/<job>/outbox/s%06lld/part-%03d     logged outbox units
///                                                  delivered at superstep s
///                                                  into each partition
///   checkpoints/<job>/outbox/s%06lld/aggs          aggregator values visible
///                                                  to compute at s (only
///                                                  when non-empty)
inline std::string CheckpointJobPrefix(const std::string& job_id) {
  return "checkpoints/" + job_id + "/";
}
inline std::string CheckpointDir(const std::string& job_id,
                                 int64_t superstep) {
  return StrFormat("checkpoints/%s/superstep_%06lld/", job_id.c_str(),
                   static_cast<long long>(superstep));
}
inline std::string CheckpointPartFile(const std::string& job_id,
                                      int64_t superstep, int partition) {
  return CheckpointDir(job_id, superstep) + StrFormat("part-%03d", partition);
}
inline std::string CheckpointMetaFile(const std::string& job_id,
                                      int64_t superstep) {
  return CheckpointDir(job_id, superstep) + "meta";
}
inline std::string CheckpointCommitFile(const std::string& job_id,
                                        int64_t superstep) {
  return CheckpointDir(job_id, superstep) + "COMMIT";
}
inline std::string CheckpointTopologyDir(const std::string& job_id,
                                         int64_t epoch) {
  return StrFormat("checkpoints/%s/topology_%06lld/", job_id.c_str(),
                   static_cast<long long>(epoch));
}
inline std::string CheckpointTopologyPartFile(const std::string& job_id,
                                              int64_t epoch, int partition) {
  return CheckpointTopologyDir(job_id, epoch) +
         StrFormat("part-%03d", partition);
}
inline std::string OutboxRoot(const std::string& job_id) {
  return CheckpointJobPrefix(job_id) + "outbox/";
}
inline std::string OutboxLogDir(const std::string& job_id,
                                int64_t superstep) {
  return StrFormat("checkpoints/%s/outbox/s%06lld/", job_id.c_str(),
                   static_cast<long long>(superstep));
}
inline std::string OutboxLogFile(const std::string& job_id, int64_t superstep,
                                 int partition) {
  return OutboxLogDir(job_id, superstep) + StrFormat("part-%03d", partition);
}
inline std::string OutboxAggFile(const std::string& job_id,
                                 int64_t superstep) {
  return OutboxLogDir(job_id, superstep) + "aggs";
}

/// Everything a checkpoint needs beyond the per-partition vertex records:
/// resume coordinates, consistency counters, aggregator state, and the
/// JobStats prefix of the supersteps already executed (so a recovered run
/// reports complete whole-job statistics).
struct CheckpointMeta {
  static constexpr uint8_t kFormatVersion = 2;

  int64_t superstep = 0;
  int num_partitions = 0;
  /// Snapshot protocol this checkpoint was written with; dictates how
  /// restore rebuilds state (kFull reads self-contained part files, kDelta
  /// zips topology parts with value deltas and replays the outbox log).
  CheckpointMode mode = CheckpointMode::kFull;
  /// Delta mode: the mutation epoch whose topology parts this checkpoint's
  /// value deltas align with (slot-for-slot). 0 in full mode.
  int64_t topology_epoch = 0;
  /// The authoritative count of messages pending at the start of
  /// `superstep` — every message delivered into an inbox by the delivery
  /// phase of `superstep`, counted pre-combining. In full mode the inbox
  /// snapshot stands in for delivery on resume and this count re-credits the
  /// termination check; in delta mode recovery regenerates the same inboxes
  /// by replaying the outbox log and *asserts* the replayed count equals
  /// this value (a mismatch means the log and checkpoint disagree and the
  /// restore is rejected).
  uint64_t pending_messages = 0;
  /// Messages dropped by the delivery phase of `superstep` (delivery runs
  /// before the checkpoint boundary, but the drop count lands in the
  /// superstep's stats entry recorded after it — a resumed run must
  /// re-credit it or under-report drops versus the fault-free run). Delta
  /// replay asserts this too.
  uint64_t messages_dropped_at_resume = 0;
  /// Per-partition (alive, edge, awake) counters for restore validation,
  /// plus the superstep whose value part holds this partition's state —
  /// equal to `superstep` when the partition was dirty at the boundary,
  /// older when the checkpoint carried a header-only delta for it. Always
  /// equal to `superstep` in full mode.
  struct PartitionCounters {
    uint64_t alive = 0;
    uint64_t edges = 0;
    uint64_t awake = 0;
    int64_t base_superstep = 0;
  };
  std::vector<PartitionCounters> partitions;
  /// Aggregator values visible at the start of `superstep` (merged at the
  /// end of superstep-1). Specs are re-registered by master Initialize on
  /// recovery, so only values are persisted.
  std::map<std::string, AggValue> aggregators;
  // JobStats prefix for supersteps 0 .. superstep-1.
  uint64_t total_messages = 0;
  uint64_t total_messages_dropped = 0;
  std::vector<SuperstepStats> per_superstep;

  std::string Serialize() const {
    BinaryWriter w;
    w.WriteU8(kFormatVersion);
    w.WriteU8(static_cast<uint8_t>(mode));
    w.WriteVarint(static_cast<uint64_t>(superstep));
    w.WriteVarint(static_cast<uint64_t>(num_partitions));
    w.WriteVarint(static_cast<uint64_t>(topology_epoch));
    w.WriteVarint(pending_messages);
    w.WriteVarint(messages_dropped_at_resume);
    for (const PartitionCounters& p : partitions) {
      w.WriteVarint(p.alive);
      w.WriteVarint(p.edges);
      w.WriteVarint(p.awake);
      w.WriteVarint(static_cast<uint64_t>(p.base_superstep));
    }
    w.WriteVarint(aggregators.size());
    for (const auto& [name, value] : aggregators) {
      w.WriteString(name);
      value.Write(w);
    }
    w.WriteVarint(total_messages);
    w.WriteVarint(total_messages_dropped);
    w.WriteVarint(per_superstep.size());
    for (const SuperstepStats& ss : per_superstep) {
      w.WriteVarint(static_cast<uint64_t>(ss.superstep));
      w.WriteVarint(ss.active_vertices);
      w.WriteVarint(ss.messages_sent);
      w.WriteVarint(ss.messages_dropped);
      w.WriteVarint(ss.vertices_removed);
      w.WriteVarint(ss.edges_added);
      w.WriteVarint(ss.edges_removed);
      w.WriteDouble(ss.seconds);
    }
    return std::move(w.TakeBuffer());
  }

  static Result<CheckpointMeta> Parse(std::string_view data) {
    BinaryReader r(data);
    CheckpointMeta meta;
    GRAFT_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
    if (version != kFormatVersion) {
      return Status::InvalidArgument(
          StrFormat("unsupported checkpoint format version %d", version));
    }
    GRAFT_ASSIGN_OR_RETURN(uint8_t mode, r.ReadU8());
    if (mode > static_cast<uint8_t>(CheckpointMode::kDelta)) {
      return Status::InvalidArgument(
          StrFormat("unknown checkpoint mode %d", mode));
    }
    meta.mode = static_cast<CheckpointMode>(mode);
    GRAFT_ASSIGN_OR_RETURN(uint64_t superstep, r.ReadVarint());
    meta.superstep = static_cast<int64_t>(superstep);
    GRAFT_ASSIGN_OR_RETURN(uint64_t parts, r.ReadVarint());
    meta.num_partitions = static_cast<int>(parts);
    GRAFT_ASSIGN_OR_RETURN(uint64_t epoch, r.ReadVarint());
    meta.topology_epoch = static_cast<int64_t>(epoch);
    GRAFT_ASSIGN_OR_RETURN(meta.pending_messages, r.ReadVarint());
    GRAFT_ASSIGN_OR_RETURN(meta.messages_dropped_at_resume, r.ReadVarint());
    meta.partitions.resize(parts);
    for (uint64_t p = 0; p < parts; ++p) {
      GRAFT_ASSIGN_OR_RETURN(meta.partitions[p].alive, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(meta.partitions[p].edges, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(meta.partitions[p].awake, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(uint64_t base, r.ReadVarint());
      meta.partitions[p].base_superstep = static_cast<int64_t>(base);
    }
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_aggs, r.ReadVarint());
    for (uint64_t i = 0; i < num_aggs; ++i) {
      GRAFT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      GRAFT_ASSIGN_OR_RETURN(AggValue value, AggValue::Read(r));
      meta.aggregators.emplace(std::move(name), std::move(value));
    }
    GRAFT_ASSIGN_OR_RETURN(meta.total_messages, r.ReadVarint());
    GRAFT_ASSIGN_OR_RETURN(meta.total_messages_dropped, r.ReadVarint());
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_ss, r.ReadVarint());
    meta.per_superstep.resize(num_ss);
    for (uint64_t i = 0; i < num_ss; ++i) {
      SuperstepStats& ss = meta.per_superstep[i];
      GRAFT_ASSIGN_OR_RETURN(uint64_t s, r.ReadVarint());
      ss.superstep = static_cast<int64_t>(s);
      GRAFT_ASSIGN_OR_RETURN(ss.active_vertices, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.messages_sent, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.messages_dropped, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.vertices_removed, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.edges_added, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.edges_removed, r.ReadVarint());
      GRAFT_ASSIGN_OR_RETURN(ss.seconds, r.ReadDouble());
    }
    return meta;
  }
};

/// Supersteps of all committed checkpoints for `job_id`, ascending. A
/// checkpoint is committed iff its COMMIT marker exists — partially-written
/// checkpoints (a crash mid-write) are invisible to recovery.
inline std::vector<int64_t> ListCommittedCheckpoints(
    const TraceStore& store, const std::string& job_id) {
  const std::string prefix = CheckpointJobPrefix(job_id);
  std::vector<int64_t> supersteps;
  for (const std::string& file : store.ListFiles(prefix)) {
    const std::string_view rest = std::string_view(file).substr(prefix.size());
    const std::optional<int64_t> s = ParseNumberedDir(rest, "superstep_");
    if (s.has_value() && rest.substr(rest.find('/') + 1) == "COMMIT") {
      supersteps.push_back(*s);
    }
  }
  std::sort(supersteps.begin(), supersteps.end());
  return supersteps;
}

/// Latest committed checkpoint, or NotFound when the job has none.
inline Result<int64_t> LatestCommittedCheckpoint(const TraceStore& store,
                                                 const std::string& job_id) {
  std::vector<int64_t> all = ListCommittedCheckpoints(store, job_id);
  if (all.empty()) {
    return Status::NotFound("no committed checkpoint for job '" + job_id +
                            "'");
  }
  return all.back();
}

/// Deletes all but the newest `keep` committed checkpoints (and any
/// uncommitted leftovers older than the newest kept one). Delta-aware: a
/// kept delta checkpoint may reference *older* superstep dirs (header-only
/// value deltas point clean partitions at their previous value part) and a
/// topology epoch dir, so the kept metas are read first and everything they
/// reference survives; outbox log dirs older than the oldest kept checkpoint
/// are pruned too (replay never reaches before it). A kept meta that cannot
/// be read is treated as full-mode (it references nothing beyond its own
/// dir) — restore will surface the real error if the checkpoint is chosen.
inline Status GarbageCollectCheckpoints(TraceStore& store,
                                        const std::string& job_id, int keep) {
  if (keep < 1) keep = 1;
  std::vector<int64_t> all = ListCommittedCheckpoints(store, job_id);
  if (all.empty()) return Status::OK();
  const size_t kept_begin = all.size() > static_cast<size_t>(keep)
                                ? all.size() - static_cast<size_t>(keep)
                                : 0;
  std::set<int64_t> live_supersteps;
  std::set<int64_t> live_epochs;
  bool any_delta = false;
  for (size_t i = kept_begin; i < all.size(); ++i) {
    live_supersteps.insert(all[i]);
    Result<std::vector<std::string>> records =
        store.ReadAll(CheckpointMetaFile(job_id, all[i]));
    if (!records.ok() || records->size() != 1) continue;
    Result<CheckpointMeta> meta = CheckpointMeta::Parse((*records)[0]);
    if (!meta.ok()) continue;
    if (meta->mode == CheckpointMode::kDelta) {
      any_delta = true;
      live_epochs.insert(meta->topology_epoch);
      for (const CheckpointMeta::PartitionCounters& p : meta->partitions) {
        live_supersteps.insert(p.base_superstep);
      }
    }
  }
  for (size_t i = 0; i < kept_begin; ++i) {
    if (live_supersteps.count(all[i]) != 0) continue;
    GRAFT_RETURN_NOT_OK(store.DeletePrefix(CheckpointDir(job_id, all[i])));
  }
  if (!any_delta) return Status::OK();
  // Prune unreferenced topology epochs and pre-checkpoint outbox logs. The
  // directory coordinates are parsed back out of the file listing; anything
  // that does not match the known shapes is left alone.
  const std::string prefix = CheckpointJobPrefix(job_id);
  std::set<int64_t> dead_epochs;
  std::set<int64_t> dead_logs;
  const int64_t oldest_kept = all[kept_begin];
  for (const std::string& file : store.ListFiles(prefix)) {
    const std::string_view rest = std::string_view(file).substr(prefix.size());
    if (const auto epoch = ParseNumberedDir(rest, "topology_")) {
      if (live_epochs.count(*epoch) == 0) dead_epochs.insert(*epoch);
    } else if (rest.starts_with("outbox/")) {
      const auto s = ParseNumberedDir(rest.substr(7), "s");
      if (s.has_value() && *s < oldest_kept) dead_logs.insert(*s);
    }
  }
  for (int64_t epoch : dead_epochs) {
    GRAFT_RETURN_NOT_OK(store.DeletePrefix(CheckpointTopologyDir(job_id,
                                                                 epoch)));
  }
  for (int64_t s : dead_logs) {
    GRAFT_RETURN_NOT_OK(store.DeletePrefix(OutboxLogDir(job_id, s)));
  }
  return Status::OK();
}

}  // namespace pregel
}  // namespace graft

#endif  // GRAFT_PREGEL_CHECKPOINT_H_
