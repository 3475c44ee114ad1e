#ifndef GRAFT_DEBUG_DEBUG_SESSION_H_
#define GRAFT_DEBUG_DEBUG_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/predicate.h"
#include "common/result.h"
#include "common/string_util.h"
#include "debug/capture_manager.h"
#include "debug/vertex_trace.h"
#include "io/trace_block_cache.h"
#include "io/trace_store.h"

namespace graft {
namespace debug {

/// Filter for DebugSession::Select. Unset fields match everything; set
/// fields are conjunctive.
struct TraceQuery {
  std::optional<int64_t> superstep;
  std::optional<VertexId> vertex;
  /// Any-of reason bits (CaptureReason mask); 0 matches every reason.
  uint32_t reason_mask = 0;
  bool only_exceptions = false;
  bool only_violations = false;
  /// Compiled predicate-DSL filter (DESIGN.md §14), evaluated against each
  /// candidate trace via PredicateInputFromTrace. Null matches everything.
  /// Shared so concurrent readers can reuse one compiled expression.
  std::shared_ptr<const analysis::Predicate> predicate;
};

/// The decoded index of one job (DESIGN.md §10): immutable, and shared by
/// every DebugSession and service view of the job.
struct TraceIndex {
  std::string job_id;
  /// False for a manifest-less job (crashed mid-run, or seed-format): a
  /// directory scan filled `supersteps`; the other members are empty.
  bool has_manifest = false;
  TraceManifest manifest;
  /// Supersteps with at least one captured record, ascending.
  std::vector<int64_t> supersteps;
  /// Supersteps with a master trace, ascending.
  std::vector<int64_t> master_supersteps;
};

/// The index of `job_id`. A manifest is decoded and validated once per
/// (store, job) residency in `cache` (nullptr = uncached, decoded on every
/// call). A job without one gets an uncached directory scan: absence is
/// never cached, so a job that finishes later becomes manifest-backed on the
/// next call. Fails only on a corrupt manifest, never on a missing one.
Result<std::shared_ptr<const TraceIndex>> LoadTraceIndex(
    const TraceStore& store, const std::string& job_id,
    TraceBlockCache* cache);

/// Supersteps for which any vertex or master trace exists, ascending: the
/// directory scan behind the index of a manifest-less job.
std::vector<int64_t> ListCapturedSupersteps(const TraceStore& store,
                                            const std::string& job_id);

/// The master trace of `superstep`, read through `cache` when non-null.
/// Manifest-backed jobs answer absence from the index without probing the
/// store: the cache never holds negative entries, so a probe for a missing
/// file would cost one store read (and one cache miss) on every call.
Result<MasterTrace> ReadMasterTrace(const TraceStore& store,
                                    TraceBlockCache* cache,
                                    const TraceIndex& index,
                                    int64_t superstep);

/// The one read API over a job's captured traces (DESIGN.md §10): open a
/// job, then query captures by superstep / vertex / reason / exception as
/// typed records. Views, the reproducer, and test codegen all consume this
/// instead of parsing trace files themselves.
///
/// When the job wrote a manifest (every successful run since format v2),
/// point lookups — FindVertexTrace, VertexHistory, Master — binary-search
/// the shared TraceIndex and read one record each. Without one (crashed
/// mid-run, or a seed-format job) every query transparently degrades to the
/// historical directory scan. Records with an unknown format version or
/// kind are skipped, not fatal.
template <pregel::JobTraits Traits>
class DebugSession {
 public:
  /// Opens a job for reading. `store` must outlive the session. Fails only
  /// on a corrupt manifest, never on a missing one. With a non-null `cache`
  /// (which must also outlive the session) the job's index and every record
  /// block come from the shared TraceBlockCache, so concurrent sessions over
  /// the same job share one decoded index and warm point lookups do zero
  /// store reads.
  static Result<DebugSession> Open(const TraceStore* store,
                                   const std::string& job_id,
                                   TraceBlockCache* cache = nullptr) {
    GRAFT_ASSIGN_OR_RETURN(std::shared_ptr<const TraceIndex> index,
                           LoadTraceIndex(*store, job_id, cache));
    return DebugSession(store, cache, std::move(index));
  }

  const std::string& job_id() const { return index_->job_id; }
  const TraceStore& store() const { return *store_; }
  bool has_manifest() const { return index_->has_manifest; }

  /// Supersteps with at least one captured record, ascending.
  const std::vector<int64_t>& supersteps() const {
    return index_->supersteps;
  }

  /// All vertex traces captured in `superstep`, ordered by vertex id. The
  /// index names the superstep's worker files; only a manifest-less job
  /// lists the superstep directory.
  Result<std::vector<VertexTrace<Traits>>> VertexTraces(
      int64_t superstep) const {
    std::vector<VertexTrace<Traits>> traces;
    for (const std::string& file : VertexTraceFiles(superstep)) {
      GRAFT_ASSIGN_OR_RETURN(TraceBlockCache::BlockPtr records,
                             ReadFileRecords(file));
      for (const std::string& record : *records) {
        GRAFT_ASSIGN_OR_RETURN(std::optional<VertexTrace<Traits>> trace,
                               DecodeVertexRecord(record));
        if (trace.has_value()) traces.push_back(*std::move(trace));
      }
    }
    std::sort(traces.begin(), traces.end(),
              [](const VertexTrace<Traits>& a, const VertexTrace<Traits>& b) {
                return a.id < b.id;
              });
    return traces;
  }

  /// The trace of one vertex in one superstep. O(1) store reads with a
  /// manifest; a scan of the superstep's files without.
  Result<VertexTrace<Traits>> FindVertexTrace(int64_t superstep,
                                              VertexId id) const {
    if (has_manifest()) {
      const TraceManifestEntry* entry =
          index_->manifest.Find(TraceRecordKind::kVertex, superstep, id);
      if (entry == nullptr) return NoTraceError(superstep, id);
      GRAFT_ASSIGN_OR_RETURN(
          std::string record,
          ReadOneRecord(VertexTraceFile(job_id(), superstep, entry->worker),
                        entry->record_index));
      GRAFT_ASSIGN_OR_RETURN(std::optional<VertexTrace<Traits>> trace,
                             DecodeVertexRecord(record));
      if (!trace.has_value()) return NoTraceError(superstep, id);
      return *std::move(trace);
    }
    GRAFT_ASSIGN_OR_RETURN(std::vector<VertexTrace<Traits>> traces,
                           VertexTraces(superstep));
    for (VertexTrace<Traits>& trace : traces) {
      if (trace.id == id) return std::move(trace);
    }
    return NoTraceError(superstep, id);
  }

  /// Every captured superstep of one vertex, ascending — the data behind
  /// the GUI's Next/Previous superstep replay.
  Result<std::vector<VertexTrace<Traits>>> VertexHistory(VertexId id) const {
    std::vector<VertexTrace<Traits>> history;
    for (int64_t superstep : supersteps()) {
      auto trace = FindVertexTrace(superstep, id);
      if (trace.ok()) history.push_back(std::move(trace).value());
    }
    return history;
  }

  /// The master trace of a superstep (see ReadMasterTrace).
  Result<MasterTrace> Master(int64_t superstep) const {
    return ReadMasterTrace(*store_, cache_, *index_, superstep);
  }

  /// Supersteps with a master trace, ascending (manifest-backed jobs only;
  /// empty for directory-scan sessions).
  const std::vector<int64_t>& master_supersteps() const {
    return index_->master_supersteps;
  }

  /// Typed query across the whole job: captures matching every set filter,
  /// ordered by (superstep, vertex id).
  Result<std::vector<VertexTrace<Traits>>> Select(
      const TraceQuery& query) const {
    std::vector<VertexTrace<Traits>> out;
    auto matches = [&query](const VertexTrace<Traits>& t) {
      if (query.reason_mask != 0 && (t.reasons & query.reason_mask) == 0) {
        return false;
      }
      if (query.only_exceptions && !t.exception.has_value()) return false;
      if (query.only_violations && t.violations.empty()) return false;
      if (query.predicate != nullptr &&
          !query.predicate->Eval(
              analysis::PredicateInputFromTrace<Traits>(t))) {
        return false;
      }
      return true;
    };
    if (query.vertex.has_value()) {
      if (query.superstep.has_value()) {
        auto trace = FindVertexTrace(*query.superstep, *query.vertex);
        if (trace.ok() && matches(*trace)) {
          out.push_back(std::move(trace).value());
        } else if (!trace.ok() && !trace.status().IsNotFound()) {
          return trace.status();
        }
        return out;
      }
      GRAFT_ASSIGN_OR_RETURN(out, VertexHistory(*query.vertex));
      std::erase_if(out, [&](const VertexTrace<Traits>& t) {
        return !matches(t);
      });
      return out;
    }
    for (int64_t superstep : supersteps()) {
      if (query.superstep.has_value() && superstep != *query.superstep) {
        continue;
      }
      GRAFT_ASSIGN_OR_RETURN(std::vector<VertexTrace<Traits>> traces,
                             VertexTraces(superstep));
      for (VertexTrace<Traits>& trace : traces) {
        if (matches(trace)) out.push_back(std::move(trace));
      }
    }
    return out;
  }

  /// The cache this session reads through; nullptr when uncached.
  TraceBlockCache* cache() const { return cache_; }

 private:
  DebugSession(const TraceStore* store, TraceBlockCache* cache,
               std::shared_ptr<const TraceIndex> index)
      : store_(store), cache_(cache), index_(std::move(index)) {}

  std::vector<std::string> VertexTraceFiles(int64_t superstep) const {
    std::vector<std::string> files;
    if (has_manifest()) {
      std::vector<int32_t> workers;
      for (const TraceManifestEntry& e :
           index_->manifest.Range(TraceRecordKind::kVertex, superstep)) {
        workers.push_back(e.worker);
      }
      std::sort(workers.begin(), workers.end());
      workers.erase(std::unique(workers.begin(), workers.end()),
                    workers.end());
      for (int32_t worker : workers) {
        files.push_back(VertexTraceFile(job_id(), superstep, worker));
      }
      return files;
    }
    const std::string prefix =
        StrFormat("%s/superstep_%06lld/", job_id().c_str(),
                  static_cast<long long>(superstep));
    for (std::string& file : store_->ListFiles(prefix)) {
      if (file.ends_with(".vtrace")) files.push_back(std::move(file));
    }
    return files;
  }

  /// All records of one trace file: the shared cached block when a cache is
  /// attached, a private copy otherwise.
  Result<TraceBlockCache::BlockPtr> ReadFileRecords(
      const std::string& file) const {
    if (cache_ != nullptr) return cache_->GetFileBlock(*store_, file);
    GRAFT_ASSIGN_OR_RETURN(std::vector<std::string> records,
                           store_->ReadAll(file));
    return std::make_shared<const TraceBlockCache::Block>(std::move(records));
  }

  Result<std::string> ReadOneRecord(const std::string& file,
                                    uint64_t index) const {
    if (cache_ != nullptr) return cache_->ReadRecord(*store_, file, index);
    return store_->ReadRecord(file, index);
  }

  /// Decodes one vertex record, treating unknown-version/kind frames as
  /// skippable (returns nullopt) rather than fatal.
  static Result<std::optional<VertexTrace<Traits>>> DecodeVertexRecord(
      std::string_view record) {
    GRAFT_ASSIGN_OR_RETURN(ParsedTraceRecord parsed,
                           ParseTraceRecord(record));
    if (parsed.ShouldSkip()) return std::optional<VertexTrace<Traits>>();
    if (parsed.header.has_value() &&
        parsed.header->kind != TraceRecordKind::kVertex) {
      return std::optional<VertexTrace<Traits>>();
    }
    GRAFT_ASSIGN_OR_RETURN(VertexTrace<Traits> trace,
                           VertexTrace<Traits>::Deserialize(record));
    return std::optional<VertexTrace<Traits>>(std::move(trace));
  }

  Status NoTraceError(int64_t superstep, VertexId id) const {
    return Status::NotFound(StrFormat(
        "no trace for vertex %lld in superstep %lld of job '%s'",
        static_cast<long long>(id), static_cast<long long>(superstep),
        job_id().c_str()));
  }

  const TraceStore* store_;
  TraceBlockCache* cache_;
  std::shared_ptr<const TraceIndex> index_;
};

}  // namespace debug
}  // namespace graft

#endif  // GRAFT_DEBUG_DEBUG_SESSION_H_
