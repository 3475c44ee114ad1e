#include "debug/debug_session.h"

#include <algorithm>
#include <set>

namespace graft {
namespace debug {

std::vector<int64_t> ListCapturedSupersteps(const TraceStore& store,
                                            const std::string& job_id) {
  std::set<int64_t> supersteps;
  const std::string prefix = JobTracePrefix(job_id);
  for (const std::string& file : store.ListFiles(prefix)) {
    const std::optional<int64_t> superstep = ParseNumberedDir(
        std::string_view(file).substr(prefix.size()), "superstep_");
    if (superstep.has_value()) supersteps.insert(*superstep);
  }
  return {supersteps.begin(), supersteps.end()};
}

Result<std::shared_ptr<const TraceIndex>> LoadTraceIndex(
    const TraceStore& store, const std::string& job_id,
    TraceBlockCache* cache) {
  const std::string file = ManifestFile(job_id);
  // Decodes the newest manifest record (the writer appends one per completed
  // run; a reused job id may hold older ones). A null value means "no
  // manifest": never cached, like a NotFound from racing a re-run's delete.
  auto decode = [&]() -> Result<std::pair<TraceBlockCache::AnyPtr, size_t>> {
    Result<std::vector<std::string>> records = store.ReadAll(file);
    if (records.status().IsNotFound() || (records.ok() && records->empty())) {
      return std::make_pair(TraceBlockCache::AnyPtr(), size_t{0});
    }
    GRAFT_RETURN_NOT_OK(records.status());
    auto index = std::make_shared<TraceIndex>();
    index->job_id = job_id;
    index->has_manifest = true;
    GRAFT_ASSIGN_OR_RETURN(index->manifest,
                           TraceManifest::Deserialize(records->back()));
    // Entries are sorted by (kind, superstep, vertex) and unique, so master
    // entries arrive in ascending superstep order, once each.
    std::set<int64_t> supersteps;
    for (const TraceManifestEntry& entry : index->manifest.entries) {
      supersteps.insert(entry.superstep);
      if (entry.kind == TraceRecordKind::kMaster) {
        index->master_supersteps.push_back(entry.superstep);
      }
    }
    index->supersteps.assign(supersteps.begin(), supersteps.end());
    const size_t bytes = sizeof(TraceIndex) + index->manifest.entries.size() *
                                                  sizeof(TraceManifestEntry);
    return std::make_pair(TraceBlockCache::AnyPtr(std::move(index)), bytes);
  };
  // Probe existence uncached, so only a present manifest's index is ever
  // cached. The key lives under the job's trace prefix so RunJob's
  // InvalidatePrefix drops it on re-run.
  if (store.Exists(file)) {
    TraceBlockCache::AnyPtr index;
    if (cache == nullptr) {
      GRAFT_ASSIGN_OR_RETURN(auto decoded, decode());
      index = std::move(decoded.first);
    } else {
      GRAFT_ASSIGN_OR_RETURN(
          index, cache->GetOrLoad(store.store_uid(), file + "#index", decode));
    }
    if (index != nullptr) {
      return std::static_pointer_cast<const TraceIndex>(index);
    }
  }
  auto scanned = std::make_shared<TraceIndex>();
  scanned->job_id = job_id;
  scanned->supersteps = ListCapturedSupersteps(store, job_id);
  return std::shared_ptr<const TraceIndex>(std::move(scanned));
}

Result<MasterTrace> ReadMasterTrace(const TraceStore& store,
                                    TraceBlockCache* cache,
                                    const TraceIndex& index,
                                    int64_t superstep) {
  auto missing = [&] {
    return Status::NotFound(
        StrFormat("no master trace for superstep %lld of job '%s'",
                  static_cast<long long>(superstep), index.job_id.c_str()));
  };
  if (index.has_manifest &&
      !std::binary_search(index.master_supersteps.begin(),
                          index.master_supersteps.end(), superstep)) {
    return missing();
  }
  const std::string file = MasterTraceFile(index.job_id, superstep);
  Result<std::string> record = cache != nullptr
                                   ? cache->ReadRecord(store, file, 0)
                                   : store.ReadRecord(file, 0);
  if (!record.ok()) {
    return record.status().IsNotFound() ? missing() : record.status();
  }
  return MasterTrace::Deserialize(*record);
}

}  // namespace debug
}  // namespace graft
