#ifndef GRAFT_IO_TRACE_BLOCK_CACHE_H_
#define GRAFT_IO_TRACE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "io/trace_store.h"
#include "obs/metrics.h"

namespace graft {


struct TraceBlockCacheOptions {
  /// Total byte budget across all shards. Decoded record blocks and
  /// type-erased entries (job indexes) count their payload bytes.
  size_t byte_budget = 64ull << 20;
  /// Power-of-two shard count; each shard owns budget/shards bytes and its
  /// own mutex + LRU list, so concurrent readers on different files don't
  /// serialize on one lock.
  int shards = 8;
};

/// Process-wide sharded LRU over decoded trace data (DESIGN.md §13): the
/// read-side counterpart of the capture pipeline. Concurrent DebugSession
/// readers — the debug service's handler threads — share one cache so a hot
/// job's record blocks and index are decoded once and every further point
/// lookup is an in-memory index probe instead of a store rescan.
///
/// Two entry planes share the budget and the LRU discipline:
///  - file blocks: the full record vector of one trace file
///    (`GetFileBlock`), the unit the manifest's record ordinals index into;
///  - type-erased entries (`GetOrLoad`): each job's decoded TraceIndex,
///    cached by the debug layer without this layer depending on it.
///
/// Keys carry the owning store's `store_uid()`, so a store that dies and a
/// new one reusing its address can never read each other's blocks. Entries
/// are `shared_ptr<const ...>`: eviction never invalidates a block a reader
/// is still holding.
///
/// Writers (RunJob) call `InvalidatePrefix(store, "<job_id>/")` before
/// re-running a job id, mirroring the stale-manifest delete.
class TraceBlockCache {
 public:
  using Block = std::vector<std::string>;
  using BlockPtr = std::shared_ptr<const Block>;
  using AnyPtr = std::shared_ptr<const void>;
  /// Loader for type-erased entries: returns the value and its byte charge.
  using AnyLoader = std::function<Result<std::pair<AnyPtr, size_t>>()>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  explicit TraceBlockCache(TraceBlockCacheOptions options = {});
  TraceBlockCache(const TraceBlockCache&) = delete;
  TraceBlockCache& operator=(const TraceBlockCache&) = delete;

  /// The process-wide instance the debug service and RunJob share.
  static TraceBlockCache& Global();

  /// All records of `file`, decoded once and shared. Misses call
  /// `store.ReadAll` and insert; a concurrent miss on the same key may load
  /// twice but only one result is kept.
  Result<BlockPtr> GetFileBlock(const TraceStore& store,
                                const std::string& file);

  /// One record by append ordinal, served from the file's cached block.
  /// Warm calls do zero store reads.
  Result<std::string> ReadRecord(const TraceStore& store,
                                 const std::string& file, uint64_t index);

  /// Type-erased get-or-load keyed by (store uid, key). The caller supplies
  /// the decode; `key` should be namespaced ("<job>/manifest.idx#index"). The
  /// pointed-to value must be immutable.
  Result<AnyPtr> GetOrLoad(uint64_t store_uid, const std::string& key,
                           const AnyLoader& loader);

  /// Drops every entry of `store` whose key starts with `prefix` (a job's
  /// trace directory). Called before a job id is re-run.
  void InvalidatePrefix(const TraceStore& store, const std::string& prefix);

  /// Drops everything (tests, between bench repetitions).
  void Clear();

  Stats stats() const;
  size_t byte_budget() const { return options_.byte_budget; }

  /// Publishes the counters as tracecache.* gauges/counters into `registry`.
  /// Values are Set(), so repeated scrapes are idempotent.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct Entry {
    std::string key;  // user key (uid is the map key's partner)
    uint64_t store_uid = 0;
    AnyPtr value;
    size_t bytes = 0;
    std::list<Entry*>::iterator lru_it;
  };

  struct alignas(64) Shard {
    std::mutex mutex;
    /// "uid/key" -> entry. The entry owns its LRU node.
    std::unordered_map<std::string, std::unique_ptr<Entry>> map;
    /// Front = most recently used.
    std::list<Entry*> lru;
    size_t bytes = 0;
  };

  static std::string MapKey(uint64_t store_uid, const std::string& key);
  Shard& ShardFor(const std::string& map_key);
  /// Inserts under the shard lock, evicting LRU entries past the shard
  /// budget. Keeps an existing entry (first loader wins) and returns it.
  AnyPtr InsertLocked(Shard& shard, const std::string& map_key,
                      uint64_t store_uid, const std::string& key, AnyPtr value,
                      size_t bytes);

  TraceBlockCacheOptions options_;
  size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};


}  // namespace graft

#endif  // GRAFT_IO_TRACE_BLOCK_CACHE_H_
