#ifndef GRAFT_DEBUG_VERTEX_TRACE_H_
#define GRAFT_DEBUG_VERTEX_TRACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/string_util.h"
#include "pregel/agg_value.h"
#include "pregel/vertex.h"

namespace graft {
namespace debug {

/// Why a vertex was captured — the five DebugConfig categories of §3.1 plus
/// neighbor-of-captured and capture-all-active. A single capture can have
/// several reasons (bitmask).
enum CaptureReason : uint32_t {
  kReasonSpecified = 1u << 0,       // category 1: listed by id
  kReasonRandom = 1u << 1,          // category 2: random sample member
  kReasonNeighbor = 1u << 2,        // neighbor of a category-1/2 vertex
  kReasonVertexValue = 1u << 3,     // category 3: vertex-value constraint
  kReasonMessageValue = 1u << 4,    // category 4: message-value constraint
  kReasonException = 1u << 5,       // category 5: Compute() threw
  kReasonAllActive = 1u << 6,       // capture-all-active mode
  kReasonBreakpoint = 1u << 7,      // conditional breakpoint predicate fired
};

/// "spec|random|nbr|vv|msg|exc|active" style rendering of a reason mask.
std::string CaptureReasonsToString(uint32_t reasons);

// ---------------------------------------------------------------------------
// Versioned record framing (DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// Every record appended to a trace file since format v2 is framed as
//
//   [magic u8 = 0xA7]
//   [header_len varint]
//   [header: version u8, kind u8, superstep svarint, vertex_id svarint,
//            ...future fields...]
//   [body: the kind-specific serialization]
//
// Readers skip header bytes beyond the fields they know (header_len bounds
// the header), so new header fields are forward-compatible. Records whose
// version or kind is unknown are skippable, not fatal. Seed-format ("v0")
// records have no frame: their first byte is the body version (0x01), which
// can never be the magic, so ParseTraceRecord transparently detects them.

inline constexpr uint8_t kTraceRecordMagic = 0xA7;
inline constexpr uint8_t kTraceFormatVersion = 2;

enum class TraceRecordKind : uint8_t {
  kVertex = 0,    // body is VertexTrace<Traits>
  kMaster = 1,    // body is MasterTrace
  kManifest = 2,  // body is TraceManifest
};

/// The envelope of one framed record. `superstep`/`vertex_id` duplicate the
/// body's leading fields so index builders and generic tooling (trace_dump)
/// can classify records without knowing the Traits type.
struct TraceRecordHeader {
  uint8_t version = kTraceFormatVersion;
  TraceRecordKind kind = TraceRecordKind::kVertex;
  int64_t superstep = 0;
  VertexId vertex_id = 0;  // 0 for master/manifest records

  friend bool operator==(const TraceRecordHeader&,
                         const TraceRecordHeader&) = default;
};

/// Writes the v2 frame of a record (magic, header length, header) to `w`;
/// the record's body follows it.
void WriteTraceRecordFrame(const TraceRecordHeader& header, BinaryWriter& w);

/// Frames `body` with a v2 header.
std::string EncodeTraceRecord(const TraceRecordHeader& header,
                              std::string_view body);

/// A parsed frame. `header` is empty for legacy (seed-format) records; in
/// that case `body` is the whole record and the caller must infer the kind
/// from the file name, as pre-v2 readers did.
struct ParsedTraceRecord {
  std::optional<TraceRecordHeader> header;
  std::string_view body;  // points into the input record

  /// True when this record's version/kind is unknown to this build and it
  /// should be skipped rather than decoded.
  bool ShouldSkip() const {
    return header.has_value() &&
           (header->version > kTraceFormatVersion ||
            static_cast<uint8_t>(header->kind) >
                static_cast<uint8_t>(TraceRecordKind::kManifest));
  }
};

/// Splits a record into header + body. Legacy records (first byte != magic)
/// parse successfully with an empty header. Fails only on a corrupt frame
/// (truncated header).
Result<ParsedTraceRecord> ParseTraceRecord(std::string_view record);

// ---------------------------------------------------------------------------
// Per-job manifest index (DESIGN.md §10)
// ---------------------------------------------------------------------------

/// One indexed record: (kind, superstep, vertex) → (worker file, append
/// ordinal). `record_index` is the offset unit of TraceStore::ReadRecord.
struct TraceManifestEntry {
  TraceRecordKind kind = TraceRecordKind::kVertex;
  int64_t superstep = 0;
  VertexId vertex_id = 0;
  int32_t worker = 0;  // worker index; -1 for master records
  uint64_t record_index = 0;

  friend bool operator==(const TraceManifestEntry&,
                         const TraceManifestEntry&) = default;
  friend auto operator<=>(const TraceManifestEntry&,
                          const TraceManifestEntry&) = default;
};

/// The index of a whole job, written as a single framed record to
/// ManifestFile(job_id) at the end of a successful run. Absence is not an
/// error: readers fall back to directory scans (e.g. crashed or pre-v2
/// jobs). Unknown trailing bytes after the entry array are ignored.
struct TraceManifest {
  /// Sorted by (kind, superstep, vertex_id), each key at most once — the
  /// order CaptureManager::WriteManifest emits and Deserialize enforces, so
  /// lookups are binary searches.
  std::vector<TraceManifestEntry> entries;

  /// Fully framed record (kind = kManifest), ready for TraceStore::Append.
  std::string Serialize() const;
  /// Fails on a corrupt record, and with InvalidArgument on entries that
  /// are not sorted and unique, so a bad manifest never yields a wrong
  /// lookup.
  static Result<TraceManifest> Deserialize(std::string_view record);

  /// The entries of one kind in one superstep, ordered by vertex id.
  std::span<const TraceManifestEntry> Range(TraceRecordKind kind,
                                            int64_t superstep) const;
  /// The entry of (kind, superstep, vertex), or nullptr.
  const TraceManifestEntry* Find(TraceRecordKind kind, int64_t superstep,
                                 VertexId vertex_id) const;
};

/// "<job_id>/manifest.idx" — deliberately outside the superstep_* directory
/// layout so recovery's PruneTracesFrom never deletes it.
std::string ManifestFile(const std::string& job_id);

/// Exception captured from a Compute() call (category 5). C++ has no
/// portable stack traces without a dependency; `context` carries the
/// synthesized frame description (algorithm, phase, vertex, superstep) that
/// the Violations & Exceptions view displays where the paper shows a Java
/// stack trace.
struct ExceptionInfo {
  std::string type;     // typeid name of the exception class
  std::string message;  // what()
  std::string context;  // synthesized "stack" context

  void Write(BinaryWriter& w) const {
    w.WriteString(type);
    w.WriteString(message);
    w.WriteString(context);
  }
  static Result<ExceptionInfo> Read(BinaryReader& r) {
    ExceptionInfo e;
    GRAFT_ASSIGN_OR_RETURN(e.type, r.ReadString());
    GRAFT_ASSIGN_OR_RETURN(e.message, r.ReadString());
    GRAFT_ASSIGN_OR_RETURN(e.context, r.ReadString());
    return e;
  }
  friend bool operator==(const ExceptionInfo&, const ExceptionInfo&) = default;
};

/// One constraint violation (categories 3/4). `detail` holds the offending
/// value rendered via ToString so the Violations view can show it without
/// re-deserializing typed values.
struct ViolationInfo {
  enum class Kind : uint8_t { kVertexValue = 0, kMessageValue = 1 };

  Kind kind = Kind::kVertexValue;
  VertexId source = 0;       // the captured vertex
  VertexId destination = 0;  // message target (kMessageValue only)
  std::string detail;

  void Write(BinaryWriter& w) const {
    w.WriteU8(static_cast<uint8_t>(kind));
    w.WriteSignedVarint(source);
    w.WriteSignedVarint(destination);
    w.WriteString(detail);
  }
  static Result<ViolationInfo> Read(BinaryReader& r) {
    ViolationInfo v;
    GRAFT_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
    if (kind > 1) {
      return Status::OutOfRange("bad ViolationInfo kind");
    }
    v.kind = static_cast<Kind>(kind);
    GRAFT_ASSIGN_OR_RETURN(v.source, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(v.destination, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(v.detail, r.ReadString());
    return v;
  }
  friend bool operator==(const ViolationInfo&, const ViolationInfo&) = default;
};

/// Body layout version of vertex records (the first body byte).
inline constexpr uint8_t kVertexTraceBodyVersion = 1;

template <pregel::JobTraits Traits>
struct VertexTrace;

/// The one vertex-record encoder (DESIGN.md §10). It writes a framed v2
/// vertex record in a single pass into buffers it keeps from record to
/// record, so a capturing worker, which owns one builder, stops allocating
/// once the buffers have grown. Per record:
///
///   Reset();                        // start a record
///   WriteEntry(...);                // the Compute() inputs: before the call
///                                   // for eager captures, after it for
///                                   // lazy ones
///   AddOutgoing / AddAggregation    // streamed while Compute() runs
///   Finish(...);                    // outcome, then header and reasons
///
/// The frame and the body's leading fields (superstep, id and the reasons,
/// known only once Compute() has returned) go into room reserved ahead of
/// the entry section, so no written byte is ever moved. VertexTrace, the
/// decoded form, encodes through this class too (Build).
template <pregel::JobTraits Traits>
class VertexRecordBuilder {
 public:
  using VertexValue = typename Traits::VertexValue;
  using Message = typename Traits::Message;
  using EdgeT = pregel::Edge<typename Traits::EdgeValue>;

  VertexRecordBuilder() { Reset(); }

  /// Discards the record in progress; buffers keep their capacity.
  void Reset() {
    record_.Clear();
    record_.WriteRaw(kZeros, kMaxPrefix);
    outgoing_.Clear();
    aggregations_.Clear();
    num_outgoing_ = 0;
    num_aggregations_ = 0;
    record_start_ = kMaxPrefix;
    body_start_ = kMaxPrefix;
  }

  /// The entry section: what Compute() was called with.
  void WriteEntry(const VertexValue& value_before,
                  std::span<const EdgeT> edges,
                  std::span<const Message> incoming,
                  const std::map<std::string, pregel::AggValue>& aggregators,
                  int64_t total_vertices, int64_t total_edges,
                  uint64_t rng_state, bool edges_snapshot_post) {
    value_before.Write(record_);
    record_.WriteVarint(edges.size());
    for (const EdgeT& e : edges) {
      record_.WriteSignedVarint(e.target);
      e.value.Write(record_);
    }
    record_.WriteVarint(incoming.size());
    for (const Message& m : incoming) m.Write(record_);
    record_.WriteVarint(aggregators.size());
    for (const auto& [name, value] : aggregators) {
      record_.WriteString(name);
      value.Write(record_);
    }
    record_.WriteSignedVarint(total_vertices);
    record_.WriteSignedVarint(total_edges);
    record_.WriteFixed64(rng_state);
    record_.WriteBool(edges_snapshot_post);
  }

  /// One sent message, in send order.
  void AddOutgoing(VertexId target, const Message& message) {
    outgoing_.WriteSignedVarint(target);
    message.Write(outgoing_);
    ++num_outgoing_;
  }

  /// One Aggregate() call, in call order.
  void AddAggregation(std::string_view name, const pregel::AggValue& value) {
    aggregations_.WriteString(name);
    value.Write(aggregations_);
    ++num_aggregations_;
  }

  /// Appends the outcome, fills in the frame and leading fields, and returns
  /// the finished record (valid until the next Reset).
  std::string_view Finish(int64_t superstep, VertexId id, uint32_t reasons,
                          const VertexValue& value_after, bool halted_after,
                          std::span<const ViolationInfo> violations,
                          const ExceptionInfo* exception) {
    value_after.Write(record_);
    record_.WriteBool(halted_after);
    record_.WriteVarint(num_outgoing_);
    record_.WriteRaw(outgoing_.buffer().data(), outgoing_.size());
    record_.WriteVarint(num_aggregations_);
    record_.WriteRaw(aggregations_.buffer().data(), aggregations_.size());
    record_.WriteVarint(violations.size());
    for (const ViolationInfo& v : violations) v.Write(record_);
    record_.WriteBool(exception != nullptr);
    if (exception != nullptr) exception->Write(record_);

    prefix_.Clear();
    WriteTraceRecordFrame(
        TraceRecordHeader{kTraceFormatVersion, TraceRecordKind::kVertex,
                          superstep, id},
        prefix_);
    const size_t frame_size = prefix_.size();
    prefix_.WriteU8(kVertexTraceBodyVersion);
    prefix_.WriteSignedVarint(superstep);
    prefix_.WriteSignedVarint(id);
    prefix_.WriteVarint(reasons);
    record_start_ = kMaxPrefix - prefix_.size();
    body_start_ = record_start_ + frame_size;
    record_.Overwrite(record_start_, prefix_.buffer());

    superstep_ = superstep;
    id_ = id;
    reasons_ = reasons;
    num_violations_ = violations.size();
    has_exception_ = exception != nullptr;
    return record();
  }

  /// Encodes a decoded trace.
  std::string_view Build(const VertexTrace<Traits>& trace);

  /// The framed record and its bare (seed-format) body, after Finish.
  std::string_view record() const {
    return std::string_view(record_.buffer()).substr(record_start_);
  }
  std::string_view body() const {
    return std::string_view(record_.buffer()).substr(body_start_);
  }

  /// Fields of the finished record, for the capture counters and index.
  int64_t superstep() const { return superstep_; }
  VertexId id() const { return id_; }
  uint32_t reasons() const { return reasons_; }
  size_t num_violations() const { return num_violations_; }
  bool has_exception() const { return has_exception_; }

 private:
  // Frame (magic, header length, header of at most 22 bytes) plus body
  // version, superstep, id and reasons, at their widest.
  static constexpr size_t kMaxVarint64 = 10;
  static constexpr size_t kMaxPrefix = 1 + 1 + (2 + 2 * kMaxVarint64) + 1 +
                                       2 * kMaxVarint64 + 5;
  static constexpr char kZeros[kMaxPrefix] = {};

  BinaryWriter record_;  // [reserved prefix][entry][outcome]
  BinaryWriter outgoing_;
  BinaryWriter aggregations_;
  BinaryWriter prefix_;
  uint64_t num_outgoing_ = 0;
  uint64_t num_aggregations_ = 0;
  size_t record_start_ = kMaxPrefix;
  size_t body_start_ = kMaxPrefix;

  int64_t superstep_ = 0;
  VertexId id_ = 0;
  uint32_t reasons_ = 0;
  size_t num_violations_ = 0;
  bool has_exception_ = false;
};

/// The full captured context of one vertex.compute() call (§3.1): the five
/// pieces of data the Giraph API exposes — id, out-edges, incoming messages,
/// aggregators, global data — plus the RNG stream state (so replay is exact,
/// DESIGN.md §1) and the observed outcome (new value, sent messages, halt
/// decision, violations, exception) that the GUI displays and the Context
/// Reproducer diffs replays against. This is the decoded form: captures are
/// encoded by VertexRecordBuilder without ever building one.
template <pregel::JobTraits Traits>
struct VertexTrace {
  using VertexValue = typename Traits::VertexValue;
  using EdgeValue = typename Traits::EdgeValue;
  using Message = typename Traits::Message;
  using EdgeT = pregel::Edge<EdgeValue>;

  int64_t superstep = 0;
  VertexId id = 0;
  uint32_t reasons = 0;

  // -- context (inputs to Compute) --
  VertexValue value_before{};
  std::vector<EdgeT> edges;  // at Compute() entry (see edges_snapshot_post)
  std::vector<Message> incoming;
  std::map<std::string, pregel::AggValue> aggregators;
  int64_t total_vertices = 0;
  int64_t total_edges = 0;
  uint64_t rng_state = 0;
  /// True when the capture decision was made only after Compute() ran (a
  /// constraint fired mid-call), so `edges` was snapshotted post-call and
  /// may reflect local edge mutations.
  bool edges_snapshot_post = false;

  // -- outcome (what Compute did) --
  VertexValue value_after{};
  bool halted_after = false;
  std::vector<std::pair<VertexId, Message>> outgoing;
  std::vector<std::pair<std::string, pregel::AggValue>> aggregations;
  std::vector<ViolationInfo> violations;
  std::optional<ExceptionInfo> exception;

  static Result<VertexTrace> Read(BinaryReader& r) {
    GRAFT_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
    if (version != kVertexTraceBodyVersion) {
      return Status::InvalidArgument("unsupported vertex trace version " +
                                     std::to_string(version));
    }
    VertexTrace t;
    GRAFT_ASSIGN_OR_RETURN(t.superstep, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(t.id, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(uint64_t reasons, r.ReadVarint());
    t.reasons = static_cast<uint32_t>(reasons);
    GRAFT_ASSIGN_OR_RETURN(t.value_before, VertexValue::Read(r));
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_edges, r.ReadVarint());
    t.edges.reserve(num_edges);
    for (uint64_t i = 0; i < num_edges; ++i) {
      EdgeT e;
      GRAFT_ASSIGN_OR_RETURN(e.target, r.ReadSignedVarint());
      GRAFT_ASSIGN_OR_RETURN(e.value, EdgeValue::Read(r));
      t.edges.push_back(std::move(e));
    }
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_incoming, r.ReadVarint());
    t.incoming.reserve(num_incoming);
    for (uint64_t i = 0; i < num_incoming; ++i) {
      GRAFT_ASSIGN_OR_RETURN(Message m, Message::Read(r));
      t.incoming.push_back(std::move(m));
    }
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_aggs, r.ReadVarint());
    for (uint64_t i = 0; i < num_aggs; ++i) {
      GRAFT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      GRAFT_ASSIGN_OR_RETURN(pregel::AggValue value,
                             pregel::AggValue::Read(r));
      t.aggregators.emplace(std::move(name), std::move(value));
    }
    GRAFT_ASSIGN_OR_RETURN(t.total_vertices, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(t.total_edges, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(t.rng_state, r.ReadFixed64());
    GRAFT_ASSIGN_OR_RETURN(t.edges_snapshot_post, r.ReadBool());
    GRAFT_ASSIGN_OR_RETURN(t.value_after, VertexValue::Read(r));
    GRAFT_ASSIGN_OR_RETURN(t.halted_after, r.ReadBool());
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_outgoing, r.ReadVarint());
    t.outgoing.reserve(num_outgoing);
    for (uint64_t i = 0; i < num_outgoing; ++i) {
      VertexId target;
      GRAFT_ASSIGN_OR_RETURN(target, r.ReadSignedVarint());
      GRAFT_ASSIGN_OR_RETURN(Message m, Message::Read(r));
      t.outgoing.emplace_back(target, std::move(m));
    }
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_aggregations, r.ReadVarint());
    for (uint64_t i = 0; i < num_aggregations; ++i) {
      GRAFT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      GRAFT_ASSIGN_OR_RETURN(pregel::AggValue value,
                             pregel::AggValue::Read(r));
      t.aggregations.emplace_back(std::move(name), std::move(value));
    }
    GRAFT_ASSIGN_OR_RETURN(uint64_t num_violations, r.ReadVarint());
    for (uint64_t i = 0; i < num_violations; ++i) {
      GRAFT_ASSIGN_OR_RETURN(ViolationInfo v, ViolationInfo::Read(r));
      t.violations.push_back(std::move(v));
    }
    GRAFT_ASSIGN_OR_RETURN(bool has_exception, r.ReadBool());
    if (has_exception) {
      GRAFT_ASSIGN_OR_RETURN(ExceptionInfo e, ExceptionInfo::Read(r));
      t.exception = std::move(e);
    }
    return t;
  }

  /// Serialized body (no frame) — the seed-format record layout.
  std::string Serialize() const {
    VertexRecordBuilder<Traits> builder;
    builder.Build(*this);
    return std::string(builder.body());
  }

  /// v2 framed record for TraceStore::Append.
  std::string SerializeFramed() const {
    VertexRecordBuilder<Traits> builder;
    return std::string(builder.Build(*this));
  }

  /// Accepts both v2 framed records and legacy (seed-format) bare bodies.
  /// Trailing body bytes beyond the known fields are ignored.
  static Result<VertexTrace> Deserialize(std::string_view record) {
    GRAFT_ASSIGN_OR_RETURN(ParsedTraceRecord parsed, ParseTraceRecord(record));
    if (parsed.header.has_value() &&
        parsed.header->kind != TraceRecordKind::kVertex) {
      return Status::InvalidArgument("record is not a vertex trace");
    }
    BinaryReader r(parsed.body);
    return Read(r);
  }
};

template <pregel::JobTraits Traits>
std::string_view VertexRecordBuilder<Traits>::Build(
    const VertexTrace<Traits>& trace) {
  Reset();
  WriteEntry(trace.value_before, trace.edges, trace.incoming,
             trace.aggregators, trace.total_vertices, trace.total_edges,
             trace.rng_state, trace.edges_snapshot_post);
  for (const auto& [target, message] : trace.outgoing) {
    AddOutgoing(target, message);
  }
  for (const auto& [name, value] : trace.aggregations) {
    AddAggregation(name, value);
  }
  return Finish(trace.superstep, trace.id, trace.reasons, trace.value_after,
                trace.halted_after, trace.violations,
                trace.exception.has_value() ? &*trace.exception : nullptr);
}

/// Captured master.compute() context (§3.4, "just the aggregator values"):
/// the aggregator values the master saw on entry (its full input context),
/// the values after it returned (its observable output), and its halt
/// decision. Replay re-runs Compute() from `aggregators` and diffs against
/// `aggregators_after`/`halted`.
struct MasterTrace {
  static constexpr uint8_t kFormatVersion = 1;

  int64_t superstep = 0;
  int64_t total_vertices = 0;
  int64_t total_edges = 0;
  std::map<std::string, pregel::AggValue> aggregators;  // before Compute()
  std::map<std::string, pregel::AggValue> aggregators_after;
  bool halted = false;

  void Write(BinaryWriter& w) const;
  static Result<MasterTrace> Read(BinaryReader& r);
  /// Serialized body (no frame) — the seed-format record layout.
  std::string Serialize() const;
  /// v2 framed record for TraceStore::Append.
  std::string SerializeFramed() const;
  /// Accepts both v2 framed records and legacy (seed-format) bare bodies.
  static Result<MasterTrace> Deserialize(std::string_view record);
};

}  // namespace debug
}  // namespace graft

#endif  // GRAFT_DEBUG_VERTEX_TRACE_H_
