#include "debug/vertex_trace.h"

#include <algorithm>
#include <tuple>

namespace graft {
namespace debug {

std::string CaptureReasonsToString(uint32_t reasons) {
  static constexpr std::pair<CaptureReason, const char*> kNames[] = {
      {kReasonSpecified, "spec"},    {kReasonRandom, "random"},
      {kReasonNeighbor, "nbr"},      {kReasonVertexValue, "vv"},
      {kReasonMessageValue, "msg"},  {kReasonException, "exc"},
      {kReasonAllActive, "active"},  {kReasonBreakpoint, "bp"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((reasons & bit) != 0) {
      if (!out.empty()) out.push_back('|');
      out += name;
    }
  }
  return out.empty() ? "none" : out;
}

void WriteTraceRecordFrame(const TraceRecordHeader& header, BinaryWriter& w) {
  const size_t header_len = 2 + VarintSize(ZigzagEncode(header.superstep)) +
                            VarintSize(ZigzagEncode(header.vertex_id));
  w.WriteU8(kTraceRecordMagic);
  w.WriteVarint(header_len);
  w.WriteU8(header.version);
  w.WriteU8(static_cast<uint8_t>(header.kind));
  w.WriteSignedVarint(header.superstep);
  w.WriteSignedVarint(header.vertex_id);
}

std::string EncodeTraceRecord(const TraceRecordHeader& header,
                              std::string_view body) {
  BinaryWriter w;
  WriteTraceRecordFrame(header, w);
  w.WriteRaw(body.data(), body.size());
  return std::move(w.TakeBuffer());
}

Result<ParsedTraceRecord> ParseTraceRecord(std::string_view record) {
  if (record.empty()) {
    return Status::InvalidArgument("empty trace record");
  }
  if (static_cast<uint8_t>(record[0]) != kTraceRecordMagic) {
    // Legacy (seed-format) record: no frame, body is the whole record.
    return ParsedTraceRecord{std::nullopt, record};
  }
  BinaryReader r(record);
  GRAFT_RETURN_NOT_OK(r.Skip(1));  // magic
  GRAFT_ASSIGN_OR_RETURN(uint64_t header_len, r.ReadVarint());
  if (r.remaining() < header_len) {
    return Status::InvalidArgument("truncated trace record header");
  }
  const size_t body_start = r.position() + static_cast<size_t>(header_len);
  BinaryReader h(record.substr(r.position(), static_cast<size_t>(header_len)));
  TraceRecordHeader header;
  GRAFT_ASSIGN_OR_RETURN(header.version, h.ReadU8());
  GRAFT_ASSIGN_OR_RETURN(uint8_t kind, h.ReadU8());
  header.kind = static_cast<TraceRecordKind>(kind);
  GRAFT_ASSIGN_OR_RETURN(header.superstep, h.ReadSignedVarint());
  GRAFT_ASSIGN_OR_RETURN(header.vertex_id, h.ReadSignedVarint());
  // Fields beyond these are from a newer writer; header_len already skipped
  // them for us.
  return ParsedTraceRecord{header, record.substr(body_start)};
}

std::string TraceManifest::Serialize() const {
  BinaryWriter body;
  body.WriteVarint(entries.size());
  for (const TraceManifestEntry& e : entries) {
    body.WriteU8(static_cast<uint8_t>(e.kind));
    body.WriteSignedVarint(e.superstep);
    body.WriteSignedVarint(e.vertex_id);
    body.WriteSignedVarint(e.worker);
    body.WriteVarint(e.record_index);
  }
  TraceRecordHeader header;
  header.kind = TraceRecordKind::kManifest;
  return EncodeTraceRecord(header, body.buffer());
}

Result<TraceManifest> TraceManifest::Deserialize(std::string_view record) {
  GRAFT_ASSIGN_OR_RETURN(ParsedTraceRecord parsed, ParseTraceRecord(record));
  if (!parsed.header.has_value() ||
      parsed.header->kind != TraceRecordKind::kManifest) {
    return Status::InvalidArgument("record is not a trace manifest");
  }
  if (parsed.header->version > kTraceFormatVersion) {
    return Status::InvalidArgument("unsupported trace manifest version " +
                                   std::to_string(parsed.header->version));
  }
  BinaryReader r(parsed.body);
  TraceManifest manifest;
  GRAFT_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  manifest.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TraceManifestEntry e;
    GRAFT_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
    e.kind = static_cast<TraceRecordKind>(kind);
    GRAFT_ASSIGN_OR_RETURN(e.superstep, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(e.vertex_id, r.ReadSignedVarint());
    GRAFT_ASSIGN_OR_RETURN(int64_t worker, r.ReadSignedVarint());
    e.worker = static_cast<int32_t>(worker);
    GRAFT_ASSIGN_OR_RETURN(e.record_index, r.ReadVarint());
    const TraceManifestEntry* prev =
        manifest.entries.empty() ? nullptr : &manifest.entries.back();
    if (prev != nullptr &&
        std::tie(prev->kind, prev->superstep, prev->vertex_id) >=
            std::tie(e.kind, e.superstep, e.vertex_id)) {
      return Status::InvalidArgument(StrFormat(
          "trace manifest entry %llu is out of order or duplicated",
          static_cast<unsigned long long>(i)));
    }
    manifest.entries.push_back(e);
  }
  // Trailing bytes are future manifest fields; ignore them.
  return manifest;
}

std::span<const TraceManifestEntry> TraceManifest::Range(
    TraceRecordKind kind, int64_t superstep) const {
  const auto first = std::partition_point(
      entries.begin(), entries.end(), [&](const TraceManifestEntry& e) {
        return std::tie(e.kind, e.superstep) < std::tie(kind, superstep);
      });
  const auto last = std::partition_point(
      first, entries.end(), [&](const TraceManifestEntry& e) {
        return e.kind == kind && e.superstep == superstep;
      });
  return {first, last};
}

const TraceManifestEntry* TraceManifest::Find(TraceRecordKind kind,
                                              int64_t superstep,
                                              VertexId vertex_id) const {
  const std::span<const TraceManifestEntry> range = Range(kind, superstep);
  const auto it = std::partition_point(
      range.begin(), range.end(),
      [&](const TraceManifestEntry& e) { return e.vertex_id < vertex_id; });
  return it != range.end() && it->vertex_id == vertex_id ? &*it : nullptr;
}

std::string ManifestFile(const std::string& job_id) {
  return job_id + "/manifest.idx";
}

void MasterTrace::Write(BinaryWriter& w) const {
  w.WriteU8(kFormatVersion);
  w.WriteSignedVarint(superstep);
  w.WriteSignedVarint(total_vertices);
  w.WriteSignedVarint(total_edges);
  w.WriteVarint(aggregators.size());
  for (const auto& [name, value] : aggregators) {
    w.WriteString(name);
    value.Write(w);
  }
  w.WriteVarint(aggregators_after.size());
  for (const auto& [name, value] : aggregators_after) {
    w.WriteString(name);
    value.Write(w);
  }
  w.WriteBool(halted);
}

Result<MasterTrace> MasterTrace::Read(BinaryReader& r) {
  GRAFT_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported master trace version " +
                                   std::to_string(version));
  }
  MasterTrace t;
  GRAFT_ASSIGN_OR_RETURN(t.superstep, r.ReadSignedVarint());
  GRAFT_ASSIGN_OR_RETURN(t.total_vertices, r.ReadSignedVarint());
  GRAFT_ASSIGN_OR_RETURN(t.total_edges, r.ReadSignedVarint());
  GRAFT_ASSIGN_OR_RETURN(uint64_t num_aggs, r.ReadVarint());
  for (uint64_t i = 0; i < num_aggs; ++i) {
    GRAFT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    GRAFT_ASSIGN_OR_RETURN(pregel::AggValue value, pregel::AggValue::Read(r));
    t.aggregators.emplace(std::move(name), std::move(value));
  }
  GRAFT_ASSIGN_OR_RETURN(uint64_t num_after, r.ReadVarint());
  for (uint64_t i = 0; i < num_after; ++i) {
    GRAFT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    GRAFT_ASSIGN_OR_RETURN(pregel::AggValue value, pregel::AggValue::Read(r));
    t.aggregators_after.emplace(std::move(name), std::move(value));
  }
  GRAFT_ASSIGN_OR_RETURN(t.halted, r.ReadBool());
  return t;
}

std::string MasterTrace::Serialize() const {
  BinaryWriter w;
  Write(w);
  return std::move(w.TakeBuffer());
}

std::string MasterTrace::SerializeFramed() const {
  TraceRecordHeader header;
  header.kind = TraceRecordKind::kMaster;
  header.superstep = superstep;
  return EncodeTraceRecord(header, Serialize());
}

Result<MasterTrace> MasterTrace::Deserialize(std::string_view record) {
  GRAFT_ASSIGN_OR_RETURN(ParsedTraceRecord parsed, ParseTraceRecord(record));
  if (parsed.header.has_value() &&
      parsed.header->kind != TraceRecordKind::kMaster) {
    return Status::InvalidArgument("record is not a master trace");
  }
  BinaryReader r(parsed.body);
  return Read(r);
}

}  // namespace debug
}  // namespace graft
