// ISSUE 5 read-path suite: the versioned record framing, the per-job
// manifest index, the DebugSession API over both, and the SpoolingTraceSink.
// The version-skew tests pin forward- and backward-compatibility: a
// checked-in seed-format ("v0") blob must keep loading, records with unknown
// header fields must decode, and records with an unknown version or kind
// must be skipped rather than fail the whole query.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/binary_io.h"
#include "common/fault_injector.h"
#include "debug/codegen.h"
#include "debug/debug_config.h"
#include "debug/debug_session.h"
#include "debug/end_to_end.h"
#include "debug/reproducer.h"
#include "graph/generators.h"
#include "io/fault_injecting_trace_store.h"
#include "io/trace_block_cache.h"
#include "io/trace_sink.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace {

using algos::CCTraits;
using algos::PageRankTraits;
using debug::DebugSession;
using debug::ParsedTraceRecord;
using debug::TraceManifest;
using debug::TraceManifestEntry;
using debug::TraceRecordHeader;
using debug::TraceRecordKind;
using debug::VertexTrace;
using pregel::DoubleValue;
using pregel::Int64Value;

// ------------------------------------------------------------ record frame --

VertexTrace<CCTraits> SampleTrace(int64_t superstep, VertexId id) {
  VertexTrace<CCTraits> t;
  t.superstep = superstep;
  t.id = id;
  t.reasons = debug::kReasonSpecified;
  t.value_before = {id + 100};
  t.value_after = {id + 200};
  t.total_vertices = 10;
  t.total_edges = 20;
  return t;
}

TEST(TraceFramingTest, FramedRecordRoundtrips) {
  VertexTrace<CCTraits> trace = SampleTrace(4, 9);
  std::string framed = trace.SerializeFramed();
  ASSERT_FALSE(framed.empty());
  EXPECT_EQ(static_cast<uint8_t>(framed[0]), debug::kTraceRecordMagic);

  auto parsed = debug::ParseTraceRecord(framed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->header.has_value());
  EXPECT_EQ(parsed->header->version, debug::kTraceFormatVersion);
  EXPECT_EQ(parsed->header->kind, TraceRecordKind::kVertex);
  EXPECT_EQ(parsed->header->superstep, 4);
  EXPECT_EQ(parsed->header->vertex_id, 9);
  EXPECT_FALSE(parsed->ShouldSkip());

  auto decoded = VertexTrace<CCTraits>::Deserialize(framed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 9);
  EXPECT_EQ(decoded->value_after, (Int64Value{209}));
}

TEST(TraceFramingTest, LegacyRecordParsesWithEmptyHeader) {
  VertexTrace<CCTraits> trace = SampleTrace(2, 5);
  std::string legacy = trace.Serialize();  // bare body, no frame
  ASSERT_NE(static_cast<uint8_t>(legacy[0]), debug::kTraceRecordMagic);

  auto parsed = debug::ParseTraceRecord(legacy);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->header.has_value());
  EXPECT_EQ(parsed->body, std::string_view(legacy));

  auto decoded = VertexTrace<CCTraits>::Deserialize(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->superstep, 2);
  EXPECT_EQ(decoded->id, 5);
}

/// A frame whose header carries fields this build has never heard of:
/// header_len bounds the header, so the known fields parse and the rest is
/// skipped — the forward-compatibility contract of DESIGN.md §10.
TEST(TraceFramingTest, UnknownTrailingHeaderFieldsAreSkipped) {
  VertexTrace<CCTraits> trace = SampleTrace(6, 3);
  std::string body = trace.Serialize();

  BinaryWriter header;
  header.WriteU8(debug::kTraceFormatVersion);
  header.WriteU8(static_cast<uint8_t>(TraceRecordKind::kVertex));
  header.WriteSignedVarint(6);
  header.WriteSignedVarint(3);
  header.WriteString("future-field");  // unknown to this build
  header.WriteFixed64(0x1234);         // and another one
  std::string header_bytes = std::move(header.TakeBuffer());

  BinaryWriter record;
  record.WriteU8(debug::kTraceRecordMagic);
  record.WriteVarint(header_bytes.size());
  record.WriteRaw(header_bytes.data(), header_bytes.size());
  record.WriteRaw(body.data(), body.size());
  std::string framed = std::move(record.TakeBuffer());

  auto parsed = debug::ParseTraceRecord(framed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->header.has_value());
  EXPECT_EQ(parsed->header->superstep, 6);
  EXPECT_FALSE(parsed->ShouldSkip());

  auto decoded = VertexTrace<CCTraits>::Deserialize(framed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 3);
}

TEST(TraceFramingTest, UnknownVersionAndKindAreSkippableNotFatal) {
  std::string body = SampleTrace(0, 1).Serialize();

  auto frame_with = [&](uint8_t version, uint8_t kind) {
    BinaryWriter header;
    header.WriteU8(version);
    header.WriteU8(kind);
    header.WriteSignedVarint(0);
    header.WriteSignedVarint(1);
    std::string header_bytes = std::move(header.TakeBuffer());
    BinaryWriter record;
    record.WriteU8(debug::kTraceRecordMagic);
    record.WriteVarint(header_bytes.size());
    record.WriteRaw(header_bytes.data(), header_bytes.size());
    record.WriteRaw(body.data(), body.size());
    return std::move(record.TakeBuffer());
  };

  auto future_version = debug::ParseTraceRecord(
      frame_with(debug::kTraceFormatVersion + 1, 0));
  ASSERT_TRUE(future_version.ok()) << future_version.status();
  EXPECT_TRUE(future_version->ShouldSkip());

  auto future_kind = debug::ParseTraceRecord(frame_with(
      debug::kTraceFormatVersion,
      static_cast<uint8_t>(TraceRecordKind::kManifest) + 1));
  ASSERT_TRUE(future_kind.ok()) << future_kind.status();
  EXPECT_TRUE(future_kind->ShouldSkip());

  EXPECT_FALSE(debug::ParseTraceRecord("").ok());
}

TEST(TraceFramingTest, ManifestRoundtripsAndIgnoresTrailingBytes) {
  TraceManifest manifest;
  manifest.entries.push_back({TraceRecordKind::kVertex, 0, 7, 1, 0});
  manifest.entries.push_back({TraceRecordKind::kMaster, 1, 0, -1, 0});

  std::string serialized = manifest.Serialize();
  auto parsed = TraceManifest::Deserialize(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->entries, manifest.entries);

  // A future writer appends fields after the entry array; old readers must
  // not choke on them.
  auto extended = TraceManifest::Deserialize(serialized + "future-bytes");
  ASSERT_TRUE(extended.ok()) << extended.status();
  EXPECT_EQ(extended->entries, manifest.entries);

  EXPECT_FALSE(TraceManifest::Deserialize(SampleTrace(0, 0).SerializeFramed())
                   .ok())
      << "a vertex record is not a manifest";
}

/// Lookups are binary searches, so Deserialize admits only sorted, unique
/// entries: anything else is InvalidArgument, never a wrong answer.
TEST(TraceFramingTest, ManifestRejectsUnsortedAndDuplicateEntries) {
  TraceManifest unsorted;
  unsorted.entries = {{TraceRecordKind::kVertex, 1, 4, 0, 0},
                      {TraceRecordKind::kVertex, 0, 7, 0, 0}};
  TraceManifest duplicate;
  duplicate.entries = {{TraceRecordKind::kVertex, 0, 7, 0, 0},
                       {TraceRecordKind::kVertex, 0, 7, 1, 3}};
  TraceManifest kinds_unsorted;
  kinds_unsorted.entries = {{TraceRecordKind::kMaster, 0, 0, -1, 0},
                            {TraceRecordKind::kVertex, 1, 2, 0, 0}};
  for (const TraceManifest* bad : {&unsorted, &duplicate, &kinds_unsorted}) {
    auto parsed = TraceManifest::Deserialize(bad->Serialize());
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
  }
}

TEST(TraceFramingTest, ManifestRangeAndFindBinarySearch) {
  TraceManifest manifest;
  manifest.entries = {{TraceRecordKind::kVertex, 0, 1, 0, 0},
                      {TraceRecordKind::kVertex, 0, 5, 1, 0},
                      {TraceRecordKind::kVertex, 2, 5, 1, 0},
                      {TraceRecordKind::kVertex, 2, 9, 0, 1},
                      {TraceRecordKind::kMaster, 0, 0, -1, 0},
                      {TraceRecordKind::kMaster, 2, 0, -1, 0}};
  EXPECT_EQ(manifest.Range(TraceRecordKind::kVertex, 0).size(), 2u);
  EXPECT_EQ(manifest.Range(TraceRecordKind::kVertex, 1).size(), 0u);
  EXPECT_EQ(manifest.Range(TraceRecordKind::kVertex, 2).size(), 2u);
  EXPECT_EQ(manifest.Range(TraceRecordKind::kMaster, 2).size(), 1u);
  EXPECT_TRUE(manifest.Range(TraceRecordKind::kMaster, 1).empty());

  const TraceManifestEntry* hit = manifest.Find(TraceRecordKind::kVertex, 2, 9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->worker, 0);
  EXPECT_EQ(hit->record_index, 1u);
  EXPECT_EQ(manifest.Find(TraceRecordKind::kVertex, 2, 1), nullptr);
  EXPECT_EQ(manifest.Find(TraceRecordKind::kVertex, 3, 5), nullptr);
  EXPECT_NE(manifest.Find(TraceRecordKind::kMaster, 0, 0), nullptr);
}

// ------------------------------------------------------------ version skew --

/// Seed-format v0 vertex trace, generated by the pre-ISSUE-5 serializer and
/// checked in as bytes: superstep 3, vertex 7, reasons=kReasonSpecified,
/// value 5 -> 6, edges {8, 9}, incoming {4, 5}, aggregator pi=3.5,
/// totals 10/20, rng 0xDEADBEEF, halted, outgoing {(8, 6)}. If this stops
/// decoding, the format change broke every pre-upgrade trace on disk.
constexpr char kV0VertexTraceBlob[] =
    "\x01\x06\x0e\x01\x0a\x02\x10\x12\x02\x08\x0a\x01\x02\x70\x69\x02\x00"
    "\x00\x00\x00\x00\x00\x0c\x40\x14\x28\xef\xbe\xad\xde\x00\x00\x00\x00"
    "\x00\x0c\x01\x01\x10\x0c\x00\x00\x00";
constexpr size_t kV0VertexTraceBlobSize = sizeof(kV0VertexTraceBlob) - 1;

/// The fields both vertex golden blobs (v0 above, v2 below) carry.
void ExpectGoldenVertexFields(const VertexTrace<CCTraits>& trace) {
  EXPECT_EQ(trace.superstep, 3);
  EXPECT_EQ(trace.id, 7);
  EXPECT_EQ(trace.reasons, debug::kReasonSpecified);
  EXPECT_EQ(trace.value_before, (Int64Value{5}));
  EXPECT_EQ(trace.value_after, (Int64Value{6}));
  ASSERT_EQ(trace.edges.size(), 2u);
  EXPECT_EQ(trace.edges[0].target, 8);
  EXPECT_EQ(trace.edges[1].target, 9);
  ASSERT_EQ(trace.incoming.size(), 2u);
  EXPECT_EQ(trace.incoming[0], (Int64Value{4}));
  EXPECT_DOUBLE_EQ(trace.aggregators.at("pi").AsDouble(), 3.5);
  EXPECT_EQ(trace.total_vertices, 10);
  EXPECT_EQ(trace.total_edges, 20);
  EXPECT_EQ(trace.rng_state, 0xDEADBEEFull);
  EXPECT_TRUE(trace.halted_after);
  ASSERT_EQ(trace.outgoing.size(), 1u);
  EXPECT_EQ(trace.outgoing[0].first, 8);
  EXPECT_FALSE(trace.exception.has_value());
}

TEST(VersionSkewTest, CheckedInV0BlobStillDecodes) {
  std::string_view blob(kV0VertexTraceBlob, kV0VertexTraceBlobSize);
  auto trace = VertexTrace<CCTraits>::Deserialize(blob);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ExpectGoldenVertexFields(*trace);
}

/// Format-v2 framed records, checked in as bytes. The vertex record frames
/// the same capture as the v0 blob. The master record is superstep 2, totals
/// 10/20, aggregator pi 3.5 -> 4.0, halted. The manifest indexes vertex 7 of
/// superstep 3 (worker 0, ordinal 0), vertex 9 of superstep 3 (worker 1,
/// ordinal 2) and the master of superstep 3. Each must decode to those
/// fields and re-encode to the same bytes: a v2 writer change that alters
/// them breaks every trace on disk.
constexpr char kV2VertexTraceBlob[] =
    "\xa7\x04\x02\x00\x06\x0e\x01\x06\x0e\x01\x0a\x02\x10\x12\x02\x08\x0a"
    "\x01\x02\x70\x69\x02\x00\x00\x00\x00\x00\x00\x0c\x40\x14\x28\xef\xbe"
    "\xad\xde\x00\x00\x00\x00\x00\x0c\x01\x01\x10\x0c\x00\x00\x00";
constexpr char kV2MasterTraceBlob[] =
    "\xa7\x04\x02\x01\x04\x00\x01\x04\x14\x28\x01\x02\x70\x69\x02\x00\x00"
    "\x00\x00\x00\x00\x0c\x40\x01\x02\x70\x69\x02\x00\x00\x00\x00\x00\x00"
    "\x10\x40\x01";
constexpr char kV2ManifestBlob[] =
    "\xa7\x04\x02\x02\x00\x00\x03\x00\x06\x0e\x00\x00\x00\x06\x12\x02\x02"
    "\x01\x06\x00\x01\x00";

/// A checked-in blob without the literal's terminating NUL.
template <size_t N>
std::string Blob(const char (&bytes)[N]) {
  return std::string(bytes, N - 1);
}

TEST(VersionSkewTest, CheckedInV2VertexBlobDecodesAndReencodes) {
  const std::string blob = Blob(kV2VertexTraceBlob);
  auto parsed = debug::ParseTraceRecord(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->header.has_value());
  EXPECT_EQ(*parsed->header, (TraceRecordHeader{2, TraceRecordKind::kVertex,
                                                3, 7}));
  auto trace = VertexTrace<CCTraits>::Deserialize(blob);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ExpectGoldenVertexFields(*trace);
  EXPECT_EQ(trace->SerializeFramed(), blob);
}

TEST(VersionSkewTest, CheckedInV2MasterBlobDecodesAndReencodes) {
  const std::string blob = Blob(kV2MasterTraceBlob);
  auto master = debug::MasterTrace::Deserialize(blob);
  ASSERT_TRUE(master.ok()) << master.status();
  EXPECT_EQ(master->superstep, 2);
  EXPECT_EQ(master->total_vertices, 10);
  EXPECT_EQ(master->total_edges, 20);
  EXPECT_DOUBLE_EQ(master->aggregators.at("pi").AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(master->aggregators_after.at("pi").AsDouble(), 4.0);
  EXPECT_TRUE(master->halted);
  EXPECT_EQ(master->SerializeFramed(), blob);
}

TEST(VersionSkewTest, CheckedInV2ManifestBlobDecodesAndReencodes) {
  const std::string blob = Blob(kV2ManifestBlob);
  auto manifest = TraceManifest::Deserialize(blob);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->entries,
            (std::vector<TraceManifestEntry>{
                {TraceRecordKind::kVertex, 3, 7, 0, 0},
                {TraceRecordKind::kVertex, 3, 9, 1, 2},
                {TraceRecordKind::kMaster, 3, 0, -1, 0}}));
  EXPECT_EQ(manifest->Serialize(), blob);
}

/// A v0 job directory (bare-body records, no manifest) read through the new
/// DebugSession: Open falls back to the directory scan and every query works.
TEST(VersionSkewTest, DebugSessionReadsV0JobWithoutManifest) {
  InMemoryTraceStore store;
  const std::string job = "v0-job";
  std::string_view blob(kV0VertexTraceBlob, kV0VertexTraceBlobSize);
  ASSERT_TRUE(
      store.Append(debug::VertexTraceFile(job, 3, 0), std::string(blob)).ok());
  ASSERT_TRUE(store
                  .Append(debug::VertexTraceFile(job, 4, 1),
                          SampleTrace(4, 7).Serialize())
                  .ok());

  auto session = DebugSession<CCTraits>::Open(&store, job);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_FALSE(session->has_manifest());
  EXPECT_EQ(session->supersteps(), (std::vector<int64_t>{3, 4}));

  auto trace = session->FindVertexTrace(3, 7);
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->value_after, (Int64Value{6}));

  auto history = session->VertexHistory(7);
  ASSERT_TRUE(history.ok()) << history.status();
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].superstep, 3);
  EXPECT_EQ((*history)[1].superstep, 4);

  EXPECT_TRUE(session->FindVertexTrace(3, 999).status().IsNotFound());
}

/// Mixed files — v0 bodies, v2 frames, and frames from the future — in one
/// job. Unknown records are invisible to queries, never an error.
TEST(VersionSkewTest, UnknownRecordsAreSkippedInScans) {
  InMemoryTraceStore store;
  const std::string job = "mixed-job";
  const std::string file = debug::VertexTraceFile(job, 0, 0);
  ASSERT_TRUE(store.Append(file, SampleTrace(0, 1).Serialize()).ok());
  ASSERT_TRUE(store.Append(file, SampleTrace(0, 2).SerializeFramed()).ok());
  // A record only a future build understands: version bumped past ours.
  BinaryWriter header;
  header.WriteU8(debug::kTraceFormatVersion + 1);
  header.WriteU8(0);
  header.WriteSignedVarint(0);
  header.WriteSignedVarint(3);
  std::string header_bytes = std::move(header.TakeBuffer());
  BinaryWriter record;
  record.WriteU8(debug::kTraceRecordMagic);
  record.WriteVarint(header_bytes.size());
  record.WriteRaw(header_bytes.data(), header_bytes.size());
  record.WriteRaw("opaque future payload", 21);
  ASSERT_TRUE(store.Append(file, std::move(record.TakeBuffer())).ok());

  auto session = DebugSession<CCTraits>::Open(&store, job);
  ASSERT_TRUE(session.ok()) << session.status();
  auto traces = session->VertexTraces(0);
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_EQ(traces->size(), 2u) << "future record skipped, not fatal";
  EXPECT_EQ((*traces)[0].id, 1);
  EXPECT_EQ((*traces)[1].id, 2);
}

// ---------------------------------------------- DebugSession over real jobs --

struct SessionJob {
  InMemoryTraceStore traces;
  pregel::JobRunSummary summary;
};

/// PageRank (has a master) with captures on a handful of vertices.
void RunPageRankJob(SessionJob* out, const TraceSinkOptions& capture_io = {}) {
  static const debug::ConfigurableDebugConfig<PageRankTraits> config = [] {
    debug::ConfigurableDebugConfig<PageRankTraits> c;
    c.set_vertices({0, 1, 2, 50});
    return c;
  }();
  pregel::JobSpec<PageRankTraits> spec;
  spec.options.num_workers = 3;
  spec.options.job_id = "pr-session";
  spec.capture_io = capture_io;
  spec.vertices = pregel::LoadUnweighted<PageRankTraits>(
      graph::MakeUndirected(graph::GenerateErdosRenyi(120, 480, /*seed=*/3)),
      [](VertexId) { return DoubleValue{0.0}; });
  spec.computation = [] {
    return std::make_unique<algos::PageRankComputation>(/*max_iterations=*/5);
  };
  spec.master = []() -> std::unique_ptr<pregel::MasterCompute> {
    return std::make_unique<algos::PageRankMaster>(/*max_iterations=*/5);
  };
  spec.debug_config = &config;
  spec.trace_store = &out->traces;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok()) << summary->job_status;
  out->summary = *std::move(summary);
}

/// Supersteps holding at least one vertex capture. The halting superstep can
/// be master-only (the master runs once more after every vertex halts), so
/// this may be one less than session.supersteps().size().
size_t VertexCaptureSteps(const DebugSession<PageRankTraits>& session) {
  size_t steps = 0;
  for (int64_t s : session.supersteps()) {
    auto traces = session.VertexTraces(s);
    if (traces.ok() && !traces->empty()) ++steps;
  }
  return steps;
}

TEST(DebugSessionTest, ManifestBackedPointLookups) {
  SessionJob job;
  RunPageRankJob(&job);
  auto session = DebugSession<PageRankTraits>::Open(&job.traces, "pr-session");
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(session->has_manifest()) << "successful runs write a manifest";
  ASSERT_FALSE(session->supersteps().empty());

  const int64_t step = session->supersteps().front();
  auto trace = session->FindVertexTrace(step, 50);
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->id, 50);
  EXPECT_EQ(trace->superstep, step);
  EXPECT_TRUE(session->FindVertexTrace(step, 777).status().IsNotFound());

  auto history = session->VertexHistory(2);
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_EQ(history->size(), VertexCaptureSteps(*session));
  for (size_t i = 0; i < history->size(); ++i) {
    EXPECT_EQ((*history)[i].superstep, session->supersteps()[i]);
    EXPECT_EQ((*history)[i].id, 2);
  }

  auto master = session->Master(step);
  ASSERT_TRUE(master.ok()) << master.status();
  EXPECT_EQ(master->superstep, step);
}

/// The same queries must return the same records with the manifest deleted
/// (scan fallback) — the manifest is an index, not the data.
TEST(DebugSessionTest, ManifestAndScanAgree) {
  SessionJob job;
  RunPageRankJob(&job);
  auto indexed = DebugSession<PageRankTraits>::Open(&job.traces, "pr-session");
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_TRUE(indexed->has_manifest());

  ASSERT_TRUE(
      job.traces.DeletePrefix(debug::ManifestFile("pr-session")).ok());
  auto scanned = DebugSession<PageRankTraits>::Open(&job.traces, "pr-session");
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_FALSE(scanned->has_manifest());

  EXPECT_EQ(indexed->supersteps(), scanned->supersteps());
  for (int64_t step : indexed->supersteps()) {
    for (VertexId id : {0, 1, 2, 50}) {
      auto a = indexed->FindVertexTrace(step, id);
      auto b = scanned->FindVertexTrace(step, id);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        EXPECT_EQ(a->id, b->id);
        EXPECT_EQ(a->superstep, b->superstep);
        EXPECT_EQ(a->Serialize(), b->Serialize()) << "identical records";
      }
    }
  }
}

/// A manifest whose entries are out of order or duplicated fails Open, with
/// and without a cache, instead of serving lookups from a broken index.
TEST(DebugSessionTest, UnsortedOrDuplicateManifestFailsOpen) {
  InMemoryTraceStore store;
  ASSERT_TRUE(store
                  .Append(debug::VertexTraceFile("bad", 0, 0),
                          SampleTrace(0, 7).SerializeFramed())
                  .ok());
  TraceManifest duplicate;
  duplicate.entries = {{TraceRecordKind::kVertex, 0, 7, 0, 0},
                       {TraceRecordKind::kVertex, 0, 7, 0, 0}};
  ASSERT_TRUE(
      store.Append(debug::ManifestFile("bad"), duplicate.Serialize()).ok());
  TraceBlockCache cache;
  for (TraceBlockCache* c : {static_cast<TraceBlockCache*>(nullptr), &cache}) {
    auto session = DebugSession<CCTraits>::Open(&store, "bad", c);
    EXPECT_TRUE(session.status().IsInvalidArgument()) << session.status();
  }
  EXPECT_EQ(cache.stats().entries, 0u) << "a rejected index is not cached";
}

/// Sessions over one job on one cache share a single decoded index: the
/// first Open decodes it, every later Open is a cache hit.
TEST(DebugSessionTest, SessionsShareOneDecodedIndex) {
  SessionJob job;
  RunPageRankJob(&job);
  TraceBlockCache cache;
  auto first =
      DebugSession<PageRankTraits>::Open(&job.traces, "pr-session", &cache);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses, 1u);
  auto second =
      DebugSession<PageRankTraits>::Open(&job.traces, "pr-session", &cache);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(cache.stats().misses, after_first.misses);
  EXPECT_EQ(cache.stats().hits, after_first.hits + 1);
  EXPECT_EQ(&first->supersteps(), &second->supersteps()) << "one index";
}

TEST(DebugSessionTest, SelectFiltersBySuperstepVertexAndReason) {
  SessionJob job;
  RunPageRankJob(&job);
  auto session = DebugSession<PageRankTraits>::Open(&job.traces, "pr-session");
  ASSERT_TRUE(session.ok()) << session.status();

  debug::TraceQuery by_vertex;
  by_vertex.vertex = 1;
  auto history = session->Select(by_vertex);
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_EQ(history->size(), VertexCaptureSteps(*session));

  debug::TraceQuery point;
  point.vertex = 1;
  point.superstep = session->supersteps().front();
  auto one = session->Select(point);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].id, 1);

  debug::TraceQuery by_reason;
  by_reason.superstep = session->supersteps().front();
  by_reason.reason_mask = debug::kReasonSpecified;
  auto specified = session->Select(by_reason);
  ASSERT_TRUE(specified.ok()) << specified.status();
  EXPECT_EQ(specified->size(), 4u) << "the four listed vertices";

  debug::TraceQuery exceptions_only;
  exceptions_only.only_exceptions = true;
  auto none = session->Select(exceptions_only);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty()) << "PageRank does not throw";

  auto missing = DebugSession<PageRankTraits>::Open(&job.traces, "no-such");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_TRUE(missing->supersteps().empty());
}

/// The session consumers added by ISSUE 5: replay, fidelity check, and test
/// codegen all resolve their capture through the same point lookup.
TEST(DebugSessionTest, ReplayAndCodegenResolveThroughSession) {
  SessionJob job;
  RunPageRankJob(&job);
  auto session = DebugSession<PageRankTraits>::Open(&job.traces, "pr-session");
  ASSERT_TRUE(session.ok()) << session.status();
  const int64_t step = session->supersteps().front();

  algos::PageRankComputation computation(/*max_iterations=*/5);
  auto fidelity = debug::CheckReplayFidelityAt(*session, step, 50,
                                               computation);
  ASSERT_TRUE(fidelity.ok()) << fidelity.status();
  EXPECT_TRUE(fidelity->Faithful()) << fidelity->mismatch_detail;

  debug::CodegenBinding binding;
  binding.traits_type = "graft::algos::PageRankTraits";
  binding.includes = {"algos/pagerank.h"};
  binding.computation_decl =
      "graft::algos::PageRankComputation computation(5);";
  binding.test_suite = "PageRankGraftTest";
  auto code = debug::GenerateVertexTestCodeAt(*session, step, 50, binding);
  ASSERT_TRUE(code.ok()) << code.status();
  EXPECT_NE(code->find("ReproduceVertex50"), std::string::npos);
  EXPECT_TRUE(
      debug::GenerateVertexTestCodeAt(*session, step, 777, binding).status()
          .IsNotFound());

  algos::PageRankMaster master(/*max_iterations=*/5);
  auto master_fidelity =
      debug::CheckMasterReplayFidelityAt(*session, step, master);
  ASSERT_TRUE(master_fidelity.ok()) << master_fidelity.status();
  EXPECT_TRUE(master_fidelity->Faithful())
      << master_fidelity->mismatch_detail;

  auto expected = debug::ExpectedValuesFromSession(*session);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected->size(), 4u);
}

// ------------------------------------------------------- SpoolingTraceSink --

TEST(SpoolingTraceSinkTest, PreservesPerFileAppendOrder) {
  InMemoryTraceStore sync_store, async_store;
  SyncTraceSink sync_sink(&sync_store);
  TraceSinkOptions options;
  options.async = true;
  options.max_batch_bytes = 8;  // seal nearly every record
  options.queue_capacity = 2;
  SpoolingTraceSink async_sink(&async_store, options);

  for (int i = 0; i < 200; ++i) {
    const std::string file = (i % 3 == 0) ? "job/a" : "job/b";
    const std::string record = "record-" + std::to_string(i);
    ASSERT_TRUE(sync_sink.Append(file, record).ok());
    ASSERT_TRUE(async_sink.Append(file, record).ok());
  }
  ASSERT_TRUE(async_sink.Quiesce().ok());

  for (const std::string& file : {"job/a", "job/b"}) {
    auto sync_records = sync_store.ReadAll(file);
    auto async_records = async_store.ReadAll(file);
    ASSERT_TRUE(sync_records.ok() && async_records.ok());
    EXPECT_EQ(*sync_records, *async_records);
  }
  EXPECT_EQ(sync_sink.stats().appends, async_sink.stats().appends);
  EXPECT_EQ(sync_sink.stats().bytes, async_sink.stats().bytes);
  EXPECT_GT(async_sink.stats().batches, 1u);
}

/// A store whose appends block until released — forces the queue to fill so
/// backpressure accounting is exercised deterministically.
class GatedTraceStore final : public InMemoryTraceStore {
 public:
  Status Append(const std::string& file, std::string_view record) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    }
    return InMemoryTraceStore::Append(file, record);
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SpoolingTraceSinkTest, BackpressureBlocksUntilQueueDrains) {
  GatedTraceStore store;
  TraceSinkOptions options;
  options.async = true;
  options.max_batch_bytes = 1;  // every append seals a batch
  options.queue_capacity = 1;
  SpoolingTraceSink sink(&store, options);

  // Batch 1 occupies the flusher (blocked on the gate), batch 2 fills the
  // queue; batch 3 must wait. Open the gate only once that wait is visible.
  std::thread opener([&] {
    while (sink.stats().backpressure_waits == 0) {
      std::this_thread::yield();
    }
    store.OpenGate();
  });
  ASSERT_TRUE(sink.Append("f", "one").ok());
  ASSERT_TRUE(sink.Append("f", "two").ok());
  ASSERT_TRUE(sink.Append("f", "three").ok());
  opener.join();
  ASSERT_TRUE(sink.Quiesce().ok());

  EXPECT_GE(sink.stats().backpressure_waits, 1u);
  EXPECT_GE(sink.stats().max_queue_depth, 1u);
  auto records = store.ReadAll("f");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(SpoolingTraceSinkTest, FlushErrorIsLatchedAndClearedByDiscard) {
  InMemoryTraceStore inner;
  FaultInjector injector;
  FaultInjectingTraceStore store(&inner, &injector);
  TraceSinkOptions options;
  options.async = true;
  options.max_batch_bytes = 1;
  SpoolingTraceSink sink(&store, options);

  injector.Arm({FaultSite::kStoreAppend, /*superstep=*/-1, /*partition=*/-1,
                /*hits=*/1});
  ASSERT_TRUE(sink.Append("f", "doomed").ok()) << "error surfaces later";
  Status drained = sink.Quiesce();
  EXPECT_TRUE(drained.IsUnavailable()) << drained;
  // The latch makes every later call fail fast until the error is handled.
  EXPECT_TRUE(sink.Append("f", "after").IsUnavailable());
  EXPECT_TRUE(sink.Quiesce().IsUnavailable());

  // Recovery's protocol: drop spooled work, clear the latch, start over.
  sink.DiscardPending();
  ASSERT_TRUE(sink.Append("f", "retried").ok());
  ASSERT_TRUE(sink.Quiesce().ok());
  auto records = inner.ReadAll("f");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"retried"}));
}

TEST(SpoolingTraceSinkTest, StatsSnapshotAndRestoreRewindAccounting) {
  InMemoryTraceStore store;
  TraceSinkOptions options;
  options.async = true;
  SpoolingTraceSink sink(&store, options);
  ASSERT_TRUE(sink.Append("f", "one").ok());
  ASSERT_TRUE(sink.Quiesce().ok());
  TraceSinkStats snapshot = sink.stats();
  EXPECT_EQ(snapshot.appends, 1u);

  ASSERT_TRUE(sink.Append("f", "two").ok());
  ASSERT_TRUE(sink.Quiesce().ok());
  EXPECT_EQ(sink.stats().appends, 2u);

  sink.RestoreStats(snapshot);
  EXPECT_EQ(sink.stats(), snapshot)
      << "checkpoint rewind must not double-count the replayed appends";
}

}  // namespace
}  // namespace graft
