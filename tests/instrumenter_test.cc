// Tests for the capture pipeline: DebugConfig, CaptureManager target
// resolution, and the Instrumenter's five capture categories (§3.1),
// superstep filters, capture-all-active, the max-captures safety net, and
// exception abort/continue policies.
#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "debug/debug_session.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace debug {
namespace {

using algos::CCTraits;
using pregel::Int64Value;

std::vector<pregel::Vertex<CCTraits>> RingVertices(uint64_t n) {
  return pregel::LoadUnweighted<CCTraits>(
      graph::GenerateRing(n), [](VertexId) { return Int64Value{0}; });
}

pregel::JobRunSummary RunCC(const DebugConfig<CCTraits>& config,
                            InMemoryTraceStore* store, uint64_t n = 12,
                            const std::string& job = "job") {
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = job;
  spec.options.num_workers = 2;
  spec.vertices = RingVertices(n);
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = store;
  auto summary = pregel::RunJob(std::move(spec));
  EXPECT_TRUE(summary.ok()) << summary.status();
  return std::move(summary).value();
}

/// Opens one read session over a finished job's traces.
template <pregel::JobTraits Traits = CCTraits>
DebugSession<Traits> OpenJob(const TraceStore& store, const std::string& job) {
  auto session = DebugSession<Traits>::Open(&store, job);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

std::set<VertexId> CapturedIds(const DebugSession<CCTraits>& session,
                               int64_t superstep) {
  auto traces = session.VertexTraces(superstep);
  EXPECT_TRUE(traces.ok());
  std::set<VertexId> ids;
  for (const auto& t : traces.value()) ids.insert(t.id);
  return ids;
}

// ----------------------------------------------------- category 1: by id --

TEST(InstrumenterTest, CapturesSpecifiedVerticesEverySuperstep) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({5});
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  DebugSession<CCTraits> session = OpenJob(store, "job");
  const std::vector<int64_t>& supersteps = session.supersteps();
  EXPECT_GE(supersteps.size(), 2u);
  for (int64_t s : supersteps) {
    // Vertex 5 computes in supersteps 0 and 1 on a ring (value settles).
    EXPECT_EQ(CapturedIds(session, s), std::set<VertexId>{5});
  }
}

TEST(InstrumenterTest, CapturedTraceHasReasonSpecified) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({5});
  InMemoryTraceStore store;
  RunCC(config, &store);
  auto trace = OpenJob(store, "job").FindVertexTrace(0, 5);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->reasons, kReasonSpecified);
  EXPECT_FALSE(trace->edges_snapshot_post);
  EXPECT_EQ(trace->incoming.size(), 0u);   // superstep 0: no messages
  EXPECT_EQ(trace->outgoing.size(), 2u);   // sends to both ring neighbors
  EXPECT_EQ(trace->total_vertices, 12);
  EXPECT_EQ(trace->total_edges, 24);
}

// ----------------------------------------------- category 2: random + nbr --

TEST(InstrumenterTest, RandomCaptureIsSeededAndSized) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_num_random(3).set_random_seed(11);
  InMemoryTraceStore store_a, store_b;
  RunCC(config, &store_a, 30, "a");
  RunCC(config, &store_b, 30, "b");
  auto ids_a = CapturedIds(OpenJob(store_a, "a"), 0);
  EXPECT_EQ(ids_a.size(), 3u);
  EXPECT_EQ(ids_a, CapturedIds(OpenJob(store_b, "b"), 0))
      << "random picks not seeded";

  ConfigurableDebugConfig<CCTraits> other_seed;
  other_seed.set_num_random(3).set_random_seed(12);
  InMemoryTraceStore store_c;
  RunCC(other_seed, &store_c, 30, "c");
  EXPECT_NE(ids_a, CapturedIds(OpenJob(store_c, "c"), 0));
}

TEST(InstrumenterTest, RandomCaptureClampsToGraphSize) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_num_random(100);
  InMemoryTraceStore store;
  RunCC(config, &store, 12);
  EXPECT_EQ(CapturedIds(OpenJob(store, "job"), 0).size(), 12u);
}

TEST(InstrumenterTest, NeighborsCapturedWithNeighborReason) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertices({6}).set_capture_neighbors(true);
  InMemoryTraceStore store;
  RunCC(config, &store);
  DebugSession<CCTraits> session = OpenJob(store, "job");
  EXPECT_EQ(CapturedIds(session, 0), (std::set<VertexId>{5, 6, 7}));
  auto nbr = session.FindVertexTrace(0, 7);
  ASSERT_TRUE(nbr.ok());
  EXPECT_EQ(nbr->reasons, kReasonNeighbor);
}

// ------------------------------------------ category 3: vertex-value rule --

TEST(InstrumenterTest, VertexValueConstraintCapturesViolatorsOnly) {
  // CC values become the min id; constraint "value must be >= 3" is
  // violated by vertices adopting components 0..2.
  ConfigurableDebugConfig<CCTraits> config;
  config.set_vertex_value_constraint(
      [](const Int64Value& v, VertexId, int64_t) { return v.value >= 3; });
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  EXPECT_GT(summary.violations, 0u);
  // Superstep 0: every vertex keeps its own id as value; violators are
  // exactly ids 0,1,2.
  DebugSession<CCTraits> session = OpenJob(store, "job");
  EXPECT_EQ(CapturedIds(session, 0), (std::set<VertexId>{0, 1, 2}));
  auto trace = session.FindVertexTrace(0, 1);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->reasons, kReasonVertexValue);
  EXPECT_TRUE(trace->edges_snapshot_post);  // lazily captured
  ASSERT_EQ(trace->violations.size(), 1u);
  EXPECT_EQ(trace->violations[0].kind, ViolationInfo::Kind::kVertexValue);
  EXPECT_EQ(trace->violations[0].detail, "1");
}

// ---------------------------------------------- category 4: message rule --

TEST(InstrumenterTest, MessageConstraintRecordsPerMessageViolations) {
  // Constraint: never send a value < 2. On a ring at superstep 0, vertices
  // 0 and 1 send their own ids (< 2) to both neighbors -> 4 violations.
  ConfigurableDebugConfig<CCTraits> config;
  config.set_message_value_constraint(
      [](const Int64Value& m, VertexId, VertexId, int64_t) {
        return m.value >= 2;
      });
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  DebugSession<CCTraits> session = OpenJob(store, "job");
  auto captured = CapturedIds(session, 0);
  EXPECT_EQ(captured, (std::set<VertexId>{0, 1}));
  auto trace = session.FindVertexTrace(0, 0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->reasons, kReasonMessageValue);
  EXPECT_EQ(trace->violations.size(), 2u);  // one per neighbor send
  EXPECT_EQ(trace->violations[0].kind, ViolationInfo::Kind::kMessageValue);
  EXPECT_EQ(trace->violations[0].source, 0);
}

// ------------------------------------------------ category 5: exceptions --

struct ThrowingTraits {
  using VertexValue = Int64Value;
  using EdgeValue = pregel::NullValue;
  using Message = Int64Value;
};

class ThrowAtVertex : public pregel::Computation<ThrowingTraits> {
 public:
  explicit ThrowAtVertex(VertexId bad) : bad_(bad) {}
  void Compute(pregel::ComputeContext<ThrowingTraits>& ctx,
               pregel::Vertex<ThrowingTraits>& vertex,
               const std::vector<Int64Value>&) override {
    (void)ctx;
    if (vertex.id() == bad_) {
      throw pregel::VertexComputeError("numeric overflow in walker count");
    }
    vertex.VoteToHalt();
  }

 private:
  VertexId bad_;
};

TEST(InstrumenterTest, ExceptionCapturedAndJobAborts) {
  ConfigurableDebugConfig<ThrowingTraits> config;  // defaults: abort
  InMemoryTraceStore store;
  pregel::JobSpec<ThrowingTraits> spec;
  spec.options.job_id = "exc";
  spec.vertices = pregel::LoadUnweighted<ThrowingTraits>(
      graph::GenerateRing(8), [](VertexId) { return Int64Value{0}; });
  spec.computation = [] { return std::make_unique<ThrowAtVertex>(4); };
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  pregel::JobRunSummary summary = std::move(summary_or).value();
  EXPECT_TRUE(summary.job_status.IsAborted());
  EXPECT_EQ(summary.exceptions, 1u);
  auto trace = OpenJob<ThrowingTraits>(store, "exc").FindVertexTrace(0, 4);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->reasons, kReasonException);
  ASSERT_TRUE(trace->exception.has_value());
  EXPECT_EQ(trace->exception->message, "numeric overflow in walker count");
  EXPECT_NE(trace->exception->context.find("vertex=4"), std::string::npos);
}

TEST(InstrumenterTest, ExceptionContinueModeKeepsJobAlive) {
  ConfigurableDebugConfig<ThrowingTraits> config;
  config.set_abort_on_exception(false);
  InMemoryTraceStore store;
  pregel::JobSpec<ThrowingTraits> spec;
  spec.options.job_id = "exc2";
  spec.options.max_supersteps = 5;
  spec.vertices = pregel::LoadUnweighted<ThrowingTraits>(
      graph::GenerateRing(8), [](VertexId) { return Int64Value{0}; });
  spec.computation = [] { return std::make_unique<ThrowAtVertex>(4); };
  spec.debug_config = &config;
  spec.trace_store = &store;
  auto summary_or = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  pregel::JobRunSummary summary = std::move(summary_or).value();
  EXPECT_TRUE(summary.job_status.ok()) << summary.job_status;
  EXPECT_GE(summary.exceptions, 1u);
}

// ------------------------------------------------------- all-active mode --

TEST(InstrumenterTest, CaptureAllActiveWithSuperstepFilter) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_capture_all_active(true).set_superstep_filter(
      [](int64_t s) { return s >= 1; });
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  DebugSession<CCTraits> session = OpenJob(store, "job");
  const std::vector<int64_t>& supersteps = session.supersteps();
  ASSERT_FALSE(supersteps.empty());
  EXPECT_GE(supersteps.front(), 1) << "superstep 0 should be filtered out";
  // In superstep 1 every ring vertex is active (all got messages).
  EXPECT_EQ(CapturedIds(session, 1).size(), 12u);
  auto trace = session.FindVertexTrace(1, 0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->reasons, kReasonAllActive);
}

// ---------------------------------------------------- max-capture safety --

TEST(InstrumenterTest, MaxCapturesStopsCapturing) {
  ConfigurableDebugConfig<CCTraits> config;
  config.set_capture_all_active(true).set_max_captures(7);
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  EXPECT_EQ(summary.captures, 7u);
  EXPECT_GT(summary.dropped_by_capture_limit, 0u);
  uint64_t total = 0;
  DebugSession<CCTraits> session = OpenJob(store, "job");
  for (int64_t s : session.supersteps()) {
    total += CapturedIds(session, s).size();
  }
  EXPECT_EQ(total, 7u);
}

// ------------------------------------------------------------- purity ----

TEST(InstrumenterTest, NoConfigNoTraces) {
  ConfigurableDebugConfig<CCTraits> config;  // nothing configured
  InMemoryTraceStore store;
  auto summary = RunCC(config, &store);
  ASSERT_TRUE(summary.job_status.ok());
  EXPECT_EQ(summary.captures, 0u);
  EXPECT_EQ(summary.violations, 0u);
  EXPECT_EQ(store.ListFiles("").size(), 0u);
}

TEST(InstrumenterTest, InstrumentationDoesNotChangeResults) {
  // The instrumented run must produce the same final values as a plain run.
  auto plain = algos::RunConnectedComponents(
      graph::MakeUndirected(graph::GeneratePowerLaw(80, 2, 5)));
  ASSERT_TRUE(plain.ok());
  ConfigurableDebugConfig<CCTraits> config;
  config.set_capture_all_active(true);
  InMemoryTraceStore store;
  pregel::JobSpec<CCTraits> spec;
  spec.options.job_id = "pure";
  auto g = graph::MakeUndirected(graph::GeneratePowerLaw(80, 2, 5));
  spec.vertices = pregel::LoadUnweighted<CCTraits>(
      g, [](VertexId) { return Int64Value{0}; });
  spec.computation = algos::MakeConnectedComponentsFactory();
  spec.debug_config = &config;
  spec.trace_store = &store;
  std::map<VertexId, int64_t> instrumented_values;
  spec.post_run = [&](pregel::Engine<CCTraits>& engine) {
    engine.ForEachVertex([&](const pregel::Vertex<CCTraits>& v) {
      instrumented_values[v.id()] = v.value().value;
    });
  };
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(instrumented_values, plain->component);
}

// -------------------------------------------------------- master capture --

TEST(CaptureManagerTest, TraceFileNamingConvention) {
  EXPECT_EQ(VertexTraceFile("my-job", 41, 3),
            "my-job/superstep_000041/worker_003.vtrace");
  EXPECT_EQ(MasterTraceFile("my-job", 7),
            "my-job/superstep_000007/master.mtrace");
  EXPECT_EQ(JobTracePrefix("my-job"), "my-job/");
}

TEST(CaptureManagerTest, CaptureReasonsRendering) {
  EXPECT_EQ(CaptureReasonsToString(0), "none");
  EXPECT_EQ(CaptureReasonsToString(kReasonSpecified | kReasonException),
            "spec|exc");
  EXPECT_EQ(CaptureReasonsToString(kReasonAllActive), "active");
}

// ---------------------------------------- capture-record byte identity --

struct RouteTraits {
  using VertexValue = Int64Value;
  using EdgeValue = Int64Value;
  using Message = Int64Value;
};

constexpr VertexId kRouteVertices = 16;

/// Registers a regular sum and a master-written overwrite aggregator, so
/// records carry both visible aggregators and per-call aggregations.
class RouteMaster : public pregel::MasterCompute {
 public:
  void Initialize(pregel::MasterContext& ctx) override {
    EXPECT_TRUE(ctx.RegisterAggregator(
                       "sum", {pregel::AggregatorOp::kSum,
                               pregel::AggValue{int64_t{0}}, false})
                    .ok());
    EXPECT_TRUE(ctx.RegisterAggregator(
                       "phase", {pregel::AggregatorOp::kOverwrite,
                                 pregel::AggValue{std::string("init")}, true})
                    .ok());
  }
  void Compute(pregel::MasterContext& ctx) override {
    EXPECT_TRUE(ctx.SetAggregated("phase",
                                  pregel::AggValue{std::string("s") +
                                                   std::to_string(
                                                       ctx.superstep())})
                    .ok());
  }
};

/// Touches every field of a vertex record: RNG draws, aggregations, local
/// edge mutation (so entry and post-call edge snapshots differ), messages,
/// halting, and an optional throw after a partial mutation.
class RouteProgram : public pregel::Computation<RouteTraits> {
 public:
  explicit RouteProgram(VertexId throw_at) : throw_at_(throw_at) {}

  void Compute(pregel::ComputeContext<RouteTraits>& ctx,
               pregel::Vertex<RouteTraits>& vertex,
               const std::vector<Int64Value>& messages) override {
    const int64_t s = ctx.superstep();
    int64_t value = vertex.value().value +
                    static_cast<int64_t>(ctx.rng().NextBounded(5));
    for (const Int64Value& m : messages) value += m.value;
    vertex.set_value(Int64Value{value % 1000});
    if (s % 2 == 1 && vertex.id() % 3 == 0) {
      vertex.AddEdge((vertex.id() + 5) % kRouteVertices, Int64Value{s});
    }
    if (s == 2 && vertex.id() % 4 == 0 && !vertex.edges().empty()) {
      vertex.RemoveEdgesTo(vertex.edges().front().target);
    }
    if (vertex.id() == throw_at_ && s == 2) {
      throw pregel::VertexComputeError("route program fault");
    }
    ctx.Aggregate("sum", pregel::AggValue{vertex.value().value});
    for (const auto& e : vertex.edges()) {
      ctx.SendMessage(e.target,
                      Int64Value{(vertex.value().value + e.value.value) % 97});
    }
    if (s >= 4) vertex.VoteToHalt();
  }

 private:
  VertexId throw_at_;
};

void RunRoutes(const DebugConfig<RouteTraits>& config, const std::string& job,
               VertexId throw_at, const std::string& breakpoint,
               InMemoryTraceStore* store) {
  pregel::JobSpec<RouteTraits> spec;
  spec.options.job_id = job;
  spec.options.num_workers = 2;
  spec.options.max_supersteps = 6;
  spec.options.seed = 20150531;
  spec.vertices = pregel::LoadVertices<RouteTraits>(
      graph::GenerateRing(kRouteVertices),
      [](VertexId id) { return Int64Value{id}; },
      [](VertexId, VertexId target, double) { return Int64Value{target}; });
  spec.computation = [throw_at] {
    return std::make_unique<RouteProgram>(throw_at);
  };
  spec.master = [] { return std::make_unique<RouteMaster>(); };
  spec.debug_config = &config;
  spec.trace_store = store;
  spec.analysis.breakpoint = breakpoint;
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_TRUE(summary->job_status.ok()) << summary->job_status;
}

uint64_t StoreDigest(const TraceStore& store) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, length-prefixed chunks
  auto update = [&h](std::string_view bytes) {
    const uint64_t size = bytes.size();
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((size >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    for (char c : bytes) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  };
  for (const std::string& file : store.ListFiles("")) {
    update(file);
    auto records = store.ReadAll(file);
    EXPECT_TRUE(records.ok()) << records.status();
    if (!records.ok()) continue;
    for (const std::string& record : *records) update(record);
  }
  return h;
}

// Every capture route — eager capture-all-active, lazy constraint captures
// with post-call edges, exceptions on the zero-overhead and the checked
// path, an armed breakpoint, local edge mutation and aggregator updates —
// must store exactly the bytes the decoded trace re-encodes to, and the
// whole store must match a pinned digest, so any change to the record
// layout or to what a route captures shows here. The
// routes cannot share one job (capture-all-active makes every call eager,
// and any armed check disables the zero-overhead path), so three jobs of
// one program land in one store.
TEST(CaptureRecordTest, EveryRouteStoresCanonicalBytes) {
  InMemoryTraceStore store;

  ConfigurableDebugConfig<RouteTraits> eager;
  eager.set_capture_all_active(true);
  RunRoutes(eager, "eager", /*throw_at=*/-1, "value % 5 == 0", &store);

  ConfigurableDebugConfig<RouteTraits> lazy;
  lazy.set_vertices({2})
      .set_abort_on_exception(false)
      .set_message_value_constraint(
          [](const Int64Value& m, VertexId, VertexId, int64_t) {
            return m.value < 60;
          })
      .set_vertex_value_constraint(
          [](const Int64Value& v, VertexId, int64_t) {
            return v.value % 7 != 0;
          });
  RunRoutes(lazy, "lazy", /*throw_at=*/9, "out_degree > 2", &store);

  ConfigurableDebugConfig<RouteTraits> exceptions_only;
  exceptions_only.set_abort_on_exception(false);
  RunRoutes(exceptions_only, "exc", /*throw_at=*/6, "", &store);

  uint32_t reasons_seen = 0;
  bool saw_post_edges = false;
  bool saw_entry_edges = false;
  bool saw_aggregations = false;
  size_t vertex_records = 0;
  for (const std::string& file : store.ListFiles("")) {
    auto records = store.ReadAll(file);
    ASSERT_TRUE(records.ok()) << records.status();
    for (const std::string& record : *records) {
      if (file.ends_with(".vtrace")) {
        auto trace = VertexTrace<RouteTraits>::Deserialize(record);
        ASSERT_TRUE(trace.ok()) << trace.status();
        EXPECT_EQ(trace->SerializeFramed(), record) << file;
        ++vertex_records;
        reasons_seen |= trace->reasons;
        (trace->edges_snapshot_post ? saw_post_edges : saw_entry_edges) =
            true;
        saw_aggregations = saw_aggregations || !trace->aggregations.empty();
      } else if (file.ends_with(".mtrace")) {
        auto trace = MasterTrace::Deserialize(record);
        ASSERT_TRUE(trace.ok()) << trace.status();
        EXPECT_EQ(trace->SerializeFramed(), record) << file;
      }
    }
  }
  const uint32_t kAllRoutes = kReasonSpecified | kReasonVertexValue |
                              kReasonMessageValue | kReasonException |
                              kReasonAllActive | kReasonBreakpoint;
  EXPECT_EQ(reasons_seen & kAllRoutes, kAllRoutes)
      << CaptureReasonsToString(reasons_seen);
  EXPECT_TRUE(saw_post_edges);
  EXPECT_TRUE(saw_entry_edges);
  EXPECT_TRUE(saw_aggregations);
  EXPECT_GT(vertex_records, 100u);
  EXPECT_EQ(StoreDigest(store), 0xb7ea966faeb77890ull);
}

}  // namespace
}  // namespace debug
}  // namespace graft
