// Tests for the §7 "complex constraints" extension: cross-vertex adjacency
// invariants (e.g. no two adjacent vertices share a color) and global
// invariants, evaluated at superstep boundaries.
#include <gtest/gtest.h>

#include "algos/graph_coloring.h"
#include "algos/random_walk.h"
#include "debug/invariant_checker.h"
#include "graph/generators.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace graft {
namespace debug {
namespace {

using algos::GCState;
using algos::GCTraits;
using algos::GCVertexValue;

/// Spec for a debugged graph-coloring run with an attached checker.
pregel::JobSpec<GCTraits> GCSpec(const graph::SimpleGraph& g, bool buggy,
                                 const DebugConfig<GCTraits>& config,
                                 InMemoryTraceStore* store,
                                 InvariantChecker<GCTraits>* checker,
                                 const std::string& job) {
  pregel::JobSpec<GCTraits> spec;
  spec.options.job_id = job;
  spec.vertices = algos::LoadGraphColoringVertices(g);
  spec.computation = algos::MakeGraphColoringFactory(buggy);
  spec.master = algos::MakeGraphColoringMasterFactory();
  spec.debug_config = &config;
  spec.trace_store = store;
  spec.pre_run = [checker](pregel::Engine<GCTraits>& engine) {
    checker->AttachTo(&engine);
  };
  return spec;
}

/// The invariant the paper's users asked for (§7): once two adjacent
/// vertices are both colored, their colors must differ.
InvariantChecker<GCTraits>::AdjacencyPredicate DistinctColors() {
  return [](const pregel::Vertex<GCTraits>& u,
            const pregel::Vertex<GCTraits>& v, const pregel::NullValue&) {
    const GCVertexValue& a = u.value();
    const GCVertexValue& b = v.value();
    if (a.state != GCState::kColored || b.state != GCState::kColored) {
      return true;
    }
    return a.color != b.color;
  };
}

TEST(InvariantCheckerTest, CleanRunHasNoViolations) {
  graph::SimpleGraph g = graph::GenerateRegularBipartite(60, 3, 2);
  InMemoryTraceStore store;
  ConfigurableDebugConfig<GCTraits> config;
  InvariantChecker<GCTraits> checker(&store, "inv-clean");
  checker.AddAdjacencyInvariant("distinct-colors", DistinctColors());
  auto summary = pregel::RunJob(
      GCSpec(g, /*buggy=*/false, config, &store, &checker, "inv-clean"));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(checker.num_violations(), 0u);
}

TEST(InvariantCheckerTest, BuggyColoringTripsAdjacencyInvariant) {
  // Find a seed where the §4.1 bug manifests, then assert the invariant
  // checker catches it DURING the run — strictly more powerful than
  // inspecting the final output.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    graph::SimpleGraph g =
        graph::MakeUndirected(graph::GeneratePowerLaw(300, 4, seed));
    auto run = algos::RunGraphColoring(g, true, 2, seed);
    ASSERT_TRUE(run.ok());
    auto conflicts = algos::FindColoringConflicts(g, run->color);
    if (conflicts.empty()) continue;

    InMemoryTraceStore store;
    ConfigurableDebugConfig<GCTraits> config;
    InvariantChecker<GCTraits> checker(&store, "inv-buggy");
    checker.AddAdjacencyInvariant("distinct-colors", DistinctColors());
    auto spec =
        GCSpec(g, /*buggy=*/true, config, &store, &checker, "inv-buggy");
    spec.options.seed = seed;
    auto summary = pregel::RunJob(std::move(spec));
    ASSERT_TRUE(summary.ok()) << summary.status();
    ASSERT_TRUE(summary->job_status.ok());
    ASSERT_GT(checker.num_violations(), 0u);
    // Both directions of the conflicting pair are reported per superstep
    // from the moment of coloring; the recorded pair matches a real final
    // conflict.
    const InvariantViolation& first = checker.violations().front();
    EXPECT_EQ(first.invariant, "distinct-colors");
    bool matches_final = false;
    for (auto [u, v] : conflicts) {
      if ((first.u == u && first.v == v) || (first.u == v && first.v == u)) {
        matches_final = true;
      }
    }
    EXPECT_TRUE(matches_final)
        << "checker flagged (" << first.u << "," << first.v
        << ") which is not a final conflict";

    // Violations were persisted to the trace store and read back.
    auto stored = InvariantChecker<GCTraits>::ReadViolations(
        store, "inv-buggy", first.superstep);
    ASSERT_TRUE(stored.ok());
    ASSERT_FALSE(stored->empty());
    EXPECT_EQ(stored->front(), first);
    return;
  }
  GTEST_FAIL() << "GC bug never manifested across 10 seeds";
}

TEST(InvariantCheckerTest, GlobalInvariantWalkerConservation) {
  using Traits = algos::RWTraits;
  graph::SimpleGraph g = graph::GenerateRing(30);
  InMemoryTraceStore store;
  ConfigurableDebugConfig<Traits> config;
  pregel::Engine<Traits>::Options options;
  options.job_id = "inv-rw";
  InvariantChecker<Traits> checker(&store, "inv-rw");
  const int64_t expected_total = 30 * 100;
  checker.AddGlobalInvariant(
      "walker-conservation",
      [expected_total](const pregel::Engine<Traits>& engine) {
        int64_t total = 0;
        engine.ForEachVertex([&](const pregel::Vertex<Traits>& v) {
          total += v.value().value;
        });
        return total == expected_total;
      });
  pregel::JobSpec<Traits> spec;
  spec.options = options;
  spec.vertices = pregel::LoadUnweighted<Traits>(
      g, [](VertexId) { return pregel::Int64Value{0}; });
  spec.computation = algos::MakeRandomWalkFactory<Traits>(6, 100);
  spec.debug_config = &config;
  spec.trace_store = &store;
  spec.pre_run = [&](pregel::Engine<Traits>& engine) {
    checker.AttachTo(&engine);
  };
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_EQ(checker.num_violations(), 0u);
}

TEST(InvariantCheckerTest, GlobalInvariantCatchesShortOverflowLoss) {
  using Traits = algos::RWShortTraits;
  // Funnel graph: leaves feed the hub, hub feeds leaf 1 -> counter overflow
  // destroys walkers, so conservation fails mid-run.
  graph::SimpleGraph g;
  for (VertexId v = 1; v <= 500; ++v) g.AddEdge(v, 0);
  g.AddEdge(0, 1);
  InMemoryTraceStore store;
  ConfigurableDebugConfig<Traits> config;
  pregel::Engine<Traits>::Options options;
  options.job_id = "inv-rw-short";
  InvariantChecker<Traits> checker(&store, "inv-rw-short");
  const int64_t expected_total = 501 * 100;
  checker.AddGlobalInvariant(
      "walker-conservation",
      [expected_total](const pregel::Engine<Traits>& engine) {
        int64_t total = 0;
        engine.ForEachVertex([&](const pregel::Vertex<Traits>& v) {
          total += v.value().value;
        });
        return total == expected_total;
      });
  pregel::JobSpec<Traits> spec;
  spec.options = options;
  spec.vertices = pregel::LoadUnweighted<Traits>(
      g, [](VertexId) { return pregel::Int64Value{0}; });
  spec.computation = algos::MakeRandomWalkFactory<Traits>(5, 100);
  spec.debug_config = &config;
  spec.trace_store = &store;
  spec.pre_run = [&](pregel::Engine<Traits>& engine) {
    checker.AttachTo(&engine);
  };
  auto summary = pregel::RunJob(std::move(spec));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  EXPECT_GT(checker.num_violations(), 0u);
}

TEST(InvariantCheckerTest, CheckEverySkipsSuperstepsAndCapRespected) {
  graph::SimpleGraph g = graph::GenerateComplete(4);
  InMemoryTraceStore store;
  InvariantChecker<GCTraits> checker(&store, "inv-cfg");
  checker.set_check_every(1000);  // never hits superstep % 1000 == 0 except 0
  checker.set_max_violations(1);
  checker.AddAdjacencyInvariant(
      "always-fails", [](const pregel::Vertex<GCTraits>&,
                         const pregel::Vertex<GCTraits>&,
                         const pregel::NullValue&) { return false; });
  ConfigurableDebugConfig<GCTraits> config;
  auto summary = pregel::RunJob(
      GCSpec(g, /*buggy=*/false, config, &store, &checker, "inv-cfg"));
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_TRUE(summary->job_status.ok());
  // Only superstep 0 is checked, and the cap stops after one record.
  EXPECT_EQ(checker.num_violations(), 1u);
  EXPECT_EQ(checker.violations().front().superstep, 0);
}

TEST(InvariantViolationTest, SerializationRoundTrip) {
  InvariantViolation v{41, "distinct-colors", 672, 673, "u={c=3} v={c=3}"};
  BinaryWriter w;
  v.Write(w);
  BinaryReader r(w.buffer());
  auto decoded = InvariantViolation::Read(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);
}

}  // namespace
}  // namespace debug
}  // namespace graft
