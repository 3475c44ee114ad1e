#ifndef GRAFT_DEBUG_INSTRUMENTED_COMPUTATION_H_
#define GRAFT_DEBUG_INSTRUMENTED_COMPUTATION_H_

#include <memory>
#include <optional>
#include <typeinfo>
#include <utility>
#include <vector>

#include "analysis/predicate.h"
#include "common/stopwatch.h"
#include "debug/capture_manager.h"
#include "debug/vertex_trace.h"
#include "pregel/computation.h"
#include "pregel/compute_context.h"

namespace graft {
namespace debug {

/// The Graft Instrumenter (§3.1). The paper wraps the user's
/// vertex.compute() with Javassist bytecode rewriting; the C++ equivalent is
/// this decorator, which the DebugRunner substitutes for the user's
/// Computation. On every Compute() call it:
///
///   1. wraps the engine's ComputeContext in an interceptor that streams
///      outgoing messages and aggregations into the record (for
///      eagerly-captured vertices) and checks the message-value constraint
///      on each send (category 4);
///   2. calls the user's original Compute(), catching any exception
///      (category 5);
///   3. checks the vertex-value constraint on the post-compute value
///      (category 3);
///   4. decides whether the vertex should be captured — it is targeted
///      (categories 1/2 ± neighbors), capture-all-active is on, or a
///      constraint/exception fired — and if so finishes the vertex record
///      and appends it to the trace store.
///
/// Cost discipline (this is what the Figure 7 overhead bench measures): the
/// per-vertex work scales with what the DebugConfig actually asks for. An
/// untargeted vertex pays
///   * nothing extra beyond a hash lookup and a try/catch frame when only
///     exception capture is on (the DC-sp floor);
///   * one virtual indirection per SendMessage when a message constraint is
///     configured (DC-msg);
///   * one predicate call after Compute() when a vertex-value constraint is
///     configured (DC-vv).
/// A record is written only for calls that are captured, in one pass into
/// this worker's reused VertexRecordBuilder; no VertexTrace is built.
template <pregel::JobTraits Traits>
class InstrumentedComputation : public pregel::Computation<Traits> {
 public:
  using Message = typename Traits::Message;
  using VertexT = pregel::Vertex<Traits>;
  using VertexValue = typename Traits::VertexValue;

  InstrumentedComputation(std::unique_ptr<pregel::Computation<Traits>> inner,
                          CaptureManager<Traits>* manager)
      : inner_(std::move(inner)), manager_(manager) {
    GRAFT_CHECK(inner_ != nullptr);
    GRAFT_CHECK(manager_ != nullptr);
  }

  void Compute(pregel::ComputeContext<Traits>& ctx, VertexT& vertex,
               const std::vector<Message>& messages) override {
    const int64_t superstep = ctx.superstep();
    const bool selected =
        manager_->config().ShouldCaptureSuperstep(superstep);
    uint32_t target_reasons = 0;
    if (selected) {
      target_reasons = manager_->TargetReasons(vertex.id());
      if (manager_->capture_all_active()) target_reasons |= kReasonAllActive;
    }
    const bool under_limit = manager_->UnderCaptureLimit();
    if (target_reasons != 0 && !under_limit) {
      manager_->CountSkippedByLimit();
    }
    const bool eager = target_reasons != 0 && under_limit;
    const bool check_msgs = selected && manager_->has_message_constraint();
    const bool check_vv = selected && manager_->has_vertex_value_constraint();
    // Unarmed breakpoints cost exactly this null check per vertex (the
    // BM_PageRankSocEpinionsBreakpointOff bench guards it).
    const bool check_bp = selected && manager_->breakpoint() != nullptr;
    const bool catch_exceptions =
        selected && manager_->config().CaptureExceptions();

    if (!eager && !check_msgs && !check_vv && !check_bp && !catch_exceptions) {
      inner_->Compute(ctx, vertex, messages);
      return;
    }
    if (!eager && !check_msgs && !check_vv && !check_bp) {
      // Exceptions-only path (the DC-sp floor for untargeted vertices):
      // beyond one RNG-state read, zero work until a throw actually
      // happens. The trace then snapshots the post-throw state
      // (edges_snapshot_post) — the value may reflect partial mutation,
      // which the trace flags.
      const uint64_t entry_rng_state = ctx.rng().state();
      try {
        inner_->Compute(ctx, vertex, messages);
        return;
      } catch (const std::exception& e) {
        CaptureExceptionLazily(ctx, vertex, messages, entry_rng_state,
                               ExceptionInfo{
                                   typeid(e).name(), e.what(),
                                   StrFormat("at Compute() superstep=%lld "
                                             "vertex=%lld job=%s",
                                             static_cast<long long>(superstep),
                                             static_cast<long long>(
                                                 vertex.id()),
                                             manager_->job_id().c_str())});
      }
      return;
    }

    // Entry state; any capture that fires needs it. An eager capture
    // writes its entry section now. The visible aggregators and the graph
    // totals it reads are frozen for the whole compute phase (aggregations
    // merge, and UpdateTotalsFromPartitions runs, between phases), so
    // reading them before the call gives what a read after it would.
    const VertexValue value_before = vertex.value();
    const uint64_t rng_state = ctx.rng().state();
    double build_seconds = 0.0;
    if (eager) {
      Stopwatch build_clock;
      record_.Reset();
      record_.WriteEntry(value_before, vertex.edges(), messages,
                         ctx.VisibleAggregators(), ctx.total_num_vertices(),
                         ctx.total_num_edges(), rng_state,
                         /*edges_snapshot_post=*/false);
      build_seconds = build_clock.ElapsedSeconds();
    }

    Interceptor ictx(&ctx, manager_, vertex.id(), check_msgs,
                     eager ? &record_ : nullptr);
    pregel::ComputeContext<Traits>& call_ctx =
        (eager || check_msgs) ? static_cast<pregel::ComputeContext<Traits>&>(
                                    ictx)
                              : ctx;

    std::optional<ExceptionInfo> exception;
    try {
      inner_->Compute(call_ctx, vertex, messages);
    } catch (const std::exception& e) {
      exception = ExceptionInfo{
          typeid(e).name(), e.what(),
          StrFormat("at Compute() superstep=%lld vertex=%lld job=%s",
                    static_cast<long long>(superstep),
                    static_cast<long long>(vertex.id()),
                    manager_->job_id().c_str())};
    }

    uint32_t reasons = target_reasons;
    std::vector<ViolationInfo> violations = ictx.TakeViolations();
    if (!violations.empty()) reasons |= kReasonMessageValue;
    if (exception.has_value() && catch_exceptions) {
      reasons |= kReasonException;
    }
    if (check_vv &&
        !manager_->config().VertexValueConstraint(vertex.value(), vertex.id(),
                                                  superstep)) {
      reasons |= kReasonVertexValue;
      violations.push_back(
          ViolationInfo{ViolationInfo::Kind::kVertexValue, vertex.id(), 0,
                        vertex.value().ToString()});
    }
    if (check_bp) {
      analysis::PredicateInput bp_input;
      bp_input.value = analysis::NumericValueOf(vertex.value());
      bp_input.value_before = analysis::NumericValueOf(value_before);
      bp_input.superstep = superstep;
      bp_input.vertex_id = vertex.id();
      bp_input.out_degree = static_cast<int64_t>(vertex.edges().size());
      bp_input.in_degree = static_cast<int64_t>(messages.size());
      bp_input.halted = vertex.halted();
      bp_input.has_exception = exception.has_value();
      bp_input.violations = static_cast<int64_t>(violations.size());
      bp_input.worker = ctx.worker_index();
      bp_input.aggregators = &ctx.VisibleAggregators();
      if (manager_->breakpoint()->Eval(bp_input)) {
        reasons |= kReasonBreakpoint;
        manager_->CountBreakpointHit();
      }
    }

    if (reasons != 0 && manager_->UnderCaptureLimit()) {
      Stopwatch build_clock;
      if (!eager) {
        // The capture decision was made only after Compute() ran; the edge
        // snapshot therefore reflects any local edge mutations it made.
        record_.Reset();
        record_.WriteEntry(value_before, vertex.edges(), messages,
                           ctx.VisibleAggregators(), ctx.total_num_vertices(),
                           ctx.total_num_edges(), rng_state,
                           /*edges_snapshot_post=*/true);
      }
      record_.Finish(superstep, vertex.id(), reasons, vertex.value(),
                     vertex.halted(), violations,
                     exception.has_value() ? &*exception : nullptr);
      build_seconds += build_clock.ElapsedSeconds();
      Result<bool> recorded =
          manager_->RecordVertex(record_, ctx.worker_index(), build_seconds);
      if (!recorded.ok()) {
        // Capture I/O failure — an infrastructure abort (retryable from a
        // checkpoint), not a vertex bug.
        throw pregel::WorkerAbortError(recorded.status());
      }
    }

    if (exception.has_value() &&
        manager_->config().AbortOnException()) {
      // Re-raise so the engine aborts the job, like an uncaught exception in
      // a Giraph worker. The captured trace survives for post-mortem use.
      throw pregel::VertexComputeError(exception->message);
    }
  }

 private:
  /// Builds and records a best-effort trace for an exception caught on the
  /// zero-overhead path, then honors AbortOnException.
  void CaptureExceptionLazily(pregel::ComputeContext<Traits>& ctx,
                              VertexT& vertex,
                              const std::vector<Message>& messages,
                              uint64_t entry_rng_state,
                              const ExceptionInfo& exception) {
    if (manager_->UnderCaptureLimit()) {
      Stopwatch build_clock;
      record_.Reset();
      // Post-throw snapshot: the value and edges may reflect partial
      // mutation, which edges_snapshot_post flags.
      record_.WriteEntry(vertex.value(), vertex.edges(), messages,
                         ctx.VisibleAggregators(), ctx.total_num_vertices(),
                         ctx.total_num_edges(), entry_rng_state,
                         /*edges_snapshot_post=*/true);
      record_.Finish(ctx.superstep(), vertex.id(), kReasonException,
                     vertex.value(), vertex.halted(), {}, &exception);
      Result<bool> recorded = manager_->RecordVertex(
          record_, ctx.worker_index(), build_clock.ElapsedSeconds());
      if (!recorded.ok()) {
        throw pregel::WorkerAbortError(recorded.status());
      }
    }
    if (manager_->config().AbortOnException()) {
      throw pregel::VertexComputeError(exception.message);
    }
  }

  /// Context decorator: forwards everything to the engine's context, checks
  /// the message-value constraint on each send, and (for eager captures)
  /// streams outgoing messages and aggregator updates into the record.
  class Interceptor final : public pregel::ComputeContext<Traits> {
   public:
    using EdgeValue = typename Traits::EdgeValue;

    /// `record` is null unless the call is captured eagerly.
    Interceptor(pregel::ComputeContext<Traits>* inner,
                CaptureManager<Traits>* manager, VertexId vertex_id,
                bool check_messages, VertexRecordBuilder<Traits>* record)
        : inner_(inner),
          manager_(manager),
          vertex_id_(vertex_id),
          check_messages_(check_messages),
          record_(record) {}

    std::vector<ViolationInfo>&& TakeViolations() {
      return std::move(violations_);
    }

    int64_t superstep() const override { return inner_->superstep(); }
    int64_t total_num_vertices() const override {
      return inner_->total_num_vertices();
    }
    int64_t total_num_edges() const override {
      return inner_->total_num_edges();
    }
    void SendMessage(VertexId target, const Message& message) override {
      if (check_messages_ &&
          !manager_->config().MessageValueConstraint(
              message, vertex_id_, target, inner_->superstep())) {
        violations_.push_back(
            ViolationInfo{ViolationInfo::Kind::kMessageValue, vertex_id_,
                          target, message.ToString()});
      }
      if (record_ != nullptr) record_->AddOutgoing(target, message);
      inner_->SendMessage(target, message);
    }
    pregel::AggValue GetAggregated(const std::string& name) const override {
      return inner_->GetAggregated(name);
    }
    void Aggregate(const std::string& name,
                   const pregel::AggValue& update) override {
      if (record_ != nullptr) record_->AddAggregation(name, update);
      inner_->Aggregate(name, update);
    }
    const std::map<std::string, pregel::AggValue>& VisibleAggregators()
        const override {
      return inner_->VisibleAggregators();
    }
    Rng& rng() override { return inner_->rng(); }
    void RemoveVertexRequest(VertexId id) override {
      inner_->RemoveVertexRequest(id);
    }
    void AddEdgeRequest(VertexId source, VertexId target,
                        const EdgeValue& value) override {
      inner_->AddEdgeRequest(source, target, value);
    }
    void RemoveEdgeRequest(VertexId source, VertexId target) override {
      inner_->RemoveEdgeRequest(source, target);
    }
    int worker_index() const override { return inner_->worker_index(); }

   private:
    pregel::ComputeContext<Traits>* inner_;
    CaptureManager<Traits>* manager_;
    VertexId vertex_id_;
    bool check_messages_;
    VertexRecordBuilder<Traits>* record_;

    std::vector<ViolationInfo> violations_;
  };

  std::unique_ptr<pregel::Computation<Traits>> inner_;
  CaptureManager<Traits>* manager_;
  // This worker's record under construction. One instance per worker
  // thread (factory-produced), so it is thread-confined and reused across
  // every capture the worker makes.
  VertexRecordBuilder<Traits> record_;
};

/// Wraps a user factory so every worker's Computation is instrumented —
/// the programmatic equivalent of "the Graft Instrumenter takes as input the
/// user's DebugConfig file and vertex.compute() function" (§3.1).
template <pregel::JobTraits Traits>
pregel::ComputationFactory<Traits> InstrumentFactory(
    pregel::ComputationFactory<Traits> user_factory,
    CaptureManager<Traits>* manager) {
  return [user_factory = std::move(user_factory), manager] {
    return std::make_unique<InstrumentedComputation<Traits>>(user_factory(),
                                                             manager);
  };
}

}  // namespace debug
}  // namespace graft

#endif  // GRAFT_DEBUG_INSTRUMENTED_COMPUTATION_H_
