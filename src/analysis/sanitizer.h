#ifndef GRAFT_ANALYSIS_SANITIZER_H_
#define GRAFT_ANALYSIS_SANITIZER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/epoch.h"
#include "analysis/finding.h"
#include "analysis/finding_log.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "debug/reproducer.h"
#include "debug/vertex_trace.h"
#include "io/trace_store.h"
#include "pregel/computation.h"
#include "pregel/compute_context.h"
#include "pregel/master.h"
#include "pregel/phase.h"
#include "pregel/vertex.h"

namespace graft {
namespace analysis {

/// Which contract checks run, and how hard they bite. Default-constructed
/// options leave the sanitizer fully disabled: RunJob then never wraps the
/// computation, never installs watchers, and never allocates a phase clock —
/// the release hot path is byte-for-byte the unchecked one (the
/// bench_engine_baseline sanitizer-off case guards this).
struct SanitizerOptions {
  bool enabled = false;
  /// Escalate every finding to a job abort (Status::Aborted, never retried)
  /// instead of recording it and letting the run finish.
  bool fail_on_violation = false;
  /// (e) re-execution probe: 0 = off, 1 = every vertex every superstep,
  /// N = a deterministic 1-in-N sample keyed on (seed, superstep, vertex).
  uint32_t determinism_sample_rate = 0;
  /// Keys the probe sample (not the probed program's randomness — that comes
  /// from the engine's own deterministic streams).
  uint64_t seed = 0x5eed5a71ull;
};

/// The BspSanitizer: a checked execution mode that wraps the user's
/// Computation/MasterCompute in contract-enforcing decorators, layered
/// exactly like debug::InstrumentedComputation (DESIGN.md §9). One instance
/// per job run, shared by all worker threads; owns the FindingLog.
///
/// Wrap order in RunJob is Instrument(Sanitize(user)): the user program sees
/// SanitizedContext → capture Interceptor → engine context, so captures
/// record what the user actually did and sanitizer checks see the user's
/// calls first-hand.
template <pregel::JobTraits Traits>
class BspSanitizer {
 public:
  using Message = typename Traits::Message;
  using VertexValue = typename Traits::VertexValue;
  using EdgeT = pregel::Edge<typename Traits::EdgeValue>;
  using Combiner = std::function<Message(const Message&, const Message&)>;

  /// `store` may be null (findings stay in memory only); `clock` may be null
  /// (phase-dependent checks are skipped); `user_factory` is the *unwrapped*
  /// user computation, used to build fresh instances for determinism-probe
  /// replays; `combiner` is a copy of the engine's combiner for the
  /// commutativity self-test (may be null).
  BspSanitizer(const SanitizerOptions& options, TraceStore* store,
               std::string job_id, pregel::PhaseClock* clock,
               pregel::ComputationFactory<Traits> user_factory,
               Combiner combiner)
      : options_(options),
        log_(store, std::move(job_id), options.fail_on_violation),
        clock_(clock),
        user_factory_(std::move(user_factory)),
        combiner_(std::move(combiner)) {}

  BspSanitizer(const BspSanitizer&) = delete;
  BspSanitizer& operator=(const BspSanitizer&) = delete;

  const SanitizerOptions& options() const { return options_; }
  FindingLog& log() { return log_; }
  const FindingLog& log() const { return log_; }
  pregel::PhaseClock* clock() const { return clock_; }

  /// Wraps the user factory so every worker's Computation runs checked.
  pregel::ComputationFactory<Traits> WrapComputation() {
    return [this] {
      return std::make_unique<SanitizedComputation>(user_factory_(), this);
    };
  }

  /// Wraps the master factory (null-safe: no master stays no master).
  pregel::MasterFactory WrapMaster(pregel::MasterFactory factory) {
    if (factory == nullptr) return nullptr;
    return [this, factory = std::move(factory)] {
      return std::make_unique<SanitizedMaster>(factory(), this);
    };
  }

  /// 1-in-N deterministic probe sample (stable across attempts, so recovery
  /// re-probes the same vertices it pruned).
  bool ShouldProbe(int64_t superstep, VertexId vertex) const {
    const uint32_t rate = options_.determinism_sample_rate;
    if (rate == 0 || user_factory_ == nullptr) return false;
    if (rate == 1) return true;
    return Mix64(options_.seed ^
                 (static_cast<uint64_t>(superstep) * 0x9e3779b97f4a7c15ull) ^
                 static_cast<uint64_t>(vertex)) %
               rate ==
           0;
  }

 private:
  /// First update seen for a kOverwrite aggregator this superstep; a second
  /// distinct value from a different vertex makes the merged result depend
  /// on fold order.
  struct OverwriteState {
    int64_t superstep = -1;
    VertexId vertex = -1;
    pregel::AggValue value;
  };

  void RecordAggregatorSpec(const std::string& name,
                            const pregel::AggregatorSpec& spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    aggregator_specs_[name] = spec;
    if (spec.op == pregel::AggregatorOp::kOverwrite) {
      any_overwrite_aggregator_.store(true, std::memory_order_release);
    }
  }

  /// Called on every Aggregate(); jobs without a kOverwrite aggregator
  /// answer from one atomic load instead of the job-wide lock.
  bool IsOverwriteAggregator(const std::string& name) const {
    if (!any_overwrite_aggregator_.load(std::memory_order_acquire)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = aggregator_specs_.find(name);
    return it != aggregator_specs_.end() &&
           it->second.op == pregel::AggregatorOp::kOverwrite;
  }

  void NoteOverwriteAggregate(const std::string& name, int64_t superstep,
                              VertexId vertex, int worker,
                              const pregel::AggValue& value) {
    std::lock_guard<std::mutex> lock(mutex_);
    OverwriteState& state = overwrite_state_[name];
    if (state.superstep == superstep && state.vertex != vertex &&
        !(state.value == value)) {
      log_.Record(AnalysisFinding{
          .kind = FindingKind::kOrderDependentAggregation,
          .superstep = superstep,
          .vertex = vertex,
          .worker = static_cast<int32_t>(worker),
          .detail = StrFormat(
              "kOverwrite aggregator \"%s\" written distinct values by "
              "vertices %lld and %lld in the same superstep — merged result "
              "depends on worker fold order",
              name.c_str(), static_cast<long long>(state.vertex),
              static_cast<long long>(vertex))});
      return;
    }
    state = OverwriteState{superstep, vertex, value};
  }

  /// Opportunistic commutativity self-test: combine each sampled message
  /// with a few previously seen ones in both orders. Bounded (samples and
  /// total tests) so a million sends cost a handful of combiner calls; once
  /// the budget is spent or a finding is made, a send costs one atomic load.
  void TestCombinerSample(const Message& message, int64_t superstep,
                          int worker) {
    static constexpr size_t kMaxSamples = 8;
    static constexpr uint64_t kMaxTests = 64;
    if (combiner_test_done_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (combiner_test_done_.load(std::memory_order_relaxed)) return;
    for (const Message& other : combiner_samples_) {
      ++combiner_tests_done_;
      const Message ab = combiner_(other, message);
      const Message ba = combiner_(message, other);
      if (!(ab == ba)) {
        combiner_test_done_.store(true, std::memory_order_release);
        log_.Record(AnalysisFinding{
            .kind = FindingKind::kNonCommutativeCombiner,
            .superstep = superstep,
            .vertex = -1,
            .worker = static_cast<int32_t>(worker),
            .detail = StrFormat(
                "combine(%s, %s) = %s but combine(%s, %s) = %s — sender-side "
                "combining makes delivery order observable",
                other.ToString().c_str(), message.ToString().c_str(),
                ab.ToString().c_str(), message.ToString().c_str(),
                other.ToString().c_str(), ba.ToString().c_str())});
        return;
      }
      if (combiner_tests_done_ >= kMaxTests) {
        combiner_test_done_.store(true, std::memory_order_release);
        return;
      }
    }
    if (combiner_samples_.size() < kMaxSamples) {
      combiner_samples_.push_back(message);
    }
  }

  std::unique_ptr<pregel::Computation<Traits>> MakeUserComputation() {
    return user_factory_();
  }

  /// The checked vertex program. One per worker thread (factory-produced),
  /// so the per-call fields below are thread-confined; it doubles as the
  /// VertexWatcher installed on the thread for the duration of each checked
  /// Compute() call.
  class SanitizedComputation final : public pregel::Computation<Traits>,
                                     public pregel::VertexWatcher {
    class SanitizedContext;

   public:
    SanitizedComputation(std::unique_ptr<pregel::Computation<Traits>> inner,
                         BspSanitizer* sanitizer)
        : inner_(std::move(inner)),
          sanitizer_(sanitizer),
          reporter_([this](AnalysisFinding finding) {
            finding.worker = worker_;
            sanitizer_->log_.Record(std::move(finding));
          }) {}

    void Compute(pregel::ComputeContext<Traits>& ctx,
                 pregel::Vertex<Traits>& vertex,
                 const std::vector<Message>& messages) override {
      const int64_t superstep = ctx.superstep();
      worker_ = ctx.worker_index();
      superstep_ = superstep;
      vertex_ = &vertex;
      mutation_reported_ = false;

      const bool probe = sanitizer_->ShouldProbe(superstep, vertex.id());

      // Entry snapshot, only when this call will be replayed.
      VertexValue value_before{};
      uint64_t rng_state = 0;
      std::vector<EdgeT> edges_before;
      if (probe) {
        value_before = vertex.value();
        rng_state = ctx.rng().state();
        edges_before = vertex.edges();
      }

      SanitizedContext sctx(&ctx, this, &vertex, /*record_outcome=*/probe);
      {
        // Install the mutation watcher and the stale-read epoch for the
        // duration of the user call; the guard restores both on normal
        // return and on unwind (the outer instrumenter catches user
        // exceptions — the thread must be clean by then).
        ThreadHookGuard guard(this, &reporter_,
                              AccessEpoch{superstep, vertex.id(), true});
        inner_->Compute(sctx, vertex, messages);
      }
      vertex_ = nullptr;

      // Reached only when the user call returned normally: a throwing
      // Compute() is not probed (the capture layer owns exception evidence).
      if (probe) {
        RunProbe(ctx, vertex, messages, std::move(value_before), rng_state,
                 std::move(edges_before), sctx);
      }
    }

    // VertexWatcher hooks — fire synchronously inside vertex mutators.
    void OnVoteToHalt(VertexId id) override { (void)id; }
    void OnActivate(VertexId id) override {
      (void)id;
      mutation_reported_ = false;
    }
    void OnValueMutation(VertexId id) override { ReportMutation(id, "value"); }
    void OnEdgeMutation(VertexId id) override { ReportMutation(id, "edges"); }

   private:
    friend class BspSanitizer;

    void ReportMutation(VertexId id, const char* what) {
      // The engine activates every vertex before Compute(), so halted()
      // during the call means the user voted to halt and kept mutating
      // without Activate() — rule (d). One finding per Compute() call.
      if (vertex_ == nullptr || !vertex_->halted() || mutation_reported_) {
        return;
      }
      mutation_reported_ = true;
      sanitizer_->log_.Record(AnalysisFinding{
          .kind = FindingKind::kMutationAfterHalt,
          .superstep = superstep_,
          .vertex = id,
          .worker = static_cast<int32_t>(worker_),
          .detail = StrFormat(
              "%s mutated after VoteToHalt() without reactivation", what)});
    }

    /// Re-executes this vertex against the captured entry context with a
    /// fresh user Computation instance (debug::ReplayVertex machinery) and
    /// diffs every recorded effect. Any divergence means Compute() consumed
    /// something outside the BSP-visible context.
    void RunProbe(pregel::ComputeContext<Traits>& ctx,
                  pregel::Vertex<Traits>& vertex,
                  const std::vector<Message>& messages,
                  VertexValue value_before, uint64_t rng_state,
                  std::vector<EdgeT> edges_before, SanitizedContext& sctx) {
      Stopwatch probe_clock;
      debug::VertexTrace<Traits> trace;
      trace.superstep = ctx.superstep();
      trace.id = vertex.id();
      trace.value_before = std::move(value_before);
      trace.rng_state = rng_state;
      trace.edges = std::move(edges_before);
      trace.incoming = messages;
      trace.aggregators = ctx.VisibleAggregators();
      trace.total_vertices = ctx.total_num_vertices();
      trace.total_edges = ctx.total_num_edges();
      trace.value_after = vertex.value();
      trace.halted_after = vertex.halted();
      trace.outgoing = sctx.TakeOutgoing();
      trace.aggregations = sctx.TakeAggregations();
      // edges_snapshot_post stays false: the snapshot is from call entry, so
      // CheckReplayFidelity diffs messages and aggregations too.

      std::unique_ptr<pregel::Computation<Traits>> fresh =
          sanitizer_->MakeUserComputation();
      debug::ReplayFidelity fidelity =
          debug::CheckReplayFidelity(trace, *fresh);
      const bool mismatch = !fidelity.Faithful();
      if (mismatch) {
        sanitizer_->log_.Record(AnalysisFinding{
            .kind = FindingKind::kNondeterminism,
            .superstep = trace.superstep,
            .vertex = trace.id,
            .worker = static_cast<int32_t>(worker_),
            .detail =
                "re-execution with identical inputs diverged: " +
                fidelity.mismatch_detail});
      }
      sanitizer_->log_.AccountProbe(mismatch, probe_clock.ElapsedSeconds());
    }

    /// Context decorator the user program actually talks to.
    class SanitizedContext final : public pregel::ComputeContext<Traits> {
     public:
      using EdgeValue = typename Traits::EdgeValue;

      SanitizedContext(pregel::ComputeContext<Traits>* inner,
                       SanitizedComputation* owner,
                       const pregel::Vertex<Traits>* vertex,
                       bool record_outcome)
          : inner_(inner),
            owner_(owner),
            vertex_(vertex),
            record_outcome_(record_outcome) {}

      std::vector<std::pair<VertexId, Message>>&& TakeOutgoing() {
        return std::move(outgoing_);
      }
      std::vector<std::pair<std::string, pregel::AggValue>>&&
      TakeAggregations() {
        return std::move(aggregations_);
      }

      int64_t superstep() const override { return inner_->superstep(); }
      int64_t total_num_vertices() const override {
        return inner_->total_num_vertices();
      }
      int64_t total_num_edges() const override {
        return inner_->total_num_edges();
      }

      void SendMessage(VertexId target, const Message& message) override {
        BspSanitizer* sanitizer = owner_->sanitizer_;
        if (vertex_->halted()) {
          sanitizer->log_.Record(AnalysisFinding{
              .kind = FindingKind::kSendAfterHalt,
              .superstep = inner_->superstep(),
              .vertex = vertex_->id(),
              .worker = static_cast<int32_t>(owner_->worker_),
              .detail = StrFormat(
                  "SendMessage to vertex %lld after VoteToHalt() in the same "
                  "Compute() call",
                  static_cast<long long>(target))});
        }
        if (sanitizer->combiner_ != nullptr) {
          sanitizer->TestCombinerSample(message, inner_->superstep(),
                                        owner_->worker_);
        }
        if (record_outcome_) outgoing_.emplace_back(target, message);
        inner_->SendMessage(target, message);
      }

      pregel::AggValue GetAggregated(const std::string& name) const override {
        return inner_->GetAggregated(name);
      }

      void Aggregate(const std::string& name,
                     const pregel::AggValue& update) override {
        BspSanitizer* sanitizer = owner_->sanitizer_;
        const int64_t superstep = inner_->superstep();
        if (sanitizer->clock_ != nullptr) {
          const auto [phase, clock_superstep] = sanitizer->clock_->Read();
          if (phase != pregel::EnginePhase::kVertexCompute) {
            sanitizer->log_.Record(AnalysisFinding{
                .kind = FindingKind::kAggregatorPhase,
                .superstep = clock_superstep,
                .vertex = vertex_->id(),
                .worker = static_cast<int32_t>(owner_->worker_),
                .detail = StrFormat(
                    "Aggregate(\"%s\") outside the vertex compute phase "
                    "(engine is in %s)",
                    name.c_str(), pregel::EnginePhaseName(phase))});
          }
        }
        if (sanitizer->IsOverwriteAggregator(name)) {
          sanitizer->NoteOverwriteAggregate(name, superstep, vertex_->id(),
                                            owner_->worker_, update);
        }
        if (record_outcome_) aggregations_.emplace_back(name, update);
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
      SanitizedComputation* owner_;
      const pregel::Vertex<Traits>* vertex_;
      bool record_outcome_;

      std::vector<std::pair<VertexId, Message>> outgoing_;
      std::vector<std::pair<std::string, pregel::AggValue>> aggregations_;
    };

    /// Installs/uninstalls the thread-local hooks, exception-safe.
    class ThreadHookGuard {
     public:
      ThreadHookGuard(pregel::VertexWatcher* watcher, EpochReporter* reporter,
                      AccessEpoch epoch)
          : watcher_installed_(watcher != nullptr),
            reporter_installed_(reporter != nullptr) {
        if (watcher_installed_) {
          prev_watcher_ = pregel::VertexWatcher::Install(watcher);
        }
        if (reporter_installed_) {
          prev_reporter_ = EpochReporter::Install(reporter, epoch);
        }
      }
      ~ThreadHookGuard() {
        if (reporter_installed_) {
          EpochReporter::Install(prev_reporter_, AccessEpoch{});
        }
        if (watcher_installed_) {
          pregel::VertexWatcher::Install(prev_watcher_);
        }
      }
      ThreadHookGuard(const ThreadHookGuard&) = delete;
      ThreadHookGuard& operator=(const ThreadHookGuard&) = delete;

     private:
      bool watcher_installed_;
      bool reporter_installed_;
      pregel::VertexWatcher* prev_watcher_ = nullptr;
      EpochReporter* prev_reporter_ = nullptr;
    };

    std::unique_ptr<pregel::Computation<Traits>> inner_;
    BspSanitizer* sanitizer_;
    EpochReporter reporter_;

    // Per-Compute()-call state (thread-confined).
    int worker_ = -1;
    int64_t superstep_ = -1;
    const pregel::Vertex<Traits>* vertex_ = nullptr;
    bool mutation_reported_ = false;
  };

  /// Checked master context: records aggregator registrations for the
  /// kOverwrite order check and enforces the SetAggregated barrier rules.
  class SanitizedMasterContext final : public pregel::MasterContext {
   public:
    SanitizedMasterContext(pregel::MasterContext* inner,
                           BspSanitizer* sanitizer, bool in_initialize)
        : inner_(inner), sanitizer_(sanitizer), in_initialize_(in_initialize) {}

    int64_t superstep() const override { return inner_->superstep(); }
    int64_t total_num_vertices() const override {
      return inner_->total_num_vertices();
    }
    int64_t total_num_edges() const override {
      return inner_->total_num_edges();
    }

    Status RegisterAggregator(const std::string& name,
                              const pregel::AggregatorSpec& spec) override {
      sanitizer_->RecordAggregatorSpec(name, spec);
      return inner_->RegisterAggregator(name, spec);
    }

    pregel::AggValue GetAggregated(const std::string& name) const override {
      return inner_->GetAggregated(name);
    }

    Status SetAggregated(const std::string& name,
                         const pregel::AggValue& value) override {
      if (in_initialize_) {
        // Initialize() runs before superstep 0, whose aggregator reset
        // discards any value set here — the classic "why is my phase
        // aggregator still at its initial value" master bug (§3.4).
        sanitizer_->log_.Record(AnalysisFinding{
            .kind = FindingKind::kAggregatorPhase,
            .superstep = -1,
            .vertex = -1,
            .worker = -1,
            .detail = StrFormat(
                "SetAggregated(\"%s\") during Initialize() — the value is "
                "discarded by the superstep-0 aggregator reset; set it "
                "from Compute() or via the spec's initial value",
                name.c_str())});
      } else if (sanitizer_->clock_ != nullptr &&
                 sanitizer_->clock_->phase() !=
                     pregel::EnginePhase::kMasterCompute) {
        sanitizer_->log_.Record(AnalysisFinding{
            .kind = FindingKind::kAggregatorPhase,
            .superstep = sanitizer_->clock_->superstep(),
            .vertex = -1,
            .worker = -1,
            .detail = StrFormat(
                "master SetAggregated(\"%s\") outside master.compute() "
                "(engine is in %s)",
                name.c_str(),
                pregel::EnginePhaseName(sanitizer_->clock_->phase()))});
      }
      return inner_->SetAggregated(name, value);
    }

    const std::map<std::string, pregel::AggValue>& VisibleAggregators()
        const override {
      return inner_->VisibleAggregators();
    }
    void HaltComputation() override { inner_->HaltComputation(); }
    bool IsHalted() const override { return inner_->IsHalted(); }
    Rng& rng() override { return inner_->rng(); }

   private:
    pregel::MasterContext* inner_;
    BspSanitizer* sanitizer_;
    bool in_initialize_;
  };

  class SanitizedMaster final : public pregel::MasterCompute {
   public:
    SanitizedMaster(std::unique_ptr<pregel::MasterCompute> inner,
                    BspSanitizer* sanitizer)
        : inner_(std::move(inner)), sanitizer_(sanitizer) {}

    void Initialize(pregel::MasterContext& ctx) override {
      SanitizedMasterContext sctx(&ctx, sanitizer_, /*in_initialize=*/true);
      inner_->Initialize(sctx);
    }
    void Compute(pregel::MasterContext& ctx) override {
      SanitizedMasterContext sctx(&ctx, sanitizer_, /*in_initialize=*/false);
      inner_->Compute(sctx);
    }

   private:
    std::unique_ptr<pregel::MasterCompute> inner_;
    BspSanitizer* sanitizer_;
  };

  const SanitizerOptions options_;
  FindingLog log_;
  pregel::PhaseClock* const clock_;
  pregel::ComputationFactory<Traits> user_factory_;
  const Combiner combiner_;

  mutable std::mutex mutex_;
  std::map<std::string, pregel::AggregatorSpec> aggregator_specs_;
  std::map<std::string, OverwriteState> overwrite_state_;
  std::vector<Message> combiner_samples_;
  uint64_t combiner_tests_done_ = 0;
  // Lock-free early-outs for the per-send and per-Aggregate checks; each
  // only ever flips false -> true, under mutex_. The combiner test is done
  // once its budget is spent or it has flagged the combiner.
  std::atomic<bool> combiner_test_done_{false};
  std::atomic<bool> any_overwrite_aggregator_{false};
};

}  // namespace analysis
}  // namespace graft

#endif  // GRAFT_ANALYSIS_SANITIZER_H_
