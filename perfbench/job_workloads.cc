// The debug-run workload: a developer's job under the debugger. PageRank
// (10 iterations, sum combiner) on soc-Epinions at 1/4 scale, with
// capture-all-active through the async sink and the sanitizer probing every
// 64th vertex, run back to back in a closed loop, one job at a time. Capture
// and analysis do most of the work.
//
// A timed op is spec build (vertex load included) plus RunJob, measured in
// CPU time of the whole process (every engine worker and the spool flusher)
// and in wall time. Checks run after the op: the trace digest and the final
// ranks. The traced run adds ablation jobs and a checkpoint/recovery probe:
// the same PageRank in production shape (uncombined, delta checkpoints every
// 2 supersteps, one seeded worker crash recovered in place), which feeds the
// ckpt.* metrics.

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "bench.h"
#include "common/fault_injector.h"
#include "common/string_util.h"
#include "debug/debug_config.h"
#include "graph/datasets.h"
#include "io/trace_store.h"
#include "pregel/job.h"
#include "pregel/loader.h"

namespace perfbench {
namespace {

using graft::VertexId;
using graft::algos::PageRankTraits;
using graft::pregel::DoubleValue;
using Spec = graft::pregel::JobSpec<PageRankTraits>;

constexpr int kIterations = 10;
constexpr char kJobId[] = "bench-pagerank";

/// (vertex id, rank bits), sorted by id: final values compared bitwise.
using Values = std::vector<std::pair<VertexId, uint64_t>>;

enum class Variant {
  kDebug,          // capture-all-active via the async sink + sanitizer
  kSyncReference,  // kDebug through the synchronous sink (digest reference)
  kPlain,          // neither capture nor sanitizer (value reference, ablation)
  kCaptureOnly,    // ablation
  kSanitizerOnly,  // ablation
  kCheckpointed,   // uncombined, delta checkpoints every 2 supersteps (probe)
};

struct JobResult {
  std::string error;  // "" = RunJob and the job succeeded
  double op_seconds = 0.0;
  double op_cpu_seconds = 0.0;  // process CPU time of the op
  double run_seconds = 0.0;     // RunJob alone
  graft::pregel::JobRunSummary summary;
  Values values;
  uint64_t digest = 0;  // over the job's trace files (capture variants)
};

const graft::debug::ConfigurableDebugConfig<PageRankTraits>&
CaptureAllActive() {
  static const graft::debug::ConfigurableDebugConfig<PageRankTraits> config =
      [] {
        graft::debug::ConfigurableDebugConfig<PageRankTraits> c;
        c.set_capture_all_active(true);
        return c;
      }();
  return config;
}

uint64_t TraceDigest(const graft::TraceStore& store) {
  Digest digest;
  for (const std::string& file : store.ListFiles(std::string(kJobId) + "/")) {
    digest.Update(file);
    auto records = store.ReadAll(file);
    if (!records.ok()) return 0;
    for (const std::string& record : *records) digest.Update(record);
  }
  return digest.value();
}

/// One job: the timed op (spec build + RunJob), then its outputs.
JobResult RunVariant(const graft::graph::SimpleGraph& graph, Variant variant,
                     graft::TraceStore* store,
                     graft::FaultInjector* injector) {
  const bool capture = variant == Variant::kDebug ||
                       variant == Variant::kSyncReference ||
                       variant == Variant::kCaptureOnly;
  const bool sanitizer = variant == Variant::kDebug ||
                         variant == Variant::kSyncReference ||
                         variant == Variant::kSanitizerOnly;
  JobResult result;
  const double cpu_start = ProcessCpuSeconds();
  Span op("op.job", /*root=*/true);
  Spec spec;
  {
    Span load("pregel.LoadUnweighted");
    spec.vertices = graft::pregel::LoadUnweighted<PageRankTraits>(
        graph, [](VertexId) { return DoubleValue{0.0}; });
  }
  spec.options.num_workers = kEngineWorkers;
  spec.options.job_id = kJobId;
  spec.transport.kind = graft::pregel::TransportKind::kInProc;
  spec.computation = [] {
    return std::make_unique<graft::algos::PageRankComputation>(kIterations);
  };
  spec.master = []() -> std::unique_ptr<graft::pregel::MasterCompute> {
    return std::make_unique<graft::algos::PageRankMaster>(kIterations);
  };
  if (variant != Variant::kCheckpointed) {
    spec.options.combiner = [](const DoubleValue& a, const DoubleValue& b) {
      return DoubleValue{a.value + b.value};
    };
  }
  if (capture) {
    spec.debug_config = &CaptureAllActive();
    spec.trace_store = store;
    spec.capture_io.async = variant != Variant::kSyncReference;
  }
  if (sanitizer) {
    spec.sanitizer.enabled = true;
    spec.sanitizer.determinism_sample_rate = 64;
  }
  if (variant == Variant::kCheckpointed) {
    spec.checkpoint.interval = 2;
    spec.checkpoint.store = store;
    spec.checkpoint.mode = graft::pregel::CheckpointMode::kDelta;
    spec.fault_injector = injector;
    // Parts are written inline: with an in-memory store there is no write
    // latency to hide, and the spooling writer would be one more busy thread.
    spec.checkpoint.async_parts = false;
  }
  Values& values = result.values;
  spec.post_run = [&values](graft::pregel::Engine<PageRankTraits>& engine) {
    values.clear();
    engine.ForEachVertex([&values](const auto& v) {
      values.emplace_back(v.id(), std::bit_cast<uint64_t>(v.value().value));
    });
  };
  auto summary = [&] {
    Span run("pregel.RunJob");
    auto s = graft::pregel::RunJob(std::move(spec));
    result.run_seconds = run.End();
    return s;
  }();
  result.op_seconds = op.End();
  result.op_cpu_seconds = ProcessCpuSeconds() - cpu_start;

  std::sort(values.begin(), values.end());
  if (!summary.ok()) {
    result.error = summary.status().ToString();
  } else {
    result.summary = *std::move(summary);
    if (!result.summary.job_status.ok()) {
      result.error = result.summary.job_status.ToString();
    }
  }
  if (capture) result.digest = TraceDigest(*store);
  return result;
}

/// Graphs per run, each from its own seed. Jobs cycle over them, so a run's
/// medians average over several inputs instead of one graph's quirks.
constexpr size_t kGraphs = 3;

/// Dataset generation and load of every graph of a run into `graphs`;
/// returns the CPU seconds it took, or -1 on failure.
double GenerateAndLoad(const Config& config,
                       std::vector<graft::graph::SimpleGraph>* graphs,
                       Outcome* out) {
  const double cpu_start = ProcessCpuSeconds();
  graft::graph::DatasetOptions options;
  options.scale_denominator = config.tiny ? 64 : 4;
  graphs->clear();
  for (size_t i = 0; i < kGraphs; ++i) {
    options.seed = config.seed * kGraphs + i;
    {
      Span span("graph.MakeDataset");
      auto graph = graft::graph::MakeDataset("soc-Epinions", options);
      if (!graph.ok()) {
        out->Check(false, "MakeDataset: " + graph.status().ToString());
        graphs->clear();
        return -1.0;
      }
      graphs->push_back(*std::move(graph));
    }
    Span span("pregel.LoadUnweighted");
    auto vertices = graft::pregel::LoadUnweighted<PageRankTraits>(
        graphs->back(), [](VertexId) { return DoubleValue{0.0}; });
    out->Check(vertices.size() == graphs->back().NumVertices(),
               "LoadUnweighted vertex count");
  }
  return ProcessCpuSeconds() - cpu_start;
}

struct JobSetup {
  std::vector<graft::graph::SimpleGraph> graphs;
  std::vector<double> setup_seconds;
};

JobSetup SetUp(const Config& config, Outcome* out) {
  JobSetup setup;
  const double seconds = GenerateAndLoad(config, &setup.graphs, out);
  if (seconds < 0) return setup;
  setup.setup_seconds.push_back(seconds);
  std::string vertices, edges;
  for (const auto& graph : setup.graphs) {
    vertices += (vertices.empty() ? "" : ",") +
                std::to_string(graph.NumVertices());
    edges += (edges.empty() ? "" : ",") +
             std::to_string(graph.NumDirectedEdges());
  }
  out->Info("dataset", "soc-Epinions");
  out->Info("scale", config.tiny ? "1/64" : "1/4");
  out->Info("graphs", std::to_string(kGraphs));
  out->Info("vertices", vertices);
  out->Info("edges", edges);
  return setup;
}

/// Runs `one_job` back to back until `seconds` have passed (at least once).
template <typename Fn>
void ClosedLoop(double seconds, Fn&& one_job) {
  const Clock::time_point start = Clock::now();
  do {
    one_job();
  } while (SecondsSince(start) < seconds);
}

/// What the end-to-end metrics keep of an untraced job.
struct JobTiming {
  double op_seconds = 0.0;
  double op_cpu_seconds = 0.0;
  uint64_t messages = 0;
};

template <typename Job>
std::vector<double> Millis(const std::vector<Job>& jobs, double Job::*seconds) {
  std::vector<double> ms;
  for (const Job& job : jobs) ms.push_back(job.*seconds * 1e3);
  return ms;
}

/// End-to-end metrics over the untraced jobs; wall times go on the env line.
void SetEndToEnd(const std::vector<JobTiming>& jobs, const JobSetup& setup,
                 Outcome* out) {
  const std::vector<double> cpu_ms = Millis(jobs, &JobTiming::op_cpu_seconds);
  const std::vector<double> wall_ms = Millis(jobs, &JobTiming::op_seconds);
  uint64_t messages = 0;
  for (const JobTiming& job : jobs) messages += job.messages;
  // p75: the 40 to 55 jobs of a 30 s run leave ten samples beyond it.
  const Tail tail = TailOf(cpu_ms, 75.0);
  out->Set("op_cpu_ms", Median(cpu_ms));
  out->Set("op_cpu_ms_tail", tail.value);
  out->Set("work_per_cpu_s", static_cast<double>(messages) / Sum(cpu_ms) * 1e3);
  out->Set("setup_s", Median(setup.setup_seconds));
  out->Info("setup_reps", std::to_string(setup.setup_seconds.size()));
  out->Info("op", "job (spec build + RunJob)");
  out->Info("op_tail_percentile", graft::StrFormat("%.1f", tail.percentile));
  out->Info("op_samples", std::to_string(tail.samples));
  out->Info("work_unit", "messages (JobStats::total_messages)");
  out->Info("op_wall_ms", graft::StrFormat("%.4f", Median(wall_ms)));
  out->Info("op_wall_ms_tail",
            graft::StrFormat("%.4f", TailOf(wall_ms, 75.0).value));
}

using graft::obs::RunReport;

/// One per-layer metric read from a job's RunReport.
struct ReportField {
  const char* name;
  double (*read)(const RunReport&);
};

constexpr ReportField kEngineFields[] = {
    {"pregel.compute_s",
     [](const RunReport& r) { return r.TotalComputeWallSeconds(); }},
    {"pregel.delivery_s",
     [](const RunReport& r) { return r.TotalDeliveryWallSeconds(); }},
    {"pregel.barrier_wait_s",
     [](const RunReport& r) { return r.TotalBarrierWaitSeconds(); }},
    {"pregel.master_s",
     [](const RunReport& r) { return r.TotalMasterSeconds(); }},
    {"pregel.supersteps",
     [](const RunReport& r) { return static_cast<double>(r.supersteps); }},
};

constexpr ReportField kCheckpointFields[] = {
    {"ckpt.write_s",
     [](const RunReport& r) { return r.recovery.checkpoint_seconds; }},
    {"ckpt.restore_s",
     [](const RunReport& r) { return r.recovery.restore_seconds; }},
    {"ckpt.bytes",
     [](const RunReport& r) {
       return static_cast<double>(r.recovery.checkpoint_bytes);
     }},
    {"ckpt.log_bytes",
     [](const RunReport& r) {
       return static_cast<double>(r.recovery.log_bytes);
     }},
    {"ckpt.topology_bytes",
     [](const RunReport& r) {
       return static_cast<double>(r.recovery.topology_bytes);
     }},
    {"ckpt.recoveries",
     [](const RunReport& r) {
       return static_cast<double>(r.recovery.recoveries);
     }},
    {"ckpt.confined_recoveries",
     [](const RunReport& r) {
       return static_cast<double>(r.recovery.confined_recoveries);
     }},
};

constexpr ReportField kCaptureFields[] = {
    {"capture.captures",
     [](const RunReport& r) {
       return static_cast<double>(r.capture.vertex_captures);
     }},
    {"capture.trace_bytes",
     [](const RunReport& r) {
       return static_cast<double>(r.capture.trace_bytes);
     }},
    {"capture.bytes_per_capture",
     [](const RunReport& r) {
       return r.capture.vertex_captures == 0
                  ? 0.0
                  : static_cast<double>(r.capture.trace_bytes) /
                        static_cast<double>(r.capture.vertex_captures);
     }},
    {"capture.serialize_s",
     [](const RunReport& r) { return r.capture.serialize_seconds; }},
    {"sink.append_s",
     [](const RunReport& r) { return r.capture.append_seconds; }},
    {"sink.flush_s",
     [](const RunReport& r) { return r.capture.flush_seconds; }},
    {"sink.backpressure_waits",
     [](const RunReport& r) {
       return static_cast<double>(r.capture.spool_backpressure_waits);
     }},
    {"sink.max_queue_depth",
     [](const RunReport& r) {
       return static_cast<double>(r.capture.spool_max_queue_depth);
     }},
};

constexpr ReportField kAnalysisFields[] = {
    {"analysis.probes",
     [](const RunReport& r) {
       return static_cast<double>(r.analysis.determinism_probes);
     }},
    {"analysis.probe_s",
     [](const RunReport& r) { return r.analysis.probe_seconds; }},
    {"analysis.findings",
     [](const RunReport& r) {
       return static_cast<double>(r.analysis.findings_total);
     }},
};

template <typename Fn>
double MedianOver(const std::vector<JobResult>& jobs, Fn&& field) {
  std::vector<double> values;
  for (const JobResult& job : jobs) values.push_back(field(job));
  return Median(values);
}

/// Each field's median over the jobs' RunReports.
void SetReportFields(const std::vector<JobResult>& jobs,
                     std::span<const ReportField> fields, Outcome* out) {
  for (const ReportField& f : fields) {
    out->Set(f.name, MedianOver(jobs, [&f](const JobResult& j) {
               return f.read(j.summary.stats.report);
             }));
  }
}

/// Per-layer metrics from the traced jobs' spans and RunReports.
void SetJobLayers(const std::vector<JobResult>& jobs, Outcome* out) {
  out->Set("graph.generate_s", Median(SpanSeconds("graph.MakeDataset")));
  out->Set("graph.load_s", Median(SpanSelfSeconds("pregel.LoadUnweighted")));
  out->Set("pregel.run_job_s", Median(SpanSelfSeconds("pregel.RunJob")));
  out->Set("bench.op_self_ms", Median(SpanSelfSeconds("op.job")) * 1e3);
  out->Set("pregel.messages", MedianOver(jobs, [](const JobResult& j) {
             return static_cast<double>(j.summary.stats.total_messages);
           }));
  // RunJob wall minus the superstep totals the report attributes.
  out->Set("pregel.unattributed_s", MedianOver(jobs, [](const JobResult& j) {
             double attributed = 0.0;
             for (const auto& step : j.summary.stats.report.per_superstep) {
               attributed += step.total_seconds;
             }
             return j.run_seconds - attributed;
           }));
  SetReportFields(jobs, kEngineFields, out);
  SetReportFields(jobs, kCaptureFields, out);
  SetReportFields(jobs, kAnalysisFields, out);
}

/// The timed phase: untraced jobs for the end-to-end metrics; in a
/// traced run half the time untraced, then half traced for the layers.
template <typename Fn>
void RunTimedPhases(const Config& config, JobSetup& setup, Fn&& one_job,
                    Outcome* out) {
  std::vector<JobTiming> untraced;
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  // Untraced runs repeat the set-up between jobs, evenly over the run, so
  // setup_s samples the whole run rather than the moment before it.
  const int setup_reps = config.trace ? 0 : (config.tiny ? 2 : 20);
  const Clock::time_point start = Clock::now();
  ClosedLoop(untraced_seconds, [&] {
    const int reps_done = static_cast<int>(setup.setup_seconds.size()) - 1;
    if (reps_done < setup_reps &&
        SecondsSince(start) >= reps_done * untraced_seconds / setup_reps) {
      std::vector<graft::graph::SimpleGraph> discarded;
      const double seconds = GenerateAndLoad(config, &discarded, out);
      if (seconds >= 0) setup.setup_seconds.push_back(seconds);
    }
    const JobResult job = one_job();
    untraced.push_back({job.op_seconds, job.op_cpu_seconds,
                        job.summary.stats.total_messages});
  });
  if (!config.trace) {
    SetEndToEnd(untraced, setup, out);
    return;
  }
  SetTracing(true);
  std::vector<JobResult> traced;
  ClosedLoop(config.seconds / 2, [&] {
    JobResult job = one_job();
    job.values = {};  // checked already; keep only the timings and report
    traced.push_back(std::move(job));
  });
  SetTracing(false);
  SetJobLayers(traced, out);
  const double untraced_ms = Median(Millis(untraced, &JobTiming::op_seconds));
  out->Set("trace.untraced_op_ms", untraced_ms);
  out->Set("trace.overhead_pct",
           (Median(Millis(traced, &JobResult::op_seconds)) / untraced_ms - 1) *
               100);
}

std::string Describe(const JobResult& job) {
  return job.error.empty() ? "" : " (" + job.error + ")";
}

/// The checkpoint/recovery probe of the traced run: on each graph, one
/// uncombined job with delta checkpoints every 2 supersteps and one injected
/// worker crash, one superstep after a checkpoint, at a seeded (superstep,
/// partition). It must make exactly one confined recovery and end with the
/// ranks of the same job run fault-free.
void ProbeCheckpointRecovery(const Config& config,
                             const std::vector<graft::graph::SimpleGraph>& graphs,
                             Outcome* out) {
  std::vector<JobResult> recovered;
  std::string fault_info;
  for (size_t g = 0; g < graphs.size(); ++g) {
    graft::FaultPoint fault;
    fault.site = graft::FaultSite::kWorkerCompute;
    fault.superstep = 3 + 2 * static_cast<int64_t>((config.seed + g) % 3);
    fault.partition =
        static_cast<int>((config.seed / 3 + g) % kEngineWorkers);
    fault_info += graft::StrFormat("%s(%lld,%d)", fault_info.empty() ? "" : ",",
                                   static_cast<long long>(fault.superstep),
                                   fault.partition);
    graft::InMemoryTraceStore clean_store;
    const JobResult clean =
        RunVariant(graphs[g], Variant::kCheckpointed, &clean_store, nullptr);
    out->Check(clean.error.empty() && !clean.values.empty() &&
                   clean.summary.stats.report.recovery.recoveries == 0,
               "fault-free checkpointed job" + Describe(clean));
    graft::InMemoryTraceStore store;
    graft::FaultInjector injector;
    injector.Arm(fault);
    JobResult job =
        RunVariant(graphs[g], Variant::kCheckpointed, &store, &injector);
    const auto& recovery = job.summary.stats.report.recovery;
    out->Check(job.error.empty() && injector.fired_count() == 1 &&
                   recovery.recoveries == 1 &&
                   recovery.confined_recoveries == 1,
               "expected exactly one confined recovery" + Describe(job));
    out->Check(job.values == clean.values,
               "recovered ranks differ from the fault-free run");
    recovered.push_back(std::move(job));
  }
  out->Info("faults", "worker_compute (superstep,partition): " + fault_info);
  SetReportFields(recovered, kCheckpointFields, out);
}

}  // namespace

Outcome RunDebugRun(const Config& config) {
  Outcome out;
  SetTracing(config.trace);
  JobSetup setup = SetUp(config, &out);
  SetTracing(false);
  if (setup.graphs.empty()) return out;
  const std::vector<graft::graph::SimpleGraph>& graphs = setup.graphs;

  // References per graph: ranks of a plain run, trace digest of a sync-sink
  // run.
  std::vector<Values> ranks;
  std::vector<uint64_t> digests;
  std::string digest_info;
  for (const auto& graph : graphs) {
    JobResult plain = RunVariant(graph, Variant::kPlain, nullptr, nullptr);
    out.Check(plain.error.empty() && !plain.values.empty(),
              "plain reference job" + Describe(plain));
    graft::InMemoryTraceStore store;
    const JobResult sync =
        RunVariant(graph, Variant::kSyncReference, &store, nullptr);
    out.Check(sync.error.empty() && sync.summary.analysis_findings == 0 &&
                  sync.values == plain.values,
              "sync-sink reference job" + Describe(sync));
    ranks.push_back(std::move(plain.values));
    digests.push_back(sync.digest);
    digest_info += graft::StrFormat("%s%016llx", digest_info.empty() ? "" : ",",
                                    static_cast<unsigned long long>(sync.digest));
  }
  out.Info("trace_digests", digest_info);

  std::string corrupt = config.corrupt;
  size_t next = 0;
  auto one_job = [&]() {
    const size_t g = next++ % graphs.size();
    graft::InMemoryTraceStore store;
    JobResult job = RunVariant(graphs[g], Variant::kDebug, &store, nullptr);
    if (corrupt == "digest") job.digest ^= 1;
    if (corrupt == "ranks" && !job.values.empty()) job.values[0].second ^= 1;
    corrupt.clear();
    out.Check(job.error.empty(), "debug job failed" + Describe(job));
    out.Check(job.digest == digests[g],
              "trace digest differs from the sync-sink reference");
    out.Check(job.values == ranks[g], "final ranks differ from plain run");
    out.Check(job.summary.analysis_findings == 0, "sanitizer findings");
    return job;
  };
  RunTimedPhases(config, setup, one_job, &out);

  if (config.trace) {
    // Ablations: plain, capture-only and sanitizer-only jobs, interleaved.
    std::vector<double> plain_s, capture_s, sanitizer_s;
    const size_t reps = config.tiny ? 1 : kGraphs;
    for (size_t rep = 0; rep < reps; ++rep) {
      const size_t g = rep % graphs.size();
      const JobResult p =
          RunVariant(graphs[g], Variant::kPlain, nullptr, nullptr);
      graft::InMemoryTraceStore store;
      const JobResult c =
          RunVariant(graphs[g], Variant::kCaptureOnly, &store, nullptr);
      const JobResult s =
          RunVariant(graphs[g], Variant::kSanitizerOnly, nullptr, nullptr);
      out.Check(p.error.empty() && p.values == ranks[g],
                "plain ablation job" + Describe(p));
      out.Check(c.error.empty() && c.values == ranks[g],
                "capture-only ablation job" + Describe(c));
      out.Check(s.error.empty() && s.values == ranks[g] &&
                    s.summary.analysis_findings == 0,
                "sanitizer-only ablation job" + Describe(s));
      plain_s.push_back(p.op_seconds);
      capture_s.push_back(c.op_seconds);
      sanitizer_s.push_back(s.op_seconds);
    }
    const double base = Median(plain_s);
    out.Set("ablation.plain_job_s", base);
    out.Set("ablation.capture_job_s", Median(capture_s));
    out.Set("ablation.sanitizer_job_s", Median(sanitizer_s));
    out.Set("capture.overhead_x", Median(capture_s) / base);
    out.Set("analysis.overhead_x", Median(sanitizer_s) / base);
    ProbeCheckpointRecovery(config, graphs, &out);
  }
  return out;
}

}  // namespace perfbench
