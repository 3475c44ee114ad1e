#include "obs/run_report.h"

#include <algorithm>

#include "common/json_writer.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace graft {
namespace obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kMutation:
      return "mutation";
    case Phase::kDelivery:
      return "delivery";
    case Phase::kMaster:
      return "master";
    case Phase::kCompute:
      return "compute";
    case Phase::kBarrierWait:
      return "barrier_wait";
    case Phase::kAggregatorMerge:
      return "aggregator_merge";
  }
  return "?";
}

double RunReport::TotalComputeWallSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) {
    total += s.compute_wall_seconds;
  }
  return total;
}

double RunReport::TotalDeliveryWallSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) {
    total += s.delivery_wall_seconds;
  }
  return total;
}

double RunReport::TotalMasterSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) total += s.master_seconds;
  return total;
}

double RunReport::TotalMutationSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) total += s.mutation_seconds;
  return total;
}

double RunReport::TotalAggregatorMergeSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) {
    total += s.aggregator_merge_seconds;
  }
  return total;
}

double RunReport::TotalBarrierWaitSeconds() const {
  double total = 0;
  for (const SuperstepProfile& s : per_superstep) {
    for (const WorkerPhaseProfile& w : s.workers) {
      total += w.barrier_wait_seconds;
    }
  }
  return total;
}

double RunReport::MaxSuperstepSeconds() const {
  double max = 0;
  for (const SuperstepProfile& s : per_superstep) {
    max = std::max(max, s.total_seconds);
  }
  return max;
}

void RunReport::AppendJson(JsonWriter* writer) const {
  JsonWriter& w = *writer;
  w.BeginObject();
  w.KV("job_id", job_id);
  w.KV("num_workers", static_cast<int64_t>(num_workers));
  w.KV("supersteps", supersteps);
  w.KV("total_seconds", total_seconds);
  w.KV("transport", transport);
  w.Key("phase_totals");
  w.BeginObject();
  w.KV(PhaseName(Phase::kMutation), TotalMutationSeconds());
  w.KV(PhaseName(Phase::kDelivery), TotalDeliveryWallSeconds());
  w.KV(PhaseName(Phase::kMaster), TotalMasterSeconds());
  w.KV(PhaseName(Phase::kCompute), TotalComputeWallSeconds());
  w.KV(PhaseName(Phase::kBarrierWait), TotalBarrierWaitSeconds());
  w.KV(PhaseName(Phase::kAggregatorMerge), TotalAggregatorMergeSeconds());
  w.EndObject();
  w.Key("per_superstep");
  w.BeginArray();
  for (const SuperstepProfile& s : per_superstep) {
    w.BeginObject();
    w.KV("superstep", s.superstep);
    w.KV("mutation_seconds", s.mutation_seconds);
    w.KV("delivery_wall_seconds", s.delivery_wall_seconds);
    w.KV("master_seconds", s.master_seconds);
    w.KV("compute_wall_seconds", s.compute_wall_seconds);
    w.KV("aggregator_merge_seconds", s.aggregator_merge_seconds);
    w.KV("total_seconds", s.total_seconds);
    w.KV("partial", s.partial);
    w.Key("workers");
    w.BeginArray();
    for (const WorkerPhaseProfile& wp : s.workers) {
      w.BeginObject();
      w.KV("worker", static_cast<int64_t>(wp.worker));
      w.KV("compute_seconds", wp.compute_seconds);
      w.KV("delivery_seconds", wp.delivery_seconds);
      w.KV("barrier_wait_seconds", wp.barrier_wait_seconds);
      w.KV("vertices_computed", wp.vertices_computed);
      w.KV("messages_sent", wp.messages_sent);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("capture");
  w.BeginObject();
  w.KV("enabled", capture.enabled);
  w.KV("vertex_captures", capture.vertex_captures);
  w.KV("master_captures", capture.master_captures);
  w.KV("violations", capture.violations);
  w.KV("exceptions", capture.exceptions);
  w.KV("dropped_by_limit", capture.dropped_by_limit);
  w.KV("serialize_seconds", capture.serialize_seconds);
  w.KV("append_seconds", capture.append_seconds);
  w.KV("overhead_seconds", capture.OverheadSeconds());
  w.KV("trace_bytes", capture.trace_bytes);
  w.KV("store_appends", capture.store_appends);
  w.KV("store_flushes", capture.store_flushes);
  w.KV("async_sink", capture.async_sink);
  w.KV("flush_seconds", capture.flush_seconds);
  w.KV("spool_batches", capture.spool_batches);
  w.KV("spool_max_queue_depth", capture.spool_max_queue_depth);
  w.KV("spool_backpressure_waits", capture.spool_backpressure_waits);
  w.EndObject();
  w.Key("analysis");
  w.BeginObject();
  w.KV("enabled", analysis.enabled);
  w.KV("fail_on_violation", analysis.fail_on_violation);
  w.KV("findings_total", analysis.findings_total);
  w.Key("findings_by_kind");
  w.BeginObject();
  for (const auto& [kind, count] : analysis.findings_by_kind) {
    w.KV(kind, count);
  }
  w.EndObject();
  w.KV("determinism_probes", analysis.determinism_probes);
  w.KV("determinism_mismatches", analysis.determinism_mismatches);
  w.KV("probe_seconds", analysis.probe_seconds);
  w.EndObject();
  w.Key("recovery");
  w.BeginObject();
  w.KV("checkpoints_enabled", recovery.checkpoints_enabled);
  w.KV("checkpoints_written", recovery.checkpoints_written);
  w.KV("checkpoint_bytes", recovery.checkpoint_bytes);
  w.KV("checkpoint_seconds", recovery.checkpoint_seconds);
  w.KV("restore_seconds", recovery.restore_seconds);
  w.KV("topology_bytes", recovery.topology_bytes);
  w.KV("log_bytes", recovery.log_bytes);
  w.KV("confined_recoveries", recovery.confined_recoveries);
  w.KV("recoveries", recovery.recoveries);
  w.Key("events");
  w.BeginArray();
  for (const RecoveryEvent& e : recovery.events) {
    w.BeginObject();
    w.KV("attempt", static_cast<int64_t>(e.attempt));
    w.KV("restored_superstep", e.restored_superstep);
    w.KV("cause", e.cause);
    w.KV("restore_seconds", e.restore_seconds);
    w.KV("confined", e.confined);
    w.KV("partition", static_cast<int64_t>(e.partition));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
}

std::string RunReport::ToJson() const {
  JsonWriter writer;
  AppendJson(&writer);
  return writer.TakeString();
}

namespace {

std::string PromDouble(double value) { return StrFormat("%.9g", value); }

}  // namespace

std::string RunReport::ToPrometheusText(std::string_view prefix) const {
  const std::string p(prefix);
  const std::string escaped_job = PrometheusLabelValue(job_id);
  const std::string job = "{job=\"" + escaped_job + "\"}";
  std::string out;
  auto gauge = [&](const std::string& name, const std::string& value) {
    out += "# HELP " + p + name + " Graft run report field " + name + ".\n";
    out += "# TYPE " + p + name + " gauge\n";
    out += p + name + job + " " + value + "\n";
  };
  gauge("run_total_seconds", PromDouble(total_seconds));
  gauge("run_supersteps", std::to_string(supersteps));
  gauge("run_workers", std::to_string(num_workers));
  out += "# HELP " + p +
         "run_phase_seconds Wall seconds per engine phase over the run.\n";
  out += "# TYPE " + p + "run_phase_seconds gauge\n";
  const std::pair<Phase, double> phases[] = {
      {Phase::kMutation, TotalMutationSeconds()},
      {Phase::kDelivery, TotalDeliveryWallSeconds()},
      {Phase::kMaster, TotalMasterSeconds()},
      {Phase::kCompute, TotalComputeWallSeconds()},
      {Phase::kBarrierWait, TotalBarrierWaitSeconds()},
      {Phase::kAggregatorMerge, TotalAggregatorMergeSeconds()},
  };
  for (const auto& [phase, seconds] : phases) {
    out += p + "run_phase_seconds{job=\"" + escaped_job + "\",phase=\"" +
           PhaseName(phase) + "\"} " + PromDouble(seconds) + "\n";
  }
  if (capture.enabled) {
    gauge("capture_vertex_captures", std::to_string(capture.vertex_captures));
    gauge("capture_master_captures", std::to_string(capture.master_captures));
    gauge("capture_violations", std::to_string(capture.violations));
    gauge("capture_exceptions", std::to_string(capture.exceptions));
    gauge("capture_dropped_by_limit",
          std::to_string(capture.dropped_by_limit));
    gauge("capture_serialize_seconds", PromDouble(capture.serialize_seconds));
    gauge("capture_append_seconds", PromDouble(capture.append_seconds));
    gauge("capture_overhead_seconds", PromDouble(capture.OverheadSeconds()));
    gauge("capture_trace_bytes", std::to_string(capture.trace_bytes));
    gauge("capture_store_appends", std::to_string(capture.store_appends));
    gauge("capture_store_flushes", std::to_string(capture.store_flushes));
    gauge("capture_async_sink", capture.async_sink ? "1" : "0");
    gauge("capture_flush_seconds", PromDouble(capture.flush_seconds));
    gauge("capture_spool_batches", std::to_string(capture.spool_batches));
    gauge("capture_spool_max_queue_depth",
          std::to_string(capture.spool_max_queue_depth));
    gauge("capture_spool_backpressure_waits",
          std::to_string(capture.spool_backpressure_waits));
  }
  if (analysis.enabled) {
    gauge("analysis_findings_total", std::to_string(analysis.findings_total));
    out += "# HELP " + p + "analysis_findings Findings by analysis kind.\n";
    out += "# TYPE " + p + "analysis_findings gauge\n";
    for (const auto& [kind, count] : analysis.findings_by_kind) {
      out += p + "analysis_findings{job=\"" + escaped_job + "\",kind=\"" +
             PrometheusLabelValue(kind) + "\"} " + std::to_string(count) +
             "\n";
    }
    gauge("analysis_determinism_probes",
          std::to_string(analysis.determinism_probes));
    gauge("analysis_determinism_mismatches",
          std::to_string(analysis.determinism_mismatches));
    gauge("analysis_probe_seconds", PromDouble(analysis.probe_seconds));
  }
  if (recovery.checkpoints_enabled) {
    gauge("checkpoints_written", std::to_string(recovery.checkpoints_written));
    gauge("checkpoint_bytes", std::to_string(recovery.checkpoint_bytes));
    gauge("checkpoint_seconds", PromDouble(recovery.checkpoint_seconds));
    gauge("restore_seconds", PromDouble(recovery.restore_seconds));
    gauge("checkpoint_topology_bytes",
          std::to_string(recovery.topology_bytes));
    gauge("checkpoint_log_bytes", std::to_string(recovery.log_bytes));
    gauge("confined_recoveries",
          std::to_string(recovery.confined_recoveries));
    gauge("recoveries", std::to_string(recovery.recoveries));
  }
  return out;
}

}  // namespace obs
}  // namespace graft
