// graft_perfbench: runs one benchmark workload and prints its metrics.
//
//   graft_perfbench --workload <debug-run|debug-read>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--corrupt <output>] [--spans-out <file>]
//
// The second-to-last stdout line ("# env {...}") records the environment and
// context; the last line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit status is 0 only when every output check passed.

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json_writer.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of each workload sees; the same names on every workload.
/// Timings are CPU time (see ProcessCpuSeconds); wall times of the same ops
/// are on the env line.
constexpr MetricDef kEndToEnd[] = {
    {"op_cpu_ms", "ms"}, {"op_cpu_ms_tail", "ms"}, {"work_per_cpu_s", "1/s"},
    {"setup_s", "s"},    {"peak_rss_mb", "MB"},
};

/// Single layers, measured in the traced run. A layer the workload does not
/// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.load_s", "s"},
    {"pregel.run_job_s", "s"},
    {"pregel.compute_s", "s"},
    {"pregel.delivery_s", "s"},
    {"pregel.barrier_wait_s", "s"},
    {"pregel.master_s", "s"},
    {"pregel.unattributed_s", "s"},
    {"pregel.supersteps", "count"},
    {"pregel.messages", "count"},
    {"ckpt.write_s", "s"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.log_bytes", "bytes"},
    {"ckpt.topology_bytes", "bytes"},
    {"ckpt.restore_s", "s"},
    {"ckpt.recoveries", "count"},
    {"ckpt.confined_recoveries", "count"},
    {"capture.captures", "count"},
    {"capture.trace_bytes", "bytes"},
    {"capture.bytes_per_capture", "bytes"},
    {"capture.serialize_s", "s"},
    {"capture.overhead_x", "x"},
    {"sink.append_s", "s"},
    {"sink.flush_s", "s"},
    {"sink.backpressure_waits", "count"},
    {"sink.max_queue_depth", "count"},
    {"analysis.probes", "count"},
    {"analysis.probe_s", "s"},
    {"analysis.overhead_x", "x"},
    {"analysis.findings", "count"},
    {"ablation.plain_job_s", "s"},
    {"ablation.capture_job_s", "s"},
    {"ablation.sanitizer_job_s", "s"},
    {"service.handle_ms.supersteps", "ms"},
    {"service.handle_ms.vertices", "ms"},
    {"service.handle_ms.search", "ms"},
    {"service.handle_ms.vertex", "ms"},
    {"service.handle_ms.master", "ms"},
    {"service.handle_ms.violations", "ms"},
    {"service.response_bytes", "bytes"},
    {"service.5xx", "count"},
    {"session.open_ms", "ms"},
    {"session.vertex_traces_ms", "ms"},
    {"session.find_vertex_ms", "ms"},
    {"reproduce.op_ms", "ms"},
    {"reproduce.codegen_ms", "ms"},
    {"reproduce.replay_ms", "ms"},
    {"cache.hit_rate", "ratio"},
    {"cache.lookups", "count"},
    {"cache.get_block_ms", "ms"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.bytes", "bytes"},
    {"store.read_all_ms", "ms"},
    {"bench.op_self_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.untraced_op_ms", "ms"},
    {"trace.spans", "count"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "graft_perfbench: %s\nusage: graft_perfbench --workload "
               "<debug-run|debug-read> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt <output>] "
               "[--spans-out <file>]\n",
               why);
  return 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  (void)argc;
  (void)argv;
  return Usage("refusing to report from an unoptimised build");
#else
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt" && has_value) {
      config.corrupt = argv[++i];
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out" && has_value) {
      config.spans_out = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  const bool corrupt_ok =
      config.corrupt.empty() ||
      (config.workload == "debug-run" &&
       (config.corrupt == "digest" || config.corrupt == "ranks")) ||
      (config.workload == "debug-read" &&
       (config.corrupt == "lookup" || config.corrupt == "search"));
  if (!corrupt_ok) return Usage("--corrupt names no output of this workload");

  // Pin the allocator: a fixed mmap threshold and no heap trimming, so a
  // job's allocations do not depend on what glibc's adaptive thresholds
  // learned from earlier jobs in the run.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Outcome outcome;
  if (config.workload == "debug-run") {
    outcome = RunDebugRun(config);
  } else if (config.workload == "debug-read") {
    outcome = RunDebugRead(config);
  } else {
    return Usage("unknown workload");
  }
  if (config.trace) {
    outcome.Set("trace.spans", static_cast<double>(SpanCount()));
    if (!config.spans_out.empty() &&
        !WriteSpans(config.spans_out, /*max_spans=*/200'000)) {
      std::fprintf(stderr, "graft_perfbench: cannot write %s\n",
                   config.spans_out.c_str());
    }
  } else {
    outcome.Set("peak_rss_mb", PeakRssMb());
  }

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  const double error_rate =
      outcome.attempted == 0 ? 1.0
                             : static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted);

  graft::JsonWriter env;
  env.BeginObject();
  env.KV("workload", config.workload);
  env.KV("seed", static_cast<int64_t>(config.seed));
  env.KV("seconds", config.seconds);
  env.KV("trace", config.trace);
  env.KV("tiny", config.tiny);
  env.KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  env.KV("compiler", __VERSION__);
  env.KV("transport", "inproc");
  env.KV("engine_workers", static_cast<int64_t>(kEngineWorkers));
  env.KV("readers", static_cast<int64_t>(kReaders));
  env.KV("error_rate", error_rate);
  for (const auto& [key, value] : outcome.info) env.KV(key, value);
  env.EndObject();
  std::printf("# env %s\n", env.TakeString().c_str());

  graft::JsonWriter result;
  result.BeginObject();
  result.KV("correct", correct);
  result.KV("attempted", static_cast<int64_t>(outcome.attempted));
  result.KV("failed", static_cast<int64_t>(outcome.failed));
  result.Key("metrics");
  result.BeginObject();
  for (const MetricDef& def :
       config.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd)) {
    auto it = outcome.metrics.find(def.name);
    result.Key(def.name);
    result.BeginObject();
    result.KV("value", it == outcome.metrics.end() ? 0.0 : it->second);
    result.KV("unit", def.unit);
    result.EndObject();
    if (it != outcome.metrics.end()) outcome.metrics.erase(it);
  }
  result.EndObject();
  result.EndObject();
  for (const auto& [name, value] : outcome.metrics) {
    std::fprintf(stderr, "graft_perfbench: metric %s is in no table\n",
                 name.c_str());
    return 3;
  }
  std::printf("%s\n", result.TakeString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
