// Shared pieces of the Graft benchmark program: run configuration, the
// metric/outcome record every workload fills, timing statistics, the
// benchmark's own span tracer, and the output digest used by the checks.
//
// The benchmark measures each layer from outside, through its public calls;
// spans are recorded only here, around those calls.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Engine workers per job and reader threads for debug-read. Together with
/// the async spool flusher they keep every workload within three busy
/// threads, one fewer than the four vCPUs of the reference host: a job's
/// barriers wait for its slowest worker, so one vCPU taken by the host delays
/// every worker, and with three workers per job the run-to-run spread of job
/// latency on a shared host was much wider than with two.
inline constexpr int kEngineWorkers = 2;
inline constexpr int kReaders = 2;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: small graphs, few set-up repetitions.
  bool tiny = false;
  /// Self-test hook: which verified output to corrupt so its check must fail
  /// ("" = none). debug-run: "digest" or "ranks"; debug-read: "lookup" or
  /// "search".
  std::string corrupt;
  /// Where the traced run writes its spans ("" = not written).
  std::string spans_out;
};

/// What one workload run reports: operation counts, the metrics of the run
/// (end-to-end when untraced, per-layer when traced; units live in the
/// metric tables of main.cc), and context printed beside them. A layer a
/// workload does not exercise is left unset and reported as 0.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Counts one checked operation; `ok == false` records a failure and logs
  /// the first few to stderr.
  void Check(bool ok, std::string_view what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time (user + system) used so far by the whole process, or by the
/// calling thread, in seconds. The end-to-end timings are CPU time: on a
/// shared virtual machine the hypervisor takes vCPUs away for minutes at a
/// time ("steal"), which stretched job wall time by up to 60% while the
/// CPU time a job costs stayed within a few percent.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

/// A tail latency: the value at the nearest-rank `percentile`, moved down
/// when needed so that at least ten samples lie beyond it; the percentile it
/// ends up at; and the sample count. With ten or fewer samples it is the
/// maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values, double percentile);

/// 64-bit digest over byte strings; used to compare outputs across runs.
class Digest {
 public:
  void Update(std::string_view bytes);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x9e3779b97f4a7c15ull;
};

// -- tracing -----------------------------------------------------------------

/// Turns span recording on or off for spans opened afterwards.
void SetTracing(bool on);

/// RAII span around one call into a layer. Always times itself; records a
/// span (name, start, end, parent, op id) only while tracing is on. A root
/// span starts a new op; nested spans on the same thread share its op id.
/// `name` must outlive the tracer (string literals).
class Span {
 public:
  explicit Span(const char* name, bool root = false);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double End();

 private:
  Clock::time_point start_;
  double seconds_ = -1.0;
  int32_t index_ = -1;  // slot in this thread's span buffer, -1 = unrecorded
};

/// Durations and self times (duration minus the part covered by child spans)
/// of every recorded span named `name`, in seconds.
std::vector<double> SpanSeconds(std::string_view name);
std::vector<double> SpanSelfSeconds(std::string_view name);
uint64_t SpanCount();

/// Writes recorded spans as Chrome trace-event JSON (at most `max_spans`).
bool WriteSpans(const std::string& path, size_t max_spans);

// -- workloads ---------------------------------------------------------------

Outcome RunDebugRun(const Config& config);
Outcome RunDebugRead(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
