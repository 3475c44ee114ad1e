// Statistics, output digest and the in-memory span tracer of the benchmark.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <numeric>

#include "bench.h"

namespace perfbench {

void Outcome::Check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) {
    std::fprintf(stderr, "perfbench: check failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

namespace {

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Tail TailOf(std::vector<double> values, double percentile) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr size_t kBeyond = 10;
  const size_t n = values.size();
  if (n <= kBeyond) {
    tail.value = values.back();
    return tail;
  }
  // Nearest rank: the smallest rank r with r / n >= percentile / 100.
  size_t rank = static_cast<size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n - kBeyond);
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

void Digest::Update(std::string_view bytes) {
  auto mix = [this](uint64_t word) {
    h_ ^= word;
    h_ *= 0xff51afd7ed558ccdull;
    h_ ^= h_ >> 32;
  };
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    mix(word);
  }
  if (i < bytes.size()) {
    uint64_t rest = 0;
    std::memcpy(&rest, bytes.data() + i, bytes.size() - i);
    mix(rest);
  }
  mix(bytes.size());
}

namespace {

struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int32_t parent = -1;
  uint64_t op = 0;
};

/// One thread's spans. Owned by the global list so spans outlive the
/// thread that recorded them; only its own thread appends while tracing.
struct ThreadSpans {
  uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;
  uint64_t op = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_op{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_buffers;

ThreadSpans& LocalSpans() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadSpans>());
    local = g_buffers.back().get();
    local->tid = static_cast<uint32_t>(g_buffers.size());
  }
  return *local;
}

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

/// Visits every finished span with its duration and self time (ns).
template <typename Fn>
void ForEachFinished(Fn&& fn) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<int64_t> covered(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.end_ns >= 0 && s.parent >= 0) {
        covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns < 0) continue;
      const int64_t duration = s.end_ns - s.start_ns;
      fn(*buffer, i, s, duration, duration - covered[i]);
    }
  }
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, bool root) : start_(Clock::now()) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  ThreadSpans& local = LocalSpans();
  SpanRecord record;
  record.name = name;
  record.start_ns = SinceEpochNs(start_);
  record.parent = (root || local.open.empty()) ? -1 : local.open.back();
  if (record.parent < 0) local.op = g_next_op.fetch_add(1);
  record.op = local.op;
  index_ = static_cast<int32_t>(local.spans.size());
  local.spans.push_back(record);
  local.open.push_back(index_);
}

double Span::End() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    ThreadSpans& local = LocalSpans();
    local.spans[static_cast<size_t>(index_)].end_ns = SinceEpochNs(end);
    if (!local.open.empty() && local.open.back() == index_) {
      local.open.pop_back();
    }
  }
  return seconds_;
}

std::vector<double> SpanSeconds(std::string_view name) {
  std::vector<double> out;
  ForEachFinished([&](const ThreadSpans&, size_t, const SpanRecord& s,
                      int64_t duration, int64_t) {
    if (name == s.name) out.push_back(static_cast<double>(duration) * 1e-9);
  });
  return out;
}

std::vector<double> SpanSelfSeconds(std::string_view name) {
  std::vector<double> out;
  ForEachFinished([&](const ThreadSpans&, size_t, const SpanRecord& s,
                      int64_t, int64_t self) {
    if (name == s.name) out.push_back(static_cast<double>(self) * 1e-9);
  });
  return out;
}

uint64_t SpanCount() {
  uint64_t count = 0;
  ForEachFinished(
      [&](const ThreadSpans&, size_t, const SpanRecord&, int64_t, int64_t) {
        ++count;
      });
  return count;
}

bool WriteSpans(const std::string& path, size_t max_spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  size_t written = 0;
  ForEachFinished([&](const ThreadSpans& buffer, size_t index,
                      const SpanRecord& s, int64_t duration, int64_t self) {
    if (written >= max_spans) return;
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%u/%zu\","
                 "\"parent\":\"%s\",\"op\":%llu,\"self_us\":%.3f}}\n",
                 written == 0 ? "" : ",", s.name, buffer.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(duration) / 1e3, buffer.tid, index,
                 s.parent < 0 ? ""
                              : (std::to_string(buffer.tid) + "/" +
                                 std::to_string(s.parent))
                                    .c_str(),
                 static_cast<unsigned long long>(s.op),
                 static_cast<double>(self) / 1e3);
    ++written;
  });
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
