// Span recorder for the benchmark's traced run. Spans wrap the benchmark's
// own calls into the engine (and the timing FileSystem decorator's I/O), stay
// in per-thread memory while the run executes, and are written at exit as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) plus a
// per-layer summary: total and self time per span name and per thread, where
// self time is a span's duration minus the part its child spans cover.
//
// Recording is off unless Tracer::Enable() ran, so the untraced runs that
// produce the end-to-end numbers pay one relaxed load per would-be span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = nullptr;  // static string: one per instrumented call site
  const char* role = nullptr;  // optional file role of an I/O span
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t self_ns = 0;
  uint64_t amount = 0;  // bytes for I/O spans, records for parse/submit spans
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = no enclosing span on this thread
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer t;
    return t;
  }

  void Enable() {
    origin_ns_ = NowNs();
    enabled_.store(true, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Per-thread span storage; registered once per thread, owned by the tracer
  /// so records survive the thread.
  struct ThreadLog {
    uint32_t tid = 0;
    std::deque<SpanRecord> spans;  // grows without copying earlier records
    // Open spans on this thread: (id, accumulated child duration).
    std::vector<std::pair<uint32_t, int64_t>> stack;
  };

  ThreadLog* Log() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->tid = static_cast<uint32_t>(logs_.size());
    }
    return log;
  }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Writes the spans as complete ("X") trace events, at most
  /// `max_per_name` per span name so a lookup-heavy run stays loadable (the
  /// summary still counts every span). Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path, size_t max_per_name) {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    std::map<std::string, size_t> written;
    bool first = true;
    for (const auto& log : logs_) {
      std::fprintf(f,
                   "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%u,\"args\":{\"name\":\"thread-%u\"}}",
                   first ? "" : ",\n", log->tid, log->tid);
      first = false;
      for (const SpanRecord& s : log->spans) {
        if (++written[Key(s)] > max_per_name) continue;
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                     "\"parent\":%u,\"self_us\":%.3f,\"amount\":%llu}}",
                     s.name, s.role != nullptr ? s.role : "bench", log->tid,
                     static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                     static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent,
                     static_cast<double>(s.self_ns) / 1e3,
                     static_cast<unsigned long long>(s.amount));
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t amount = 0;
  };

  /// Span totals keyed by name (role-qualified for I/O spans), restricted to
  /// spans that started inside [from_ns, to_ns). Call only while no other
  /// thread records spans.
  std::map<std::string, Totals> TotalsByName(int64_t from_ns, int64_t to_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, Totals> out;
    for (const auto& log : logs_) {
      for (const SpanRecord& s : log->spans) {
        if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
        Totals& t = out[Key(s)];
        ++t.count;
        t.total_ns += s.dur_ns;
        t.self_ns += s.self_ns;
        t.amount += s.amount;
      }
    }
    return out;
  }

  /// Per-layer summary as JSON: self/total time per span name, and per
  /// thread, over [from_ns, to_ns). Call only while no other thread records
  /// spans, like WriteChromeTrace.
  bool WriteSummary(const std::string& path, int64_t from_ns, int64_t to_ns) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"by_name\":{", f);
    bool first = true;
    for (const auto& [name, t] : TotalsByName(from_ns, to_ns)) {
      std::fprintf(f,
                   "%s\n\"%s\":{\"count\":%llu,\"total_ms\":%.6f,"
                   "\"self_ms\":%.6f,\"amount\":%llu}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.total_ns) / 1e6,
                   static_cast<double>(t.self_ns) / 1e6,
                   static_cast<unsigned long long>(t.amount));
      first = false;
    }
    std::fputs("},\n\"by_thread\":{", f);
    first = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& log : logs_) {
      std::map<std::string, Totals> per;
      for (const SpanRecord& s : log->spans) {
        if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
        Totals& t = per[Key(s)];
        ++t.count;
        t.self_ns += s.self_ns;
      }
      if (per.empty()) continue;
      std::fprintf(f, "%s\n\"thread-%u\":{", first ? "" : ",", log->tid);
      first = false;
      bool inner_first = true;
      for (const auto& [name, t] : per) {
        std::fprintf(f, "%s\"%s\":{\"count\":%llu,\"self_ms\":%.6f}",
                     inner_first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(t.count),
                     static_cast<double>(t.self_ns) / 1e6);
        inner_first = false;
      }
      std::fputs("}", f);
    }
    std::fputs("}}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;

  static std::string Key(const SpanRecord& s) {
    return s.role != nullptr ? std::string(s.name) + "." + s.role : s.name;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  int64_t origin_ns_ = 0;
  std::mutex mu_;  // guards logs_ registration
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span: records [construction, destruction) on the calling thread when
/// tracing is enabled; otherwise a no-op.
class Span {
 public:
  explicit Span(const char* name, const char* role = nullptr) {
    Tracer& tr = Tracer::Get();
    if (!tr.enabled()) return;
    log_ = tr.Log();
    rec_.name = name;
    rec_.role = role;
    rec_.id = tr.NextId();
    rec_.parent = log_->stack.empty() ? 0 : log_->stack.back().first;
    log_->stack.emplace_back(rec_.id, 0);
    rec_.start_ns = NowNs();
  }
  ~Span() {
    if (log_ == nullptr) return;
    rec_.dur_ns = NowNs() - rec_.start_ns;
    rec_.self_ns = rec_.dur_ns - log_->stack.back().second;
    log_->stack.pop_back();
    if (!log_->stack.empty()) log_->stack.back().second += rec_.dur_ns;
    log_->spans.push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_amount(uint64_t n) { rec_.amount = n; }
  /// Duration so far (ns); 0 when tracing is off.
  int64_t elapsed_ns() const {
    return log_ == nullptr ? 0 : NowNs() - rec_.start_ns;
  }

 private:
  Tracer::ThreadLog* log_ = nullptr;
  SpanRecord rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
