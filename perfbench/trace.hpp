// Span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is
// instrumented.  Each span has a name ("<layer>.<call>"), start and end
// (steady clock, ns from the recorder's epoch), the span open on the
// same thread when it started (its parent) and a request id shared by
// the spans of one request.  Spans stay in memory and are written out
// once, at exit.  A layer's self time is its span's duration minus the
// part of that interval its child spans cover.
//
// With tracing off, Span construction costs one relaxed load and no
// clock read.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one request
};

/// Per-name aggregate over every recorded span of that name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  [[nodiscard]] std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  [[nodiscard]] std::vector<SpanRecord> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Totals and self time per span name.  Self time subtracts the union
  /// of the direct children's intervals (clipped to the parent), so
  /// overlapping children on several threads are not counted twice.
  [[nodiscard]] std::map<std::string, SpanTotals> Totals() const {
    const std::vector<SpanRecord> spans = Snapshot();
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord& s : spans) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord& s : spans) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_start = 0;
        std::int64_t cur_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start_ns);
          b = std::min(b, s.end_ns);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered += cur_end - cur_start;
      }
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - covered) / 1e6;
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  bool WriteSpans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : Snapshot()) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"id\": %llu, \"parent\": %llu, \"request\": %llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.  By default it nests under the span open on the same
/// thread; a span with no parent opens a new request.
class Span {
 public:
  explicit Span(const char* name) : Span(name, current_) {}
  /// Child of `parent`, which may be open on another thread (a request
  /// fanned out to worker threads); nullptr opens a new request.
  Span(const char* name, const Span* parent) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    active_ = true;
    rec_.name = name;
    rec_.id = tracer.NextId();
    const bool nested = parent != nullptr && parent->active_;
    rec_.parent = nested ? parent->rec_.id : 0;
    rec_.request = nested ? parent->rec_.request : rec_.id;
    outer_ = current_;
    current_ = this;
    rec_.start_ns = tracer.NowNs();
  }
  ~Span() {
    if (!active_) return;
    Tracer& tracer = Tracer::Get();
    rec_.end_ns = tracer.NowNs();
    current_ = outer_;
    tracer.Record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
  Span* outer_ = nullptr;
  static inline thread_local Span* current_ = nullptr;
};

}  // namespace perfbench
