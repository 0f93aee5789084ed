// Statistics shared by every workload of the benchmark.
//
//   * Summarize: sample count, median, quartiles (the same "exclusive"
//     method as Python's statistics.quantiles(values, n=4)) and the
//     tail percentile — the highest percentile, capped at p99, that
//     still has at least ten samples beyond it.  With fewer than 1000
//     samples the tail is a lower percentile, and Summary says which.
//   * OpenLoop: seeded exponential inter-arrival schedule for a fixed
//     rate, and the due-time accounting of an open-loop run: every
//     request is timed from when it was due, not from when it was
//     sent, and the run reports how late the generator sent.
//
// SelfTest() checks all of it against hand-computed values; the
// benchmark runs it before every workload and `perfbench --self-test`
// runs it alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

namespace perfbench {

/// Samples needed beyond a reported tail percentile.
inline constexpr std::size_t kTailMargin = 10;

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// Percentile of `tail` (e.g. 99); 0 when there are too few samples
  /// for any percentile with kTailMargin samples beyond it.
  double tail_pct = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

/// Median of `values` (copied; the caller's order is untouched).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Python statistics.quantiles(data, n=4, method="exclusive") on
/// sorted data with at least two points; cut i in {1, 2, 3}.
inline double QuartileOfSorted(const std::vector<double>& sorted, int i) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  if (n == 1) return sorted[0];
  const long m = static_cast<long>(n) + 1;
  const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
  const long delta = i * m - j * 4;
  return (sorted[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
          sorted[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         4.0;
}

/// Highest percentile (<= 99) that leaves kTailMargin samples beyond
/// it among n samples, rounded down to a whole percent; 0 if none.
inline double TailPercentile(std::size_t n) {
  if (n <= kTailMargin) return 0.0;
  const double p = std::floor(100.0 * static_cast<double>(n - kTailMargin) /
                              static_cast<double>(n));
  return std::min(99.0, p);
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = Median(values);
  s.q1 = QuartileOfSorted(values, 1);
  s.q3 = QuartileOfSorted(values, 3);
  s.max = values.back();
  s.tail_pct = TailPercentile(s.n);
  if (s.tail_pct > 0.0) {
    // Nearest rank: the value below which tail_pct percent of the
    // samples lie; at least kTailMargin samples sit above its rank.
    const std::size_t pct = static_cast<std::size_t>(s.tail_pct);
    const std::size_t rank = (pct * s.n + 99) / 100;
    s.tail = values[std::clamp<std::size_t>(rank, 1, s.n) - 1];
  } else {
    s.tail = s.max;
  }
  return s;
}

// ---------------------------------------------------------------- open loop

/// Due times (seconds from the start of the phase) of a Poisson
/// arrival process at `rate_per_s`, over `duration_s`, drawn from
/// `seed`.  The same seed and rate give the same schedule.
inline std::vector<double> PoissonSchedule(double rate_per_s,
                                           double duration_s,
                                           std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> due;
  double t = gap(gen);
  while (t < duration_s) {
    due.push_back(t);
    t += gap(gen);
  }
  return due;
}

/// One open-loop request: when it was due, when a connection sent it,
/// when its answer came back (seconds from the phase start).
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
};

struct OpenLoopReport {
  Summary latency_ms;   ///< done - due, successful requests only
  Summary lateness_ms;  ///< sent - due: how late the generator ran
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Lateness of the last request sent: in an overloaded run the queue
  /// keeps growing and this keeps rising with the schedule.
  double final_lateness_ms = 0.0;
  double achieved_per_s = 0.0;  ///< completions / (last done - first due)
};

inline OpenLoopReport AccountOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopReport r;
  r.attempted = samples.size();
  std::vector<double> latency;
  std::vector<double> lateness;
  latency.reserve(samples.size());
  lateness.reserve(samples.size());
  double last_done = 0.0;
  double last_sent = -1.0;
  for (const OpenLoopSample& s : samples) {
    lateness.push_back(std::max(0.0, s.sent - s.due) * 1e3);
    if (s.sent >= last_sent) {
      last_sent = s.sent;
      r.final_lateness_ms = std::max(0.0, s.sent - s.due) * 1e3;
    }
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    latency.push_back((s.done - s.due) * 1e3);
    last_done = std::max(last_done, s.done);
  }
  r.latency_ms = Summarize(std::move(latency));
  r.lateness_ms = Summarize(std::move(lateness));
  if (!samples.empty() && last_done > samples.front().due) {
    r.achieved_per_s = static_cast<double>(r.latency_ms.n) /
                       (last_done - samples.front().due);
  }
  return r;
}

/// True when a fixed-rate phase met its latency limit: nothing failed,
/// the tail latency is within `limit_ms`, and the backlog did not grow
/// (the last request went out no later than the limit).
inline bool MeetsLimit(const OpenLoopReport& r, double limit_ms) {
  return r.failed == 0 && r.latency_ms.n > 0 && r.latency_ms.tail <= limit_ms &&
         r.final_lateness_ms <= limit_ms;
}

// ---------------------------------------------------------------- self-test

inline bool SelfTest() {
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "stats self-test FAILED: %s\n", what);
      ok = false;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const Summary s10 = Summarize(ten);
  expect(s10.n == 10, "count of 10");
  expect(near(s10.q1, 2.75) && near(s10.median, 5.5) && near(s10.q3, 8.25),
         "quartiles of 1..10");
  expect(s10.tail_pct == 0.0 && near(s10.tail, 10.0),
         "no tail percentile with 10 samples");
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const Summary s3 = Summarize({3.0, 1.0, 2.0});
  expect(near(s3.q1, 1.0) && near(s3.median, 2.0) && near(s3.q3, 3.0),
         "quartiles of 1..3");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Summary s2 = Summarize({2.0, 1.0});
  expect(near(s2.q1, 0.75) && near(s2.q3, 2.25), "quartiles of 1..2");

  // Tail rule: 1000 samples give p99 with exactly ten beyond; 50 give
  // p80 (ten beyond); 11 give p9.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Summary s1000 = Summarize(thousand);
  expect(s1000.tail_pct == 99.0 && near(s1000.tail, 990.0), "p99 of 1..1000");
  std::size_t beyond = 0;
  for (const double v : thousand) beyond += v > s1000.tail ? 1 : 0;
  expect(beyond == kTailMargin, "ten samples beyond p99 of 1000");
  expect(TailPercentile(50) == 80.0, "tail percentile of 50 samples");
  expect(TailPercentile(11) == 9.0, "tail percentile of 11 samples");
  expect(TailPercentile(100000) == 99.0, "tail percentile capped at 99");

  // Schedules are seeded and have the requested mean rate.
  const std::vector<double> a = PoissonSchedule(1000.0, 10.0, 7);
  const std::vector<double> b = PoissonSchedule(1000.0, 10.0, 7);
  expect(a == b, "same seed, same schedule");
  expect(a.size() > 9500 && a.size() < 10500, "Poisson count near rate*T");
  expect(std::is_sorted(a.begin(), a.end()), "schedule ascending");

  // Due-time accounting: requests due every 10 ms, each served in
  // 1 ms, except that a 100 ms stall delays the third request; the
  // two behind it queue up.  Latency counts from the due time, so the
  // stall shows in the later requests too.
  std::vector<OpenLoopSample> run;
  double free_at = 0.0;
  for (int i = 0; i < 5; ++i) {
    OpenLoopSample s;
    s.due = 0.010 * i;
    s.sent = std::max(s.due, free_at);
    const double service = i == 2 ? 0.100 : 0.001;
    s.done = s.sent + service;
    s.ok = true;
    free_at = s.done;
    run.push_back(s);
  }
  const OpenLoopReport r = AccountOpenLoop(run);
  // Latencies: 1, 1, 100, 91, 82 ms; lateness 0, 0, 0, 90, 81 ms.
  expect(r.attempted == 5 && r.failed == 0, "open-loop counts");
  expect(near(r.latency_ms.median, 82.0), "median latency from due time");
  expect(near(r.lateness_ms.max, 90.0), "generator lateness");
  expect(near(r.final_lateness_ms, 81.0), "final lateness");
  expect(!MeetsLimit(r, 50.0) && MeetsLimit(r, 150.0), "latency limit rule");
  return ok;
}

}  // namespace perfbench
