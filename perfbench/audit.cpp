// Workload `audit`: remote misprediction investigations against a
// served linkage database (the paper's accountability path, Sec. IV-C).
//
// Set-up trains nn::FaceNetSpec on synthetic faces from honest
// participants plus one poisoner (attack::MakePoisonedSet), fingerprints
// the corpus into the linkage database and starts the TCP front end.
// The timed part sends Client::Investigate RPCs for a seeded mix of
// clean and trigger-stamped probes over at most nproc connections:
//
//   1. a closed loop, every connection sending back to back, whose
//      median completion rate over equal windows is the capacity
//      (throughput_per_s);
//   2. an open loop at each fixed rate of config.json, with seeded
//      exponential inter-arrivals; each request is timed from its due
//      time, and the report includes how late the generator sent.
//
// Checks: every request succeeds; a seeded sample of the remote
// answers equals in-process QueryService::Investigate element by
// element; forensic precision (share of the top-k neighbours of a
// trigger-stamped probe that come from the poisoner) is above the
// configured floor.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/query.hpp"
#include "model_inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

using Clients = std::vector<std::unique_ptr<net::Client>>;

bool SameReport(const core::MispredictionReport& a,
                const core::MispredictionReport& b) {
  if (a.predicted_label != b.predicted_label || a.fingerprint != b.fingerprint ||
      a.neighbors.size() != b.neighbors.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    const auto& x = a.neighbors[i];
    const auto& y = b.neighbors[i];
    if (x.id != y.id || x.distance != y.distance || x.label != y.label ||
        x.source != y.source) {
      return false;
    }
  }
  return true;
}

/// Remote answers kept for the element-by-element check.
struct Sampled {
  std::mutex mu;
  std::map<std::size_t, core::MispredictionReport> by_probe;
  std::size_t every = 1;
  std::uint64_t salt = 0;

  [[nodiscard]] bool Wants(std::size_t request) const {
    return ((request + salt) * 0x9E3779B97F4A7C15ULL >> 40) % every == 0;
  }
  void Keep(std::size_t probe, const core::MispredictionReport& r) {
    std::lock_guard<std::mutex> lock(mu);
    by_probe.emplace(probe, r);
  }
};

struct Capacity {
  double per_s = 0.0;   ///< median completions/s over the windows
  double cpu_us = 0.0;  ///< median process CPU us per completion
};

/// Closed loop: every connection sends back to back, for `windows`
/// consecutive windows of `seconds / windows` each.  Medians over the
/// windows, so a host hiccup slows a window, not the figure.
Capacity RunCapacity(Clients& clients, const ProbePool& pool, std::size_t k,
                     double seconds, std::size_t windows, std::size_t& attempted,
                     std::size_t& failed) {
  const auto width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(windows)));
  std::vector<double> rates;
  std::vector<double> cpu_us;
  std::atomic<std::size_t> next{0};
  Span phase("audit.capacity_phase");
  for (std::size_t w = 0; w < windows; ++w) {
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> errors{0};
    const Interval window;
    const Clock::time_point stop = window.wall0 + width;
    std::vector<std::thread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&, c = client.get()] {
        while (Clock::now() < stop) {
          const std::size_t i = next++;
          const auto r = [&] {
            Span span("net.investigate_call", &phase);
            return c->Investigate(pool.images[i % pool.images.size()], k);
          }();
          ++(r.ok() ? done : errors);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = window.Wall();
    const double cpu = window.Cpu();
    attempted += done + errors;
    failed += errors;
    rates.push_back(static_cast<double>(done) / elapsed);
    cpu_us.push_back(cpu * 1e6 / static_cast<double>(std::max<std::size_t>(1, done)));
  }
  return {Median(rates), Median(cpu_us)};
}

/// Open loop at `rate` for `seconds`.
OpenLoopReport RunOpenLoop(Clients& clients, const ProbePool& pool, std::size_t k,
                           double rate, double seconds, std::uint64_t seed,
                           Sampled& sampled) {
  const std::vector<double> due = PoissonSchedule(rate, seconds, seed);
  std::vector<OpenLoopSample> samples(due.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (;;) {
        const std::size_t i = next++;
        if (i >= due.size()) return;
        std::this_thread::sleep_until(at(due[i]));
        OpenLoopSample& s = samples[i];
        s.due = due[i];
        s.sent = since(Clock::now());
        const std::size_t probe = i % pool.images.size();
        const auto r = c->Investigate(pool.images[probe], k);
        s.done = since(Clock::now());
        s.ok = r.ok() && r.value().neighbors.size() == k;
        if (s.ok && sampled.Wants(i)) sampled.Keep(probe, r.value());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return AccountOpenLoop(samples);
}

}  // namespace

void RunAudit(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  const std::size_t k = p.Size("audit.k");
  const std::size_t connections =
      std::min<std::size_t>(p.Size("audit.connections"), ctx.nproc);
  const std::vector<double> rates = p.List("audit.rates_per_s");
  const double reference_rate = p.Num("audit.reference_rate_per_s");
  const double limit_ms = p.Num("audit.latency_limit_ms");
  const double precision_floor = p.Num("audit.precision_floor");
  if (std::find(rates.begin(), rates.end(), reference_rate) == rates.end()) {
    throw std::invalid_argument("audit.reference_rate_per_s is not one of the rates");
  }

  // Set-up, repeated; the last repeat's state serves the timed part.
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  AuditState st;
  ProbePool pool;
  const std::size_t repeats = std::max<std::size_t>(1, p.Size("audit.setup_repeats"));
  for (std::size_t r = 0; r < repeats; ++r) {
    st.service.reset();  // the service refers to the server
    st.server.reset();
    const Interval setup;
    st = MakeAuditState(p, ctx.seed);
    pool = MakeProbePool(p, ctx.seed);
    setup_wall.push_back(setup.Wall());
    setup_cpu.push_back(setup.Cpu());
  }

  net::Server front(*st.service);
  front.Start();
  Clients clients;
  for (std::size_t c = 0; c < connections; ++c) {
    net::ClientOptions options;
    options.port = front.port();
    clients.push_back(std::make_unique<net::Client>(options));
    (void)clients.back()->Connect();
  }

  // Warm-up: each connection answers a few probes untimed.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (auto& c : clients) {
    for (std::size_t i = 0; i < p.Size("audit.warmup_requests"); ++i) {
      if (!c->Investigate(pool.images[i % pool.images.size()], k).ok()) {
        result.Fail("warm-up investigate failed");
      }
    }
  }

  const double budget = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const double cap_seconds = budget * p.Num("audit.capacity_share");
  const double phase_seconds =
      (budget - cap_seconds) / static_cast<double>(rates.size());
  const std::size_t windows = p.Size("audit.capacity_windows");
  const Capacity cap =
      RunCapacity(clients, pool, k, cap_seconds, windows, attempted, failed);
  const double capacity = cap.per_s;

  Sampled sampled;
  sampled.every = p.Size("audit.compare_one_in");
  sampled.salt = ctx.seed;
  double max_ok_rate = 0.0;
  OpenLoopReport ref;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const OpenLoopReport r = RunOpenLoop(clients, pool, k, rates[i], phase_seconds,
                                         ctx.seed * 31 + i, sampled);
    attempted += r.attempted;
    failed += r.failed;
    const bool meets = MeetsLimit(r, limit_ms);
    if (meets) max_ok_rate = std::max(max_ok_rate, rates[i]);
    if (rates[i] == reference_rate) ref = r;
    std::printf("rate %7.1f/s: n=%zu p50 %.3f ms p%d %.3f ms  generator late "
                "p50 %.3f ms max %.3f ms final %.3f ms  achieved %.1f/s  %s\n",
                rates[i], r.latency_ms.n, r.latency_ms.median,
                static_cast<int>(r.latency_ms.tail_pct), r.latency_ms.tail,
                r.lateness_ms.median, r.lateness_ms.max, r.final_lateness_ms,
                r.achieved_per_s, meets ? "within limit" : "OVER LIMIT");
    result.Fact("audit.rate_" + std::to_string(static_cast<int>(rates[i])) +
                    ".generator_late_max_ms",
                std::to_string(r.lateness_ms.max));
  }

  // Element-by-element check of the sampled answers, and forensic
  // precision on every trigger-stamped probe of the pool, against the
  // in-process query stage (nothing else touches it now).
  core::QueryService& query = *st.service->query_service();
  std::size_t compared = 0;
  for (const auto& [probe, remote] : sampled.by_probe) {
    ++compared;
    if (!SameReport(remote, query.Investigate(pool.images[probe], k))) {
      result.Fail("remote investigate answer for probe " + std::to_string(probe) +
                  " differs from in-process QueryService::Investigate");
    }
  }
  if (compared == 0) result.Fail("no remote answer was sampled for comparison");
  std::size_t hits = 0;
  std::size_t neighbours = 0;
  for (std::size_t i = 0; i < pool.images.size(); ++i) {
    if (pool.triggered[i] == 0) continue;
    const auto r = clients[0]->Investigate(pool.images[i], k);
    ++attempted;
    if (!r.ok()) {
      ++failed;
      continue;
    }
    for (const auto& n : r.value().neighbors) {
      hits += n.source == kPoisoner ? 1 : 0;
      ++neighbours;
    }
  }
  const double precision =
      neighbours > 0 ? static_cast<double>(hits) / static_cast<double>(neighbours) : 0.0;
  if (!(precision > precision_floor)) {
    result.Fail("forensic precision " + std::to_string(precision) +
                " not above the floor " + std::to_string(precision_floor));
  }

  if (ctx.trace) {
    std::size_t a = 0;
    std::size_t f = 0;
    Tracer::Get().Enable(true);
    const Capacity traced = RunCapacity(clients, pool, k, cap_seconds, windows, a, f);
    Tracer::Get().Enable(false);
    attempted += a;
    failed += f;
    result.Layer("trace.overhead_pct", 100.0 * (traced.cpu_us - cap.cpu_us) / cap.cpu_us,
                 "%");
    result.Layer("diag.throughput_per_s", capacity, "1/s");
    result.Layer("diag.p50_ms", ref.latency_ms.median, "ms");
    result.Layer("diag.tail_ms", ref.latency_ms.tail, "ms");
    result.Layer("diag.setup_wall_s", Median(setup_wall), "s");
  }
  front.Stop();

  result.attempted += attempted;
  result.failed += failed;
  if (failed > 0) result.Fail(std::to_string(failed) + " investigate requests failed");
  result.Named("setup_wall_s", Median(setup_wall), "s");
  result.Named("setup_cpu_s", Median(setup_cpu), "s");
  result.Named("peak_rss_mb", PeakRssMb(), "MB");
  result.Named("failed_share",
               static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted)),
               "ratio");
  result.Named("investigate_p50_ms", ref.latency_ms.median, "ms");
  result.Named("investigate_p" + std::to_string(static_cast<int>(ref.latency_ms.tail_pct)) + "_ms",
               ref.latency_ms.tail, "ms");
  result.Named("audit_max_rps", max_ok_rate, "req/s");
  result.Named("audit_capacity_rps", capacity, "req/s");
  result.Named("investigate_cpu_us_per_request", cap.cpu_us, "us");
  result.Named("forensic_precision", precision, "ratio");
  result.Named("generator_late_p50_ms", ref.lateness_ms.median, "ms");
  result.EndToEnd("setup_s", Median(setup_cpu), "s");
  result.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  result.EndToEnd("cpu_us_per_item", cap.cpu_us, "us");

  result.Fact("audit.records", std::to_string(st.records));
  result.Fact("audit.poisoned_records", std::to_string(st.poisoned_records));
  result.Fact("audit.tuples", std::to_string(st.tuples));
  result.Fact("audit.linkage_db_bytes", std::to_string(st.tuple_bytes));
  result.Fact("audit.connections", std::to_string(connections));
  result.Fact("audit.reference_samples", std::to_string(ref.latency_ms.n));
  result.Fact("audit.tail_percentile", std::to_string(static_cast<int>(ref.latency_ms.tail_pct)));
  result.Fact("audit.compared_answers", std::to_string(compared));
}

}  // namespace perfbench
