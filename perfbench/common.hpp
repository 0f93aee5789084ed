// Shared plumbing of the benchmark: parameters, the host block, result
// collection and output, and small helpers used by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Command-line parameters.  run.py passes every entry of
/// perfbench/config.json as `--<key> <value>`; a workload asks for each
/// key it needs and a missing key is an error, so config.json is the
/// single place the workload sizes are fixed.
class Params {
 public:
  Params(int argc, char** argv);

  [[nodiscard]] std::string Str(const std::string& key) const;
  [[nodiscard]] double Num(const std::string& key) const;
  [[nodiscard]] std::size_t Size(const std::string& key) const;
  [[nodiscard]] std::vector<double> List(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The workload's metrics under their own names and units
  /// (ingest_records_per_s, investigate_p99_ms, ...).
  std::vector<Metric> named;
  /// The same measurements under the workload-neutral names
  /// BENCHMARK.json lists (setup_s, throughput_per_s, ...).
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Facts about the inputs and the run (sizes, WAL medium, ...).
  std::vector<std::pair<std::string, std::string>> facts;

  void Fail(const std::string& why);
  void Named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  ///< scratch space inside the checkout
  unsigned nproc = 1;
  const Params* params = nullptr;
};

/// Host block: core count, crypto ISA tier, build type, compiler and
/// the library's effective worker-thread count, as one JSON object.
[[nodiscard]] std::string HostBlockJson();

/// Peak resident set of this process, in MB.
[[nodiscard]] double PeakRssMb();

/// CPU time (user + system) this process has used, in seconds.  Time
/// the hypervisor steals from the VM is not charged to it, so CPU per
/// item repeats on a shared host where wall-clock rates drift.
[[nodiscard]] double ProcessCpuSeconds();

/// Name of the file system `path` lives on (ext4, tmpfs, overlayfs...).
[[nodiscard]] std::string FileSystemOf(const std::string& path);

/// Fresh empty directory under ctx.out_dir; removed by the destructor.
class ScratchDir {
 public:
  ScratchDir(const RunContext& ctx, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-clock and process CPU time since construction.
struct Interval {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = ProcessCpuSeconds();
  [[nodiscard]] double Wall() const { return SecondsSince(wall0); }
  [[nodiscard]] double Cpu() const { return ProcessCpuSeconds() - cpu0; }
};

/// Median wall time, in seconds, of `reps` calls of `fn` after one
/// untimed warm-up call.  Each timed call is recorded as a span.
template <typename Fn>
double TimeMedian(const char* span, int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Span s(span);
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsSince(t0));
  }
  return Median(std::move(times));
}

// Workloads (one translation unit each).  Each fills `result`.
void RunIngest(const RunContext& ctx, Result& result);
void RunTrain(const RunContext& ctx, Result& result);
void RunAudit(const RunContext& ctx, Result& result);
/// Per-layer probes of the traced run: times the public calls of every
/// module on the seed's generated inputs.
void RunLayerProbes(const RunContext& ctx, Result& result);

}  // namespace perfbench
