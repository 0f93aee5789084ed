// perfbench: the repository benchmark (see perfbench/NOTES.md).
//
//   perfbench --workload ingest|train|audit --seed N --seconds S
//             --trace 0|1 --out-dir DIR --<config key> <value> ...
//   perfbench --self-test
//
// perfbench/run.py builds this binary and passes it every entry of
// perfbench/config.json.  Human-readable lines come first (host block,
// seed, every metric by name and unit); the last line of standard
// output is one JSON object {correct, attempted, failed, metrics} with
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The exit code is nonzero when any correctness check
// failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"

using namespace perfbench;

namespace {

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-40s %16.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void WriteResultFile(const RunContext& ctx, const Result& r,
                     const std::string& host) {
  const std::string path = ctx.out_dir + "/result-" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + "-trace" +
                           (ctx.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
               "\"trace\": %d,\n \"host\": %s,\n \"correct\": %s, "
               "\"attempted\": %llu, \"failed\": %llu,\n \"named\": %s,\n "
               "\"end_to_end\": %s,\n \"per_layer\": %s,\n \"facts\": {",
               ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
               ctx.seconds, ctx.trace ? 1 : 0, host.c_str(),
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               MetricsJson(r.named).c_str(), MetricsJson(r.end_to_end).c_str(),
               MetricsJson(r.per_layer).c_str());
  for (std::size_t i = 0; i < r.facts.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 r.facts[i].first.c_str(), r.facts[i].second.c_str());
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

/// Self time per span name, and the spans file.
void ReportSpans(const RunContext& ctx) {
  const auto totals = Tracer::Get().Totals();
  std::printf("%-40s %8s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "self_ms/call");
  for (const auto& [name, t] : totals) {
    std::printf("%-40s %8zu %12.3f %12.3f %12.5f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms,
                t.count > 0 ? t.self_ms / static_cast<double>(t.count) : 0.0);
  }
  const std::string path = ctx.out_dir + "/spans-" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + ".jsonl";
  if (Tracer::Get().WriteSpans(path)) {
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    const bool ok = SelfTest();
    std::printf("stats self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  try {
    const Params params(argc, argv);
    RunContext ctx;
    ctx.workload = params.Str("workload");
    ctx.seed = static_cast<std::uint64_t>(params.Size("seed"));
    ctx.seconds = params.Num("seconds");
    ctx.trace = params.Size("trace") != 0;
    ctx.out_dir = params.Str("out-dir");
    ctx.nproc = std::max(1U, std::thread::hardware_concurrency());
    ctx.params = &params;
    std::filesystem::create_directories(ctx.out_dir);

    if (!SelfTest()) {
      std::printf("stats self-test FAILED\n");
      return 2;
    }
    const std::string host = HostBlockJson();
    std::printf("host: %s\n", host.c_str());
    std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
                ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
                ctx.seconds, ctx.trace ? 1 : 0);
    std::fflush(stdout);

    Result result;
    if (ctx.workload == "ingest") {
      RunIngest(ctx, result);
    } else if (ctx.workload == "train") {
      RunTrain(ctx, result);
    } else if (ctx.workload == "audit") {
      RunAudit(ctx, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", ctx.workload.c_str());
      return 2;
    }
    if (ctx.trace) {
      RunLayerProbes(ctx, result);
      ReportSpans(ctx);
    }

    for (const auto& [key, value] : result.facts) {
      std::printf("fact %-41s %s\n", key.c_str(), value.c_str());
    }
    PrintMetrics("metric", result.named);
    PrintMetrics("e2e   ", result.end_to_end);
    if (ctx.trace) PrintMetrics("layer ", result.per_layer);
    std::printf("failed_share %.6g (%llu of %llu operations)\n",
                result.attempted > 0 ? static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted)
                                     : 1.0,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    WriteResultFile(ctx, result, host);

    if (result.attempted == 0) result.Fail("no operation was attempted");
    if (result.failed != 0) result.correct = false;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                MetricsJson(ctx.trace ? result.per_layer : result.end_to_end)
                    .c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
