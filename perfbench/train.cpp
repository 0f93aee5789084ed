// Workload `train`: one operator training the Table II net through the
// serving API, the paper's Fig. 6 path.
//
// A trial ingests a synthetic-CIFAR corpus in process during set-up.
// The timed part is the training itself — Service::SubmitTrain of the
// Table II 18-layer net (nn::Table2Spec at the config's width) with the
// FrontNet at the Experiment-II boundary (3 convs + max pool in the
// enclave), one SubmitTrain per epoch so every epoch is a latency
// sample — followed by SubmitFingerprint.  Then the held-out set is
// scored and the model bytes hashed.  Every trial of a seed must hash
// identically.  A warm-up trial runs first and is not timed.
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "crypto/sha256.hpp"
#include "model_inputs.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

struct TrainConfig {
  std::size_t records = 0;
  std::size_t participants = 1;
  std::size_t test_records = 0;
  int epochs = 1;
  int batch = 32;
  int scale = 16;
  int front_convs = 3;
  float learning_rate = 0.02F;
  float clip_norm = 0.0F;
};

struct Trial {
  double setup_wall_s = 0.0;
  double setup_cpu_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> epoch_cpu_us;  ///< process CPU us per sample
  double train_s = 0.0;
  double fingerprint_s = 0.0;
  std::size_t records = 0;
  double accuracy = 0.0;
  crypto::Sha256Digest model_hash{};
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<core::TrainReport> last_report;
};

Trial RunTrial(const TrainConfig& cfg, std::uint64_t seed) {
  Trial t;
  Span trial_span("train.trial");
  const Interval setup;
  CifarCorpus corpus =
      MakeCifarCorpus(seed, cfg.records, cfg.participants, cfg.test_records);
  core::TrainingServer server;
  serve::Service service(server);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < cfg.participants; ++i) {
    ids.push_back("participant-" + std::to_string(i));
  }
  t.records = IngestInProcess(service, std::move(corpus.shares), ids, seed);
  t.setup_wall_s = setup.Wall();
  t.setup_cpu_s = setup.Cpu();

  const nn::NetworkSpec spec = nn::Table2Spec(cfg.scale);
  for (int e = 0; e < cfg.epochs; ++e) {
    core::PartitionedTrainOptions options;
    options.epochs = 1;
    options.resume = e > 0;
    options.batch_size = cfg.batch;
    options.front_layers = FrontLayersForConvCount(spec, cfg.front_convs);
    options.sgd.learning_rate = cfg.learning_rate;
    // Clipping the mini-batch gradient norm keeps an unlucky seed from
    // diverging into a one-class model.
    options.sgd.dp_clip_norm = cfg.clip_norm;
    options.augment = false;
    options.seed = seed * 100 + static_cast<std::uint64_t>(e);
    ++t.attempted;
    const Interval epoch;
    auto report = [&] {
      Span span("serve.submit_train");
      return service.SubmitTrain(spec, options).get();
    }();
    const double s = epoch.Wall();
    t.epoch_cpu_us.push_back(epoch.Cpu() * 1e6 / static_cast<double>(t.records));
    t.epoch_ms.push_back(s * 1e3);
    t.train_s += s;
    if (!report.ok()) {
      ++t.failed;
      return t;
    }
    t.last_report = std::move(report).value();
  }

  ++t.attempted;
  const Clock::time_point f0 = Clock::now();
  const auto tuples = [&] {
    Span span("serve.submit_fingerprint");
    return service.SubmitFingerprint().get();
  }();
  t.fingerprint_s = SecondsSince(f0);
  if (!tuples.ok() || tuples.value() != t.records) {
    ++t.failed;
    return t;
  }

  nn::Network& model = service.query_service()->model();
  std::vector<std::size_t> order(corpus.test.size());
  std::iota(order.begin(), order.end(), 0);
  const auto probs =
      model.Predict(nn::PackBatch(corpus.test.images, order, 0, order.size()));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const auto best = std::max_element(probs[i].begin(), probs[i].end());
    hits += (best - probs[i].begin()) == corpus.test.labels[i] ? 1 : 0;
  }
  t.accuracy = static_cast<double>(hits) / static_cast<double>(probs.size());
  t.model_hash = crypto::Sha256Hash(model.SerializeModel());
  return t;
}

struct PassStats {
  std::vector<Trial> trials;
  std::vector<double> epoch_rate;    ///< samples/s of each epoch
  std::vector<double> epoch_cpu_us;  ///< CPU us per sample of each epoch
  double train_s = 0.0;
  double fingerprint_s = 0.0;
  std::size_t samples = 0;
  std::size_t fingerprinted = 0;
};

PassStats RunPass(const TrainConfig& cfg, std::uint64_t seed, double seconds) {
  PassStats ps;
  const Clock::time_point start = Clock::now();
  while (ps.trials.size() < 2 ||
         (ps.train_s < seconds && SecondsSince(start) < 4 * seconds)) {
    Trial t = RunTrial(cfg, seed);
    ps.train_s += t.train_s;
    ps.fingerprint_s += t.fingerprint_s;
    ps.samples += t.records * t.epoch_ms.size();
    for (const double ms : t.epoch_ms) {
      ps.epoch_rate.push_back(static_cast<double>(t.records) * 1e3 / ms);
    }
    ps.epoch_cpu_us.insert(ps.epoch_cpu_us.end(), t.epoch_cpu_us.begin(),
                           t.epoch_cpu_us.end());
    ps.fingerprinted += t.records;
    ps.trials.push_back(std::move(t));
  }
  return ps;
}

}  // namespace

void RunTrain(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  TrainConfig cfg;
  cfg.records = p.Size("train.records");
  cfg.participants = p.Size("train.participants");
  cfg.test_records = p.Size("train.test_records");
  cfg.epochs = static_cast<int>(p.Size("train.epochs_per_trial"));
  cfg.batch = static_cast<int>(p.Size("train.batch"));
  cfg.scale = static_cast<int>(p.Size("train.net_scale"));
  cfg.front_convs = static_cast<int>(p.Size("train.front_convs"));
  cfg.learning_rate = static_cast<float>(p.Num("train.learning_rate"));
  cfg.clip_norm = static_cast<float>(p.Num("train.clip_norm"));

  // Warm-up trial: the first training of a process pays page faults
  // and pool start-up that later epochs do not.  It is checked like
  // every other trial but not timed.
  const Trial warm = RunTrial(cfg, ctx.seed);

  const double pass_seconds = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  PassStats ps = RunPass(cfg, ctx.seed, pass_seconds);
  std::vector<Trial> all = {warm};
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  std::vector<double> epoch_ms;
  for (const Trial& t : ps.trials) {
    setup_wall.push_back(t.setup_wall_s);
    setup_cpu.push_back(t.setup_cpu_s);
    epoch_ms.insert(epoch_ms.end(), t.epoch_ms.begin(), t.epoch_ms.end());
    all.push_back(t);
  }
  const Summary lat = Summarize(epoch_ms);
  // Median over epochs: a host hiccup slows an epoch, not the figure.
  const double samples_per_s = Median(ps.epoch_rate);
  const double cpu_us = Median(ps.epoch_cpu_us);
  if (ctx.trace) {
    Tracer::Get().Enable(true);
    const PassStats traced = RunPass(cfg, ctx.seed, pass_seconds);
    Tracer::Get().Enable(false);
    const double traced_cpu_us = Median(traced.epoch_cpu_us);
    result.Layer("trace.overhead_pct", 100.0 * (traced_cpu_us - cpu_us) / cpu_us, "%");
    result.Layer("diag.throughput_per_s", samples_per_s, "1/s");
    result.Layer("diag.p50_ms", lat.median, "ms");
    // Too few epochs for a percentile above the median with ten beyond.
    result.Layer("diag.tail_ms", lat.tail_pct >= 50 ? lat.tail : lat.median, "ms");
    result.Layer("diag.setup_wall_s", Median(setup_wall), "s");
    for (const Trial& t : traced.trials) all.push_back(t);
  }

  // Correctness: every trial trained and fingerprinted, the model bytes
  // hash identically on every trial, and accuracy beats chance.
  const double chance = 1.0 / 10.0;
  for (const Trial& t : all) {
    result.attempted += t.attempted;
    result.failed += t.failed;
    if (t.failed != 0) result.Fail("a train or fingerprint request failed");
    if (t.model_hash != all.front().model_hash) {
      result.Fail("trained model bytes differ between trials of one seed");
    }
    if (t.accuracy != all.front().accuracy) {
      result.Fail("test accuracy differs between trials of one seed");
    }
  }
  const double accuracy = ps.trials.front().accuracy;
  if (!(accuracy > chance)) {
    result.Fail("test accuracy " + std::to_string(accuracy) + " not above chance");
  }

  const double fp_per_s = static_cast<double>(ps.fingerprinted) / ps.fingerprint_s;
  result.Named("setup_wall_s", Median(setup_wall), "s");
  result.Named("setup_cpu_s", Median(setup_cpu), "s");
  result.Named("peak_rss_mb", PeakRssMb(), "MB");
  result.Named("failed_share",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
               "ratio");
  result.Named("train_samples_per_s", samples_per_s, "samples/s");
  result.Named("train_cpu_us_per_sample", cpu_us, "us");
  result.Named("fingerprint_records_per_s", fp_per_s, "records/s");
  result.Named("test_accuracy", accuracy, "ratio");
  result.Named("epoch_p50_ms", lat.median, "ms");
  if (lat.tail_pct >= 50) {
    result.Named("epoch_p" + std::to_string(static_cast<int>(lat.tail_pct)) + "_ms",
                 lat.tail, "ms");
  }
  result.EndToEnd("setup_s", Median(setup_cpu), "s");
  result.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  result.EndToEnd("cpu_us_per_item", cpu_us, "us");

  const core::TrainReport& rep = *ps.trials.front().last_report;
  result.Fact("train.records", std::to_string(cfg.records));
  result.Fact("train.test_records", std::to_string(cfg.test_records));
  result.Fact("train.epochs_per_trial", std::to_string(cfg.epochs));
  result.Fact("train.trials", std::to_string(ps.trials.size()));
  result.Fact("train.epoch_samples", std::to_string(lat.n));
  result.Fact("train.tail_percentile", std::to_string(static_cast<int>(lat.tail_pct)));
  result.Fact("train.front_layers",
              std::to_string(FrontLayersForConvCount(nn::Table2Spec(cfg.scale),
                                                     cfg.front_convs)));
  result.Fact("train.batches_per_epoch", std::to_string(rep.partition.batches));
  result.Fact("train.final_loss", std::to_string(rep.epochs.back().mean_loss));
  result.Fact("train.epc_page_faults_last_epoch", std::to_string(rep.epc.page_faults));
}

}  // namespace perfbench
