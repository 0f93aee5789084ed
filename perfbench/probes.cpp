// Per-layer probes of the traced run.
//
// Each probe times one public call of one module, on inputs generated
// from the run's seed by the same functions the workloads use, and
// records a span around every timed call.  Times are medians over a
// few repetitions after one untimed warm-up call.  Metric names are
// "<module>.<what>"; the per-layer network metrics follow Table II's
// 1-based layer numbering (nn.L1_conv is ForwardRange(0, 1)).
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/partitioned.hpp"
#include "core/query.hpp"
#include "crypto/gcm.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "data/packaging.hpp"
#include "ingest_inputs.hpp"
#include "linkage/linkage_db.hpp"
#include "model_inputs.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "nn/presets.hpp"
#include "nn/trainer.hpp"
#include "nn/workspace.hpp"
#include "persist/journal.hpp"
#include "util/serial.hpp"

namespace perfbench {

using namespace caltrain;

namespace {

constexpr int kReps = 5;

void Require(bool ok, const std::string& what, Result& result) {
  if (!ok) result.Fail("layer probe: " + what);
}

/// Copies of a chunk's records (uploads consume their argument).
std::vector<data::EncryptedRecord> Copy(const Chunk& c) { return c.records; }

// ------------------------------------------------------------------ ingest

void ProbeIngest(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  const std::size_t chunk = p.Size("ingest.chunk_records");
  IngestInputs in = MakeIngestInputs(ctx.seed, 1, p.Size("probe.ingest_records"),
                                     chunk, p.Size("ingest.forge_one_in"));
  Uploader& up = *in.uploaders[0];
  core::Participant& participant = *up.participant;
  const double n_chunk = static_cast<double>(chunk);

  // Client-side packing.
  const double pack_s =
      TimeMedian("data.pack", 3, [&] { (void)participant.PackRecords(); });
  result.Layer("data.pack_us_per_record",
               pack_s * 1e6 / static_cast<double>(participant.local_data().size()),
               "us");

  // A clean chunk and the same chunk with its first record forged.
  Chunk clean;
  for (const Chunk& c : up.chunks) {
    if (c.forged == 0 && c.records.size() == chunk) {
      clean = c;
      break;
    }
  }
  Require(!clean.records.empty(), "no clean chunk among the inputs", result);
  if (clean.records.empty()) return;
  Chunk forged = clean;
  forged.records[0].ciphertext[0] ^= 0x01;
  forged.forged = 1;

  // core: authentication and commit, in process.
  core::TrainingServer server;
  participant.Provision(server, server.training_measurement());
  const std::size_t batch = p.Size("ingest.auth_batch");
  std::vector<char> accepted;
  const double auth_s = TimeMedian("core.authenticate", kReps, [&] {
    accepted = server.AuthenticateRecords(clean.records, batch);
  });
  Require(std::count(accepted.begin(), accepted.end(), 1) ==
              static_cast<long>(clean.records.size()),
          "clean chunk not fully accepted", result);
  std::vector<char> forged_ok;
  const double auth_forged_s = TimeMedian("core.authenticate_forged", kReps, [&] {
    forged_ok = server.AuthenticateRecords(forged.records, batch);
  });
  Require(forged_ok[0] == 0 && std::count(forged_ok.begin(), forged_ok.end(), 1) ==
                                   static_cast<long>(forged.records.size() - 1),
          "forged chunk verdicts wrong", result);
  const double commit_s = TimeMedian("core.commit", kReps, [&] {
    (void)server.CommitRecords(clean.records, accepted);
  });
  result.Layer("core.authenticate_us_per_record", auth_s * 1e6 / n_chunk, "us");
  result.Layer("core.authenticate_forged_us_per_record", auth_forged_s * 1e6 / n_chunk, "us");
  result.Layer("core.commit_us_per_record", commit_s * 1e6 / n_chunk, "us");

  // crypto: the pieces of authentication, one record at a time or one
  // chunk per batch.
  std::vector<Bytes> portions;
  for (const auto& r : clean.records) portions.push_back(r.SignedPortion());
  const Bytes forged_portion = forged.records[0].SignedPortion();
  const double sha_s = TimeMedian("crypto.sha256", kReps, [&] {
    for (const Bytes& b : portions) (void)crypto::Sha256Hash(b);
  });
  std::vector<crypto::SchnorrBatchItem> items;
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    items.push_back({participant.signing_public_key(), portions[i],
                     crypto::DeserializeSignature(clean.records[i].signature)});
  }
  std::vector<crypto::SchnorrBatchItem> bad_items = items;
  bad_items[0].message = forged_portion;
  std::vector<std::size_t> invalid;
  const double schnorr_s = TimeMedian("crypto.schnorr_batch", kReps, [&] {
    invalid = crypto::SchnorrVerifyBatch(items);
  });
  Require(invalid.empty(), "clean Schnorr batch rejected", result);
  const double bisect_s = TimeMedian("crypto.schnorr_bisect", kReps, [&] {
    invalid = crypto::SchnorrVerifyBatch(bad_items);
  });
  Require(invalid == std::vector<std::size_t>{0}, "bisection missed the forged item",
          result);
  const crypto::AesGcm cipher(participant.data_key());
  std::vector<Bytes> aads;
  for (const auto& r : clean.records) {
    ByteWriter w;  // the record AAD: participant id and label
    w.WriteString(r.participant_id);
    w.WriteU32(static_cast<std::uint32_t>(r.label));
    aads.push_back(w.Take());
  }
  std::vector<Bytes> plain(clean.records.size());
  bool opened = true;
  const double gcm_s = TimeMedian("crypto.gcm_open", kReps, [&] {
    for (std::size_t i = 0; i < clean.records.size(); ++i) {
      const auto& r = clean.records[i];
      auto pt = cipher.Open(r.iv, aads[i], r.ciphertext,
                            std::span<const std::uint8_t, crypto::kGcmTagSize>(
                                r.tag.data(), crypto::kGcmTagSize));
      opened = opened && pt.has_value();
      if (pt) plain[i] = std::move(*pt);
    }
  });
  Require(opened, "GCM open failed on a clean record", result);
  result.Layer("crypto.sha256_us_per_record", sha_s * 1e6 / n_chunk, "us");
  result.Layer("crypto.schnorr_batch_us_per_record", schnorr_s * 1e6 / n_chunk, "us");
  result.Layer("crypto.schnorr_bisect_us_per_record", bisect_s * 1e6 / n_chunk, "us");
  result.Layer("crypto.gcm_open_us_per_record", gcm_s * 1e6 / n_chunk, "us");

  // data: batch open and instance deserialization.
  std::vector<const data::EncryptedRecord*> rec_ptrs;
  std::vector<const crypto::AesGcm*> ciphers;
  for (const auto& r : clean.records) {
    rec_ptrs.push_back(&r);
    ciphers.push_back(&cipher);
  }
  const double open_s = TimeMedian("data.open_batch", kReps, [&] {
    (void)data::OpenRecordsBatch(rec_ptrs, ciphers);
  });
  const double deser_s = TimeMedian("data.deserialize", kReps, [&] {
    for (const Bytes& b : plain) (void)data::DeserializeTrainingInstance(b);
  });
  result.Layer("data.open_batch_us_per_record", open_s * 1e6 / n_chunk, "us");
  result.Layer("data.deserialize_us_per_record", deser_s * 1e6 / n_chunk, "us");

  // net: bulk upload framing.
  net::SubmitUploadRequest req;
  req.session = 1;
  req.upload_seq = 1;
  req.records = clean.records;
  Bytes frame;
  const double enc_s = TimeMedian("net.frame_encode", kReps,
                                  [&] { frame = net::EncodeSubmitUploadFrame(req); });
  bool decoded = false;
  const double dec_s = TimeMedian("net.frame_decode", kReps, [&] {
    net::FrameDecoder decoder;
    decoder.Feed(frame);
    net::Frame f;
    decoded = decoder.Next(f) == net::FrameDecoder::Status::kFrame &&
              net::DecodeSubmitUpload(f.body()).records.size() == clean.records.size();
  });
  Require(decoded, "upload frame did not round-trip", result);
  result.Layer("net.frame_encode_us_per_record", enc_s * 1e6 / n_chunk, "us");
  result.Layer("net.frame_decode_us_per_record", dec_s * 1e6 / n_chunk, "us");

  // persist: journal append of record-sized payloads, and group sync.
  {
    ScratchDir dir(ctx, "probe-journal");
    auto journal = persist::Journal::Open(dir.path() + "/probe.wal",
                                          persist::SyncMode::kGroup);
    std::vector<Bytes> payloads;
    for (const auto& r : clean.records) payloads.push_back(r.Serialize());
    const double append_s = TimeMedian("persist.append", kReps, [&] {
      for (const Bytes& b : payloads) (void)journal->Append(b);
    });
    std::vector<double> syncs;
    for (int r = 0; r < kReps + 1; ++r) {
      for (const Bytes& b : payloads) (void)journal->Append(b);
      Span span("persist.sync");
      const Clock::time_point t0 = Clock::now();
      journal->Sync();
      if (r > 0) syncs.push_back(SecondsSince(t0));
    }
    result.Layer("persist.append_us_per_record", append_s * 1e6 / n_chunk, "us");
    result.Layer("persist.sync_ms", Median(syncs) * 1e3, "ms");
  }

  // Remote and in-process submissions against a durable service.
  ScratchDir wal(ctx, "probe-wal");
  core::TrainingServer remote_server;
  serve::ServiceConfig sc;
  sc.ingest_batch = batch;
  sc.durable_dir = wal.path();
  serve::Service service(remote_server, sc);
  net::Server front(service);
  front.Start();
  net::ClientOptions options;
  options.port = front.port();
  net::Client client(options);
  const net::Client::HelloInfo hello = client.Connect();

  // securechannel: attested provisioning through the wire, one fresh
  // participant per repetition.
  std::vector<std::unique_ptr<core::Participant>> fresh;
  for (int i = 0; i <= kReps; ++i) {
    fresh.push_back(std::make_unique<core::Participant>(
        "probe-" + std::to_string(i), data::LabeledDataset{}, ctx.seed * 7 + i));
  }
  std::size_t next_fresh = 0;
  const double provision_s = TimeMedian("securechannel.provision", kReps, [&] {
    fresh[next_fresh++]->ProvisionVia(client, hello.attestation_public_key,
                                      hello.measurement);
  });
  result.Layer("securechannel.provision_ms", provision_s * 1e3, "ms");

  participant.ProvisionVia(client, hello.attestation_public_key, hello.measurement);
  const auto remote_session = client.OpenSession(participant.id());
  const auto local_session = service.OpenUploadSession(participant.id());
  Require(remote_session.ok() && local_session.ok(), "probe sessions refused", result);
  if (!remote_session.ok() || !local_session.ok()) return;
  const std::uint64_t ecalls0 = remote_server.training_enclave().transitions().ecalls;
  std::size_t uploaded = 0;
  std::size_t uploaded_bytes = 0;
  std::vector<double> remote_ms;
  std::vector<double> local_ms;
  for (int r = 0; r <= kReps; ++r) {
    auto records = Copy(clean);
    Clock::time_point t0 = Clock::now();
    {
      Span span("net.upload_call");
      Require(client.SubmitUpload(remote_session.value(), std::move(records)).ok(),
              "remote probe upload failed", result);
    }
    if (r > 0) remote_ms.push_back(SecondsSince(t0) * 1e3);
    records = Copy(clean);
    t0 = Clock::now();
    {
      Span span("serve.submit_to_receipt");
      Require(service.SubmitUpload(local_session.value(), std::move(records)).get().ok(),
              "in-process probe upload failed", result);
    }
    if (r > 0) local_ms.push_back(SecondsSince(t0) * 1e3);
    uploaded += 2 * clean.records.size();
    uploaded_bytes += 2 * clean.bytes;
  }
  const std::uint64_t ecalls =
      remote_server.training_enclave().transitions().ecalls - ecalls0;
  result.Layer("net.upload_call_ms", Median(remote_ms), "ms");
  result.Layer("serve.submit_to_receipt_ms", Median(local_ms), "ms");
  result.Layer("enclave.ecalls_per_record",
               static_cast<double>(ecalls) / static_cast<double>(uploaded), "count");

  std::vector<double> rtt_us;
  for (int r = 0; r < 200; ++r) {
    Span span("net.status");
    const Clock::time_point t0 = Clock::now();
    Require(client.Status().ok(), "status RPC failed", result);
    rtt_us.push_back(SecondsSince(t0) * 1e6);
  }
  result.Layer("net.status_rtt_us", Median(rtt_us), "us");
  front.Stop();
  std::error_code ec;
  const auto wal_bytes = std::filesystem::file_size(wal.path() + "/service.wal", ec);
  result.Layer("persist.wal_bytes_per_user_byte",
               ec ? 0.0 : static_cast<double>(wal_bytes) / static_cast<double>(uploaded_bytes),
               "ratio");
}

// ------------------------------------------------------------------- train

struct LayerCost {
  double fwd_fast = 0.0;
  double bwd_fast = 0.0;
  double fwd_precise = 0.0;
  double bwd_precise = 0.0;
};

void ProbeTrain(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  const int scale = static_cast<int>(p.Size("train.net_scale"));
  const int batch = static_cast<int>(p.Size("train.batch"));
  const nn::NetworkSpec spec = nn::Table2Spec(scale);
  const int front = FrontLayersForConvCount(spec, static_cast<int>(p.Size("train.front_convs")));
  CifarCorpus corpus = MakeCifarCorpus(ctx.seed, static_cast<std::size_t>(batch), 1, 0);
  const data::LabeledDataset& d = corpus.shares[0];
  std::vector<std::size_t> order(d.size());
  std::iota(order.begin(), order.end(), 0);
  const nn::Batch input = nn::PackBatch(d.images, order, 0, order.size());
  const std::vector<int>& labels = d.labels;

  // Per-layer forward and backward at both kernel profiles.
  Rng rng(ctx.seed);
  nn::Network net = nn::BuildNetwork(spec, rng);
  nn::LayerWorkspace ws(net);
  const int layers = net.NumLayers();
  const auto context = [&](nn::KernelProfile profile) {
    nn::LayerContext c;
    c.training = true;
    c.rng = &rng;
    c.profile = profile;
    c.labels = &labels;
    c.want_input_grad = false;
    return c;
  };
  net.ForwardRange(&input, 0, layers, context(nn::KernelProfile::kFast), ws);
  net.BackwardRange(0, layers, context(nn::KernelProfile::kFast), ws);
  std::vector<LayerCost> cost(static_cast<std::size_t>(layers));
  for (int i = 0; i < layers; ++i) {
    const nn::Batch* in = i == 0 ? &input : nullptr;
    LayerCost& c = cost[static_cast<std::size_t>(i)];
    for (const nn::KernelProfile profile :
         {nn::KernelProfile::kFast, nn::KernelProfile::kPrecise}) {
      const nn::LayerContext lc = context(profile);
      const bool fast = profile == nn::KernelProfile::kFast;
      const double f = TimeMedian(fast ? "nn.forward_fast" : "nn.forward_precise", kReps,
                                  [&] { net.ForwardRange(in, i, i + 1, lc, ws); });
      const double b = TimeMedian(fast ? "nn.backward_fast" : "nn.backward_precise", kReps,
                                  [&] { net.BackwardRange(i, i + 1, lc, ws); });
      (fast ? c.fwd_fast : c.fwd_precise) = f * 1e3;
      (fast ? c.bwd_fast : c.bwd_precise) = b * 1e3;
    }
    const nn::LayerKind kind = spec.layers[static_cast<std::size_t>(i)].kind;
    if (kind != nn::LayerKind::kConv && kind != nn::LayerKind::kConnected) continue;
    const std::string name = "nn.L" + std::to_string(i + 1) + "_" + nn::LayerKindName(kind);
    const bool enclosed = i < front;
    result.Layer(name + ".fwd_ms", enclosed ? c.fwd_precise : c.fwd_fast, "ms");
    result.Layer(name + ".bwd_ms", enclosed ? c.bwd_precise : c.bwd_fast, "ms");
    result.Layer(name + ".precise_over_fast",
                 (c.fwd_precise + c.bwd_precise) / (c.fwd_fast + c.bwd_fast), "ratio");
  }

  // Partitioned training batches: the Experiment-II split, then the
  // EPC paging cost of every Fig. 6 split.
  const auto measure = [&](int front_layers, int reps, double& batch_ms,
                           core::PartitionStats& stats, double& mee_ms_per_batch) {
    Rng init(ctx.seed);
    nn::Network model = nn::BuildNetwork(spec, init);
    core::TrainingServer host;
    enclave::Enclave& enclave = host.training_enclave();
    core::PartitionedTrainer trainer(model, enclave, front_layers);
    nn::SgdConfig sgd;
    sgd.learning_rate = static_cast<float>(p.Num("train.learning_rate"));
    sgd.dp_clip_norm = static_cast<float>(p.Num("train.clip_norm"));
    Rng step(ctx.seed + 1);
    // EPC traffic counts from before the first batch: a trainer pages
    // its FrontNet in on first touch, as every SubmitTrain does.
    const enclave::EpcStats e0 = enclave.epc().stats();
    (void)trainer.TrainBatch(input, labels, sgd, step);
    const core::PartitionStats s0 = trainer.stats();
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      Span span("core.train_batch");
      const Clock::time_point t0 = Clock::now();
      (void)trainer.TrainBatch(input, labels, sgd, step);
      times.push_back(SecondsSince(t0) * 1e3);
    }
    batch_ms = Median(times);
    stats.batches = trainer.stats().batches - s0.batches;
    const double all_batches = static_cast<double>(trainer.stats().batches);
    stats.ir_bytes_out = trainer.stats().ir_bytes_out - s0.ir_bytes_out;
    stats.delta_bytes_in = trainer.stats().delta_bytes_in - s0.delta_bytes_in;
    const enclave::EpcStats& e1 = enclave.epc().stats();
    mee_ms_per_batch = (e1.mee_seconds - e0.mee_seconds) * 1e3 / all_batches;
  };
  double batch_ms = 0.0;
  double mee_ms = 0.0;
  core::PartitionStats stats;
  measure(front, kReps, batch_ms, stats, mee_ms);
  const double batches = static_cast<double>(std::max<std::uint64_t>(1, stats.batches));
  result.Layer("core.train_batch_ms", batch_ms, "ms");
  result.Layer("core.ir_bytes_per_batch", static_cast<double>(stats.ir_bytes_out) / batches,
               "bytes");
  result.Layer("core.delta_bytes_per_batch",
               static_cast<double>(stats.delta_bytes_in) / batches, "bytes");

  // enclave: EPC paging and MEE traffic per batch of one real training
  // epoch through the service (records decrypted in the enclave, a new
  // trainer paging its FrontNet in), as the train workload runs it.
  {
    CifarCorpus train_corpus = MakeCifarCorpus(
        ctx.seed, p.Size("train.records"), p.Size("train.participants"), 0);
    core::TrainingServer server;
    serve::Service service(server);
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < train_corpus.shares.size(); ++i) {
      ids.push_back("participant-" + std::to_string(i));
    }
    (void)IngestInProcess(service, std::move(train_corpus.shares), ids, ctx.seed);
    const enclave::EpcStats e0 = server.training_enclave().epc().stats();
    core::PartitionedTrainOptions options;
    options.epochs = 1;
    options.batch_size = batch;
    options.front_layers = front;
    options.sgd.learning_rate = static_cast<float>(p.Num("train.learning_rate"));
    options.sgd.dp_clip_norm = static_cast<float>(p.Num("train.clip_norm"));
    options.augment = false;
    options.seed = ctx.seed;
    const auto report = [&] {
      Span span("serve.submit_train");
      return service.SubmitTrain(spec, options).get();
    }();
    Require(report.ok(), "probe training epoch failed", result);
    if (report.ok()) {
      const core::TrainReport& rep = report.value();
      const double n = static_cast<double>(std::max<std::uint64_t>(1, rep.partition.batches));
      result.Layer("enclave.epc_faults_per_batch",
                   static_cast<double>(rep.epc.page_faults - e0.page_faults) / n, "count");
      result.Layer("enclave.mee_mb_per_batch",
                   static_cast<double>(rep.epc.bytes_encrypted - e0.bytes_encrypted) / 1e6 / n,
                   "MB");
      result.Layer("enclave.mee_ms_per_batch", (rep.epc.mee_seconds - e0.mee_seconds) * 1e3 / n,
                   "ms");
    }
  }

  // Fig. 6 from per-layer costs: for N enclosed convs, the extra cost of
  // the precise kernels over the enclosed layers plus that split's EPC
  // paging, relative to the all-fast batch.
  double all_fast = 0.0;
  for (const LayerCost& c : cost) all_fast += c.fwd_fast + c.bwd_fast;
  for (int convs = 2; convs <= 10; ++convs) {
    const int enclosed = FrontLayersForConvCount(spec, convs);
    double extra = 0.0;
    for (int i = 0; i < enclosed; ++i) {
      const LayerCost& c = cost[static_cast<std::size_t>(i)];
      extra += (c.fwd_precise + c.bwd_precise) - (c.fwd_fast + c.bwd_fast);
    }
    double unused_ms = 0.0;
    double paging_ms = 0.0;
    core::PartitionStats unused_stats;
    measure(enclosed, 1, unused_ms, unused_stats, paging_ms);
    extra += paging_ms;
    result.Layer("nn.fig6_overhead_pct.c" + std::to_string(convs), 100.0 * extra / all_fast,
                 "%");
  }
}

// ------------------------------------------------------------------- audit

void ProbeAudit(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  const std::size_t k = p.Size("audit.k");
  AuditState st = MakeAuditState(p, ctx.seed);
  const ProbePool pool = MakeProbePool(p, ctx.seed);
  core::QueryService& query = *st.service->query_service();
  const nn::Network& model = query.model();
  const std::size_t probes = std::min<std::size_t>(pool.images.size(), 64);
  const double per_probe = static_cast<double>(probes);

  nn::LayerWorkspace ws(model);
  const double embed_s = TimeMedian("nn.embedding_forward", kReps, [&] {
    for (std::size_t i = 0; i < probes; ++i) {
      (void)model.EmbeddingAtLayer(pool.images[i], st.fingerprint_layer,
                                   nn::KernelProfile::kFast, ws);
    }
  });
  result.Layer("nn.embedding_forward_us", embed_s * 1e6 / per_probe, "us");

  std::vector<core::MispredictionReport> reports(probes);
  const double inv_s = TimeMedian("core.investigate", kReps, [&] {
    for (std::size_t i = 0; i < probes; ++i) {
      reports[i] = query.InvestigateWith(ws, pool.images[i], k);
    }
  });
  result.Layer("core.investigate_us", inv_s * 1e6 / per_probe, "us");

  const double serve_s = TimeMedian("serve.investigate", kReps, [&] {
    for (std::size_t i = 0; i < probes; ++i) {
      Require(st.service->SubmitInvestigate(pool.images[i], k).get().ok(),
              "SubmitInvestigate failed", result);
    }
  });
  result.Layer("serve.investigate_ms", serve_s * 1e3 / per_probe, "ms");

  {
    net::Server front(*st.service);
    front.Start();
    net::ClientOptions options;
    options.port = front.port();
    net::Client client(options);
    (void)client.Connect();
    const double net_s = TimeMedian("net.investigate_call", kReps, [&] {
      for (std::size_t i = 0; i < probes; ++i) {
        Require(client.Investigate(pool.images[i], k).ok(), "remote investigate failed",
                result);
      }
    });
    result.Layer("net.investigate_call_ms", net_s * 1e3 / per_probe, "ms");
    front.Stop();
  }

  // linkage: kNN on a copy of the served database (the served one is
  // read-only to callers).
  linkage::LinkageDatabase db = linkage::LinkageDatabase::Deserialize(
      query.database().Serialize());
  std::vector<linkage::Fingerprint> fps;
  std::vector<int> labels;
  for (const auto& r : reports) {
    fps.push_back(r.fingerprint);
    labels.push_back(r.predicted_label);
  }
  const double q_s = TimeMedian("linkage.query", kReps, [&] {
    for (std::size_t i = 0; i < probes; ++i) (void)db.QueryNearest(fps[i], labels[i], k);
  });
  const double qb_s = TimeMedian("linkage.query_batch", kReps,
                                 [&] { (void)db.QueryNearestBatch(fps, labels, k); });
  result.Layer("linkage.query_us", q_s * 1e6 / per_probe, "us");
  result.Layer("linkage.query_batch_us_per_probe", qb_s * 1e6 / per_probe, "us");

  std::vector<linkage::LinkageRecord> records;
  for (std::uint64_t id = 0; id < db.size(); ++id) {
    const linkage::LinkageTuple& t = db.tuple(id);
    records.push_back({t.fingerprint, t.label, t.source, t.hash});
  }
  const double insert_s = TimeMedian("linkage.insert_batch", 3, [&] {
    linkage::LinkageDatabase fresh;
    (void)fresh.InsertBatch(records);
  });
  result.Layer("linkage.insert_batch_us_per_tuple",
               insert_s * 1e6 / static_cast<double>(records.size()), "us");
  double fp_s = 0.0;
  {
    Span span("linkage.fingerprint_all");
    const Clock::time_point t0 = Clock::now();
    const linkage::LinkageDatabase again = st.server->FingerprintAll(st.fingerprint_layer);
    fp_s = SecondsSince(t0);
    Require(again.size() == st.tuples, "FingerprintAll size changed", result);
  }
  result.Layer("linkage.fingerprint_us_per_record",
               fp_s * 1e6 / static_cast<double>(st.records), "us");
  result.Layer("linkage.tuples", static_cast<double>(st.tuples), "count");
}

}  // namespace

void RunLayerProbes(const RunContext& ctx, Result& result) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(true);
  constexpr int kEmpty = 2000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kEmpty; ++i) Span span("trace.empty_span");
  result.Layer("trace.span_overhead_ns", SecondsSince(t0) * 1e9 / kEmpty, "ns");
  {
    Span group("probe.ingest");
    ProbeIngest(ctx, result);
  }
  {
    Span group("probe.train");
    ProbeTrain(ctx, result);
  }
  {
    Span group("probe.audit");
    ProbeAudit(ctx, result);
  }
  tracer.Enable(false);
}

}  // namespace perfbench
