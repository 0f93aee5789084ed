// Workload `ingest`: closed-loop remote uploads into a durable service.
//
// Each of up to nproc participants provisions over its own TCP
// connection (Participant::ProvisionVia through net::Client), opens an
// upload session and streams chunks of signed, encrypted
// synthetic-CIFAR records, waiting for each receipt before sending the
// next chunk.  The service journals every committed batch to a WAL
// under the checkout with group fsync.  About one record in
// `ingest.forge_one_in` has a ciphertext bit flipped after signing, so
// Schnorr batch bisection and the reject tally stay on the measured
// path.
//
// The run is a sequence of rounds, each with its own set-up (generate,
// pack, start the service, provision) and timed upload of the whole
// round; rounds repeat until --seconds of upload time have been
// measured.  Throughput and set-up time are medians over rounds;
// latency percentiles pool every chunk of every round.  A smaller
// warm-up round runs first and is not reported.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/participant.hpp"
#include "core/server.hpp"
#include "data/synthetic_cifar.hpp"
#include "ingest_inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"

namespace perfbench {

using namespace caltrain;

IngestInputs MakeIngestInputs(std::uint64_t seed, std::size_t participants,
                              std::size_t records_each, std::size_t chunk,
                              std::size_t forge_one_in) {
  // Participants generate and pack their own records concurrently, as
  // separate clients would; each draws from its own seeded streams, so
  // the inputs do not depend on thread timing.
  IngestInputs in;
  in.uploaders.resize(participants);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < participants; ++p) {
    threads.emplace_back([&, p] {
      const std::uint64_t stream = seed * 1000003 + p;
      Rng rng(stream);
      std::mt19937_64 forge(stream * 0x9E3779B97F4A7C15ULL + 1);
      auto up = std::make_unique<Uploader>();
      up->participant = std::make_unique<core::Participant>(
          "participant-" + std::to_string(p),
          data::SyntheticCifar().Generate(records_each, rng), stream);
      std::vector<data::EncryptedRecord> records = up->participant->PackRecords();
      for (std::size_t first = 0; first < records.size(); first += chunk) {
        const std::size_t last = std::min(records.size(), first + chunk);
        Chunk c;
        for (std::size_t i = first; i < last; ++i) {
          data::EncryptedRecord& r = records[i];
          if (forge() % forge_one_in == 0) {
            // Tamper after signing: both the signature and the GCM tag
            // stop verifying, so the service must reject it.
            r.ciphertext[forge() % r.ciphertext.size()] ^= 0x01;
            ++c.forged;
          }
          c.bytes += r.SerializedSize();
          c.records.push_back(std::move(r));
        }
        up->chunks.push_back(std::move(c));
      }
      in.uploaders[p] = std::move(up);
    });
  }
  for (std::thread& t : threads) t.join();
  return in;
}

namespace {

struct IngestConfig {
  std::size_t participants = 1;
  std::size_t records_each = 0;
  std::size_t warmup_records_each = 0;
  std::size_t chunk = 32;
  std::size_t forge_one_in = 64;
  std::size_t auth_batch = 32;
};

struct RoundStats {
  double setup_wall_s = 0.0;
  double setup_cpu_s = 0.0;
  double upload_s = 0.0;  ///< first submit to last receipt
  double cpu_s = 0.0;     ///< process CPU time over the same interval
  std::size_t records = 0;
  std::size_t forged = 0;
  std::size_t failed = 0;  ///< records with a wrong verdict or lost
  std::vector<double> chunk_ms;
  double wal_bytes_per_user_byte = 0.0;
  double ecalls_per_record = 0.0;
  std::string wal_fs;
};

RoundStats RunRound(const RunContext& ctx, const IngestConfig& cfg,
                    std::size_t records_each, std::uint64_t seed,
                    Result& result) {
  RoundStats st;
  const Interval setup;
  IngestInputs inputs = MakeIngestInputs(seed, cfg.participants, records_each,
                                         cfg.chunk, cfg.forge_one_in);
  ScratchDir wal(ctx, "ingest-wal");
  st.wal_fs = FileSystemOf(wal.path());
  core::TrainingServer server;
  serve::ServiceConfig sc;
  sc.ingest_batch = cfg.auth_batch;
  sc.durable_dir = wal.path();
  sc.journal_sync = persist::SyncMode::kGroup;
  serve::Service service(server, sc);
  net::Server front(service);
  front.Start();

  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<serve::SessionId> sessions;
  std::size_t user_bytes = 0;
  for (auto& up : inputs.uploaders) {
    net::ClientOptions options;
    options.port = front.port();
    auto client = std::make_unique<net::Client>(options);
    const net::Client::HelloInfo& hello = client->Connect();
    up->participant->ProvisionVia(*client, hello.attestation_public_key,
                                  hello.measurement);
    const auto session = client->OpenSession(up->participant->id());
    if (!session.ok()) throw std::runtime_error("open session refused");
    sessions.push_back(session.value());
    clients.push_back(std::move(client));
    for (const Chunk& c : up->chunks) {
      st.records += c.records.size();
      st.forged += c.forged;
      user_bytes += c.bytes;
    }
  }
  st.setup_wall_s = setup.Wall();
  st.setup_cpu_s = setup.Cpu();

  // Timed region: every participant streams its chunks concurrently.
  Span round_span("ingest.round");
  std::vector<std::vector<double>> lat(inputs.uploaders.size());
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> lost{0};
  const Interval upload;
  const Clock::time_point t0 = upload.wall0;
  std::vector<Clock::time_point> ends(inputs.uploaders.size(), t0);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < inputs.uploaders.size(); ++p) {
    threads.emplace_back([&, p] {
      Uploader& up = *inputs.uploaders[p];
      for (Chunk& c : up.chunks) {
        const std::size_t n = c.records.size();
        const std::size_t expect_rejected = c.forged;
        const Clock::time_point s = Clock::now();
        serve::Result<serve::UploadReceipt> receipt = [&] {
          Span span("net.upload_call", &round_span);
          return clients[p]->SubmitUpload(sessions[p], std::move(c.records));
        }();
        const Clock::time_point e = Clock::now();
        lat[p].push_back(std::chrono::duration<double, std::milli>(e - s).count());
        if (!receipt.ok()) {
          lost += n;
        } else if (receipt.value().accepted != n - expect_rejected ||
                   receipt.value().rejected != expect_rejected) {
          wrong += n;
        }
      }
      ends[p] = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  st.cpu_s = upload.Cpu();
  st.upload_s =
      std::chrono::duration<double>(*std::max_element(ends.begin(), ends.end()) - t0)
          .count();
  for (const auto& l : lat) st.chunk_ms.insert(st.chunk_ms.end(), l.begin(), l.end());

  // Verdict checks: per-chunk tallies above, lifetime tallies here.
  for (std::size_t p = 0; p < clients.size(); ++p) {
    const auto stats = clients[p]->CloseSession(sessions[p]);
    if (!stats.ok()) result.Fail("close session failed");
  }
  if (lost > 0) result.Fail(std::to_string(lost.load()) + " records lost to failed uploads");
  if (wrong > 0) result.Fail(std::to_string(wrong.load()) + " records in chunks with a wrong receipt");
  if (server.accepted_records() != st.records - st.forged ||
      server.rejected_records() != st.forged) {
    result.Fail("accepted/rejected tallies " +
                std::to_string(server.accepted_records()) + "/" +
                std::to_string(server.rejected_records()) + " != clean/forged " +
                std::to_string(st.records - st.forged) + "/" +
                std::to_string(st.forged));
  }
  st.failed = lost + wrong;
  const auto transitions = server.training_enclave().transitions();
  st.ecalls_per_record = static_cast<double>(transitions.ecalls) /
                         static_cast<double>(std::max<std::size_t>(1, st.records));
  front.Stop();
  std::error_code ec;
  const auto wal_size =
      std::filesystem::file_size(wal.path() + "/service.wal", ec);
  st.wal_bytes_per_user_byte =
      ec ? 0.0
         : static_cast<double>(wal_size) /
               static_cast<double>(std::max<std::size_t>(1, user_bytes));
  return st;
}

struct PassStats {
  std::vector<double> setup_wall_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> chunk_ms;
  std::vector<double> round_rate;     ///< records/s of each round
  std::vector<double> round_cpu_us;   ///< CPU us per record of each round
  double upload_s = 0.0;
  std::size_t records = 0;
  std::size_t forged = 0;
  std::size_t failed = 0;
  std::size_t rounds = 0;
  RoundStats last;
};

PassStats RunPass(const RunContext& ctx, const IngestConfig& cfg,
                  double seconds, Result& result) {
  PassStats ps;
  const Clock::time_point start = Clock::now();
  // Rounds repeat the same seeded inputs; at least two so set-up time
  // has a median over repeats.
  while (ps.rounds < 2 || (ps.upload_s < seconds && SecondsSince(start) < 4 * seconds)) {
    RoundStats st = RunRound(ctx, cfg, cfg.records_each, ctx.seed, result);
    ps.setup_wall_s.push_back(st.setup_wall_s);
    ps.setup_cpu_s.push_back(st.setup_cpu_s);
    ps.chunk_ms.insert(ps.chunk_ms.end(), st.chunk_ms.begin(), st.chunk_ms.end());
    ps.upload_s += st.upload_s;
    ps.round_rate.push_back(static_cast<double>(st.records) / st.upload_s);
    ps.round_cpu_us.push_back(st.cpu_s * 1e6 / static_cast<double>(st.records));
    ps.records += st.records;
    ps.forged += st.forged;
    ps.failed += st.failed;
    ++ps.rounds;
    ps.last = std::move(st);
  }
  return ps;
}

}  // namespace

void RunIngest(const RunContext& ctx, Result& result) {
  const Params& p = *ctx.params;
  IngestConfig cfg;
  cfg.participants = std::min<std::size_t>(p.Size("ingest.participants"), ctx.nproc);
  cfg.records_each = p.Size("ingest.records_per_participant");
  cfg.warmup_records_each = p.Size("ingest.warmup_records_per_participant");
  cfg.chunk = p.Size("ingest.chunk_records");
  cfg.forge_one_in = p.Size("ingest.forge_one_in");
  cfg.auth_batch = p.Size("ingest.auth_batch");

  // Warm-up round: first-touch page faults, pool start-up and the
  // loopback path, none of which a long-running service pays per chunk.
  {
    Result discard;
    (void)RunRound(ctx, cfg, cfg.warmup_records_each, ctx.seed + 1, discard);
  }

  // With tracing on, half the time runs untraced and half traced; the
  // difference in CPU per record is the tracing overhead.
  const double pass_seconds = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const PassStats ps = RunPass(ctx, cfg, pass_seconds, result);
  const Summary lat = Summarize(ps.chunk_ms);
  // Median over rounds: a host hiccup slows a few rounds, not the figure.
  const double rate = Median(ps.round_rate);
  const double cpu_us = Median(ps.round_cpu_us);
  const double setup_wall = Median(ps.setup_wall_s);
  const double setup_cpu = Median(ps.setup_cpu_s);

  result.attempted += ps.records;
  result.failed += ps.failed;
  result.Named("setup_wall_s", setup_wall, "s");
  result.Named("setup_cpu_s", setup_cpu, "s");
  result.Named("peak_rss_mb", PeakRssMb(), "MB");
  result.Named("failed_share",
               static_cast<double>(ps.failed) / static_cast<double>(ps.records),
               "ratio");
  result.Named("ingest_records_per_s", rate, "records/s");
  result.Named("ingest_cpu_us_per_record", cpu_us, "us");
  result.Named("upload_p50_ms", lat.median, "ms");
  result.Named("upload_p" + std::to_string(static_cast<int>(lat.tail_pct)) + "_ms",
               lat.tail, "ms");
  result.EndToEnd("setup_s", setup_cpu, "s");
  result.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  result.EndToEnd("cpu_us_per_item", cpu_us, "us");

  result.Fact("ingest.participants", std::to_string(cfg.participants));
  result.Fact("ingest.records_per_round", std::to_string(ps.last.records));
  result.Fact("ingest.forged_per_round", std::to_string(ps.last.forged));
  result.Fact("ingest.rounds", std::to_string(ps.rounds));
  result.Fact("ingest.chunk_records", std::to_string(cfg.chunk));
  result.Fact("ingest.chunks", std::to_string(lat.n));
  result.Fact("ingest.tail_percentile", std::to_string(static_cast<int>(lat.tail_pct)));
  result.Fact("ingest.wal_medium", ps.last.wal_fs);
  result.Fact("ingest.wal_flush", "group fdatasync before each receipt");
  result.Fact("ingest.wal_bytes_per_user_byte",
              std::to_string(ps.last.wal_bytes_per_user_byte));
  result.Fact("ingest.ecalls_per_record", std::to_string(ps.last.ecalls_per_record));

  if (ctx.trace) {
    Tracer::Get().Enable(true);
    Result traced_checks;
    const PassStats traced = RunPass(ctx, cfg, pass_seconds, traced_checks);
    Tracer::Get().Enable(false);
    if (!traced_checks.correct) result.Fail("traced ingest pass failed its checks");
    const double traced_cpu_us = Median(traced.round_cpu_us);
    result.Layer("trace.overhead_pct", 100.0 * (traced_cpu_us - cpu_us) / cpu_us, "%");
    result.Layer("diag.throughput_per_s", rate, "1/s");
    result.Layer("diag.p50_ms", lat.median, "ms");
    result.Layer("diag.tail_ms", lat.tail, "ms");
    result.Layer("diag.setup_wall_s", setup_wall, "s");
  }
}

}  // namespace perfbench
