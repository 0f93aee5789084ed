// Serving-layer tests (ISSUE 5): the typed Result taxonomy, the
// session-based async ingest pipeline with batched enclave transitions,
// the determinism contract between the async and synchronous paths, the
// phase state machine, concurrent upload sessions, and the release
// error paths.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/participant.hpp"
#include "core/query.hpp"
#include "core/server.hpp"
#include "data/packaging.hpp"
#include "data/synthetic_cifar.hpp"
#include "forged_mix.hpp"
#include "nn/presets.hpp"
#include "persist/service_log.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caltrain::serve {
namespace {

data::LabeledDataset TinyCifar(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  data::SyntheticCifar gen;
  return gen.Generate(count, rng);
}

core::PartitionedTrainOptions FastOptions(int epochs = 1) {
  core::PartitionedTrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;
  options.front_layers = 2;
  options.sgd.learning_rate = 0.01F;
  options.augment = false;
  options.seed = 9;
  return options;
}

// ------------------------------------------------------------------ Result

TEST(ServeResultTest, ValueRoundTrip) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_TRUE(static_cast<bool>(r));
}

TEST(ServeResultTest, ErrorRoundTripAndTypedRethrow) {
  Result<int> r(ServeError{ServeErrorKind::kQueueSaturated, "full"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ServeErrorKind::kQueueSaturated);
  try {
    (void)r.value();
    FAIL() << "value() on an error must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCapacity);
  }
}

TEST(ServeResultTest, FromErrorMapsKinds) {
  EXPECT_EQ(FromError(Error(ErrorKind::kAuthFailure, "x")).kind,
            ServeErrorKind::kAuthFailure);
  EXPECT_EQ(FromError(Error(ErrorKind::kInvalidArgument, "x")).kind,
            ServeErrorKind::kInvalidArgument);
  EXPECT_EQ(FromError(Error(ErrorKind::kFailedPrecondition, "x")).kind,
            ServeErrorKind::kWrongPhase);
  EXPECT_EQ(FromError(Error(ErrorKind::kInternal, "x")).kind,
            ServeErrorKind::kInternal);
  // A transient error surviving the boundary means the retry budget is
  // spent.
  EXPECT_EQ(FromError(Error(ErrorKind::kUnavailable, "x")).kind,
            ServeErrorKind::kRetryExhausted);
}

TEST(ServeResultTest, RobustnessKindsHaveNamesAndTypedRethrow) {
  EXPECT_STREQ(ToString(ServeErrorKind::kTimeout), "timeout");
  EXPECT_STREQ(ToString(ServeErrorKind::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(ToString(ServeErrorKind::kDegraded), "degraded");
  EXPECT_STREQ(ToString(ServeErrorKind::kCorruptJournal), "corrupt-journal");
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kTimeout, "t"}).value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnavailable);
  }
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kDegraded, "d"}).value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kFailedPrecondition);
  }
  try {
    (void)Result<int>(ServeError{ServeErrorKind::kCorruptJournal, "c"})
        .value();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
  }
}

// ------------------------------------------------------------------ ingest

TEST(ServiceIngestTest, BatchedTransitionsAmortizeEcalls) {
  const data::LabeledDataset dataset = TinyCifar(64, 31);

  // Synchronous path: one ECALL per record.
  core::TrainingServer sync_server;
  core::Participant sync_alice("alice", dataset, 501);
  sync_alice.Provision(sync_server, sync_server.training_measurement());
  sync_server.training_enclave().ResetTransitions();
  const std::size_t sync_accepted =
      sync_server.UploadRecords(sync_alice.PackRecords());
  const std::uint64_t sync_ecalls =
      sync_server.training_enclave().transitions().ecalls;
  EXPECT_EQ(sync_accepted, 64U);
  EXPECT_EQ(sync_ecalls, 64U);

  // Async path with ingest_batch=16: one TransitionGuard per batch.
  core::TrainingServer async_server;
  core::Participant async_alice("alice", dataset, 501);
  async_alice.Provision(async_server, async_server.training_measurement());
  async_server.training_enclave().ResetTransitions();
  {
    ServiceConfig config;
    config.ingest_batch = 16;
    Service service(async_server, config);
    const Result<SessionId> session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    auto receipt =
        service.SubmitUpload(session.value(), async_alice.PackRecords())
            .get();
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().submitted, 64U);
    EXPECT_EQ(receipt.value().accepted, 64U);
    EXPECT_EQ(receipt.value().rejected, 0U);
  }
  const std::uint64_t async_ecalls =
      async_server.training_enclave().transitions().ecalls;
  EXPECT_EQ(async_ecalls, 4U) << "64 records / batch 16 = 4 transitions";
  EXPECT_EQ(async_server.accepted_records(), sync_accepted);

  // The acceptance bar: >= 4x fewer transitions per uploaded record.
  EXPECT_GE(sync_ecalls, 4 * async_ecalls);
}

TEST(ServiceIngestTest, UnprovisionedParticipantGetsTypedError) {
  core::TrainingServer server;
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("nobody");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().kind,
            ServeErrorKind::kUnprovisionedParticipant);
}

std::vector<Bytes> SerializedRecords(
    const std::vector<data::EncryptedRecord>& records) {
  std::vector<Bytes> out;
  out.reserve(records.size());
  for (const data::EncryptedRecord& record : records) {
    out.push_back(record.Serialize());
  }
  return out;
}

/// Submits through the callback form and returns the result the
/// callback saw, plus whether it fired before SubmitUploadAsync
/// returned.
std::pair<Result<UploadReceipt>, bool> SubmitAsync(
    Service& service, SessionId session,
    std::vector<data::EncryptedRecord>& records) {
  std::promise<Result<UploadReceipt>> promise;
  std::future<Result<UploadReceipt>> future = promise.get_future();
  service.SubmitUploadAsync(session, std::move(records),
                            [&promise](Result<UploadReceipt> result) {
                              promise.set_value(std::move(result));
                            });
  const bool immediate =
      future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  return {future.get(), immediate};
}

TEST(ServiceIngestTest, AsyncSubmitSaturatesAllOrNothing) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 32), 502);
  alice.Provision(server, server.training_measurement());

  ServiceConfig config;
  config.ingest_batch = 1;    // one batch per record
  config.queue_capacity = 4;  // can never hold all 16 at once
  config.ingest_workers = 1;  // one pump, stalled below
  Service service(server, config);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  const std::vector<data::EncryptedRecord> all = alice.PackRecords();
  const auto slice = [&all](std::size_t first, std::size_t count) {
    return std::vector<data::EncryptedRecord>(
        all.begin() + static_cast<std::ptrdiff_t>(first),
        all.begin() + static_cast<std::ptrdiff_t>(first + count));
  };

  // A submission that cannot fit even an empty queue is a client
  // error (split it), not a transient saturation — retrying would
  // never succeed.
  std::vector<data::EncryptedRecord> too_big = all;
  const auto [too_big_result, too_big_immediate] =
      SubmitAsync(service, session.value(), too_big);
  ASSERT_FALSE(too_big_result.ok());
  EXPECT_EQ(too_big_result.error().kind, ServeErrorKind::kInvalidArgument);
  EXPECT_TRUE(too_big_immediate);
  EXPECT_EQ(SerializedRecords(too_big), SerializedRecords(all))
      << "a rejected submission must leave the caller's records intact";

  // Stall the only pump inside the first receipt callback so the queue
  // can be filled deterministically.
  std::promise<void> stalled;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service.SubmitUploadAsync(session.value(), slice(0, 1),
                            [&stalled, released](Result<UploadReceipt>) {
                              stalled.set_value();
                              released.wait();
                            });
  stalled.get_future().wait();
  std::vector<data::EncryptedRecord> fill = slice(1, 4);
  std::promise<Result<UploadReceipt>> fill_promise;
  std::future<Result<UploadReceipt>> fill_receipt = fill_promise.get_future();
  service.SubmitUploadAsync(session.value(), std::move(fill),
                            [&fill_promise](Result<UploadReceipt> result) {
                              fill_promise.set_value(std::move(result));
                            });

  // The queue now holds 4 of 4 batches: the next submission bounces
  // at once, all-or-nothing, with the caller's records untouched.
  // (EXPECT, not ASSERT, until the pump is released: an early return
  // would leave it stalled.)
  std::vector<data::EncryptedRecord> bounced = slice(5, 2);
  const auto [saturated, saturated_immediate] =
      SubmitAsync(service, session.value(), bounced);
  EXPECT_TRUE(!saturated.ok() &&
              saturated.error().kind == ServeErrorKind::kQueueSaturated);
  EXPECT_TRUE(saturated_immediate);
  EXPECT_EQ(SerializedRecords(bounced), SerializedRecords(slice(5, 2)))
      << "a kQueueSaturated rejection must leave the caller's records "
         "byte-equal";
  release.set_value();

  const Result<UploadReceipt> filled = fill_receipt.get();
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(filled.value().accepted, 4U);
  service.DrainIngest();

  // The same records, resubmitted once the queue drained, go through.
  const Result<UploadReceipt> retried =
      SubmitAsync(service, session.value(), bounced).first;
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().accepted, 2U);

  // The bounced submission left no trace in the session tallies.
  const Result<SessionStats> stats =
      service.CloseUploadSession(session.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().submitted, 7U);
  EXPECT_EQ(stats.value().accepted, 7U);
  EXPECT_EQ(server.accepted_records(), 7U);
  EXPECT_EQ(server.rejected_records(), 0U);
}

TEST(ServiceIngestTest, WrongPhaseAndBadSessionAreTypedErrors) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(24, 33), 503);
  alice.Provision(server, server.training_measurement());
  Service service(server);

  // Unknown session id.
  auto bad = service.SubmitUpload(SessionId{999}, alice.PackRecords()).get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, ServeErrorKind::kInvalidArgument);

  // Query before the pipeline reaches the serving phase.
  auto early = service.SubmitInvestigate(TinyCifar(1, 34).images[0], 3).get();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().kind, ServeErrorKind::kWrongPhase);

  // Train, then uploads must be rejected as wrong-phase.
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());
  EXPECT_EQ(service.phase(), Phase::kTrained);
  auto late = service.SubmitUpload(session.value(), alice.PackRecords()).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().kind, ServeErrorKind::kWrongPhase);
  EXPECT_FALSE(service.OpenUploadSession("alice").ok());

  // Fingerprinting twice: second attempt is wrong-phase.
  ASSERT_TRUE(service.SubmitFingerprint().get().ok());
  EXPECT_EQ(service.phase(), Phase::kServing);
  auto again = service.SubmitFingerprint().get();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().kind, ServeErrorKind::kWrongPhase);

  // ReopenIngest only applies to the trained phase.
  EXPECT_FALSE(service.ReopenIngest().ok());
}

TEST(ServiceIngestTest, ConcurrentUploadSessionsCountSafely) {
  // Satellite: TrainingServer ingest counters must be safe under
  // concurrent upload sessions.  Two participants stream valid records
  // while a forger streams garbage, all concurrently, twice over —
  // directly against the server's blocking API and through the async
  // session API.
  const data::LabeledDataset a_data = TinyCifar(48, 35);
  const data::LabeledDataset b_data = TinyCifar(48, 36);

  for (const bool through_service : {false, true}) {
    core::TrainingServer server;
    core::Participant alice("alice", a_data, 504);
    core::Participant bob("bob", b_data, 505);
    alice.Provision(server, server.training_measurement());
    bob.Provision(server, server.training_measurement());

    data::DataPackager forger("alice", Bytes(32, 0x5a), 900,
                              forged_mix::ThrowawaySigningKey(900));
    std::vector<data::EncryptedRecord> forged;
    Rng rng(37);
    data::SyntheticCifar gen;
    for (int i = 0; i < 16; ++i) forged.push_back(forger.Pack(gen.Sample(0, rng), 0));

    ServiceConfig config;
    config.ingest_batch = 4;
    config.queue_capacity = 8;  // force backpressure blocking
    std::optional<Service> service;
    if (through_service) service.emplace(server, config);

    const auto upload = [&](const std::vector<data::EncryptedRecord>& records,
                            const std::string& pid) {
      if (!through_service) {
        // Chunked to interleave with the other sessions.
        for (std::size_t first = 0; first < records.size(); first += 8) {
          const std::size_t last = std::min(records.size(), first + 8);
          (void)server.UploadRecords(std::vector<data::EncryptedRecord>(
              records.begin() + static_cast<std::ptrdiff_t>(first),
              records.begin() + static_cast<std::ptrdiff_t>(last)));
        }
        return;
      }
      const Result<SessionId> session = service->OpenUploadSession(pid);
      ASSERT_TRUE(session.ok());
      std::vector<std::future<Result<UploadReceipt>>> pending;
      for (std::size_t first = 0; first < records.size(); first += 8) {
        const std::size_t last = std::min(records.size(), first + 8);
        pending.push_back(service->SubmitUpload(
            session.value(),
            std::vector<data::EncryptedRecord>(
                records.begin() + static_cast<std::ptrdiff_t>(first),
                records.begin() + static_cast<std::ptrdiff_t>(last))));
      }
      for (auto& f : pending) ASSERT_TRUE(f.get().ok());
      const Result<SessionStats> stats =
          service->CloseUploadSession(session.value());
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().submitted, records.size());
    };

    std::thread ta([&] { upload(alice.PackRecords(), "alice"); });
    std::thread tb([&] { upload(bob.PackRecords(), "bob"); });
    std::thread tf([&] { upload(forged, "alice"); });  // forged source
    ta.join();
    tb.join();
    tf.join();
    if (service.has_value()) service->DrainIngest();

    EXPECT_EQ(server.accepted_records(), 96U)
        << "through_service=" << through_service;
    EXPECT_EQ(server.rejected_records(), 16U)
        << "through_service=" << through_service;
  }
}

// ---------------------------------------------------- authentication path

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "caltrain_serve_XXXXXX";
  CALTRAIN_REQUIRE(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  // Test dirs hold only regular files.
  const int rc = std::system(("rm -rf '" + dir + "'").c_str());
  (void)rc;
}

TEST(ServiceAuthTest, ForgedMixVerdictsMatchOracle) {
  // Seeded forged mixes through the batched, multi-worker ingest at
  // threads 1 and 4: the journal's per-record accept flags equal the
  // per-record oracle and the tallies are exact.  CI reruns this with
  // CALTRAIN_FAULT=serve.auth=eio@N, where a retried transient auth
  // fault must not change any verdict.
  const forged_mix::HeldKeys tess = forged_mix::MakeHeldKeys("tess", 11);
  const forged_mix::HeldKeys tom = forged_mix::MakeHeldKeys("tom", 12);
  for (const unsigned threads : {1U, 4U}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ScopedThreads guard(threads);
    const std::string dir = MakeTempDir();
    core::TrainingServer server;
    ASSERT_TRUE(forged_mix::Provision(server, tess, 13));
    ASSERT_TRUE(forged_mix::Provision(server, tom, 14));

    ServiceConfig config;
    config.ingest_batch = 7;
    config.ingest_workers = threads;
    config.durable_dir = dir;
    config.journal_sync = persist::SyncMode::kNone;
    // Submission order, which is commit order (ticket order).
    std::vector<Bytes> submitted;
    std::vector<char> expected;
    std::vector<std::uint64_t> seed_of;
    std::size_t clean = 0;
    {
      Service service(server, config);
      const Result<SessionId> session = service.OpenUploadSession("tess");
      ASSERT_TRUE(session.ok());
      for (const std::uint64_t seed : forged_mix::Seeds(24)) {
        SCOPED_TRACE(forged_mix::ReplayHint(seed));
        const forged_mix::Mix mix = forged_mix::MakeMix(tess, tom, seed);
        const std::vector<char> oracle =
            forged_mix::CheckedOracle(mix, {&tess, &tom});
        for (std::size_t i = 0; i < mix.records.size(); ++i) {
          submitted.push_back(mix.records[i].Serialize());
          expected.push_back(oracle[i]);
          seed_of.push_back(seed);
        }
        clean += mix.clean();
        // Two submissions in flight per seed, so ingest batches end
        // inside and across them.
        const auto middle = mix.records.begin() +
                            static_cast<std::ptrdiff_t>(seed % 5 + 1);
        auto first = service.SubmitUpload(
            session.value(), {mix.records.begin(), middle});
        auto second = service.SubmitUpload(
            session.value(), {middle, mix.records.end()});
        const auto r1 = first.get();
        const auto r2 = second.get();
        ASSERT_TRUE(r1.ok()) << r1.error().message;
        ASSERT_TRUE(r2.ok()) << r2.error().message;
        EXPECT_EQ(r1.value().accepted + r2.value().accepted, mix.clean());
        EXPECT_EQ(r1.value().rejected + r2.value().rejected,
                  mix.records.size() - mix.clean());
      }
      const Result<SessionStats> stats =
          service.CloseUploadSession(session.value());
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().accepted, clean);
      EXPECT_EQ(stats.value().rejected, submitted.size() - clean);
    }
    EXPECT_EQ(server.accepted_records(), clean);
    EXPECT_EQ(server.rejected_records(), submitted.size() - clean);

    std::vector<Bytes> committed;
    std::vector<char> flags;
    persist::ReplayVisitor visitor;
    visitor.on_commit = [&](persist::CommitBatchEvent event) {
      for (std::size_t i = 0; i < event.records.size(); ++i) {
        committed.push_back(event.records[i].Serialize());
        flags.push_back(event.accepted[i]);
      }
    };
    (void)persist::ServiceLog::Replay(dir, visitor);
    ASSERT_EQ(committed.size(), submitted.size());
    for (std::size_t i = 0; i < committed.size(); ++i) {
      ASSERT_EQ(committed[i], submitted[i]) << "commit order, record " << i;
      EXPECT_EQ(flags[i], expected[i])
          << "record " << i << " of " << forged_mix::ReplayHint(seed_of[i]);
    }
    RemoveTree(dir);
  }
}

// ------------------------------------------------------------- determinism

struct FlowResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  Bytes model_blob;
  std::vector<core::MispredictionReport> reports;
  Bytes assembled_model;
};

void ExpectFlowsEqual(const FlowResult& actual, const FlowResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.accepted, expected.accepted) << label;
  EXPECT_EQ(actual.rejected, expected.rejected) << label;
  EXPECT_EQ(actual.model_blob, expected.model_blob)
      << label << ": trained model must be bit-identical";
  EXPECT_EQ(actual.assembled_model, expected.assembled_model)
      << label << ": released model must be bit-identical";
  ASSERT_EQ(actual.reports.size(), expected.reports.size()) << label;
  for (std::size_t i = 0; i < actual.reports.size(); ++i) {
    EXPECT_EQ(actual.reports[i].predicted_label,
              expected.reports[i].predicted_label)
        << label << " probe " << i;
    EXPECT_EQ(actual.reports[i].fingerprint, expected.reports[i].fingerprint)
        << label << " probe " << i;
    ASSERT_EQ(actual.reports[i].neighbors.size(),
              expected.reports[i].neighbors.size())
        << label << " probe " << i;
    for (std::size_t n = 0; n < actual.reports[i].neighbors.size(); ++n) {
      EXPECT_EQ(actual.reports[i].neighbors[n].id,
                expected.reports[i].neighbors[n].id)
          << label << " probe " << i << " neighbor " << n;
      EXPECT_EQ(actual.reports[i].neighbors[n].distance,
                expected.reports[i].neighbors[n].distance)
          << label << " probe " << i << " neighbor " << n;
    }
  }
}

std::vector<nn::Image> Probes(std::size_t count) {
  std::vector<nn::Image> probes;
  Rng rng(77);
  data::SyntheticCifar gen;
  for (std::size_t i = 0; i < count; ++i) probes.push_back(gen.Sample(0, rng));
  return probes;
}

TEST(ServicePipelineTest, AsyncPathMatchesSyncPathAtEveryThreadCount) {
  // The tentpole determinism contract: the async session pipeline must
  // be result-identical to the blocking phase methods — same
  // accept/reject counts, bit-identical trained model, element-wise
  // identical query results — at threads 1/2/3/8.
  const data::LabeledDataset dataset = TinyCifar(48, 42);
  const std::vector<nn::Image> probes = Probes(5);

  // --- synchronous reference flow (threads=1) ---
  FlowResult sync;
  {
    util::ScopedThreads guard(1);
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    (void)alice.ProvisionAndUpload(server, server.training_measurement());
    Rng rng(43);
    data::SyntheticCifar gen;
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301,
                             forged_mix::ThrowawaySigningKey(301));
    (void)server.UploadRecords({bogus.Pack(gen.Sample(0, rng), 0)});
    (void)server.Train(nn::Table1Spec(32), FastOptions());
    sync.accepted = server.accepted_records();
    sync.rejected = server.rejected_records();
    sync.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());
    linkage::LinkageDatabase db = server.FingerprintAll();
    const auto released = server.ReleaseModelFor("alice");
    sync.assembled_model =
        core::TrainingServer::AssembleReleasedModel(released,
                                                    alice.data_key())
            .SerializeModel();
    core::QueryService query(std::move(server.model()), std::move(db));
    for (const nn::Image& probe : probes) {
      sync.reports.push_back(query.Investigate(probe, 5));
    }
  }

  // --- async flow at several thread counts ---
  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    FlowResult async;
    core::TrainingServer server;
    core::Participant alice("alice", dataset, 211);
    alice.Provision(server, server.training_measurement());

    ServiceConfig config;
    config.ingest_batch = 7;  // remainder batch on 48+1 records
    config.ingest_workers = threads;
    Service service(server, config);

    const Result<SessionId> session = service.OpenUploadSession("alice");
    ASSERT_TRUE(session.ok());
    // Same submission order as the sync flow: alice's corpus, then the
    // forged record.
    auto r1 = service.SubmitUpload(session.value(), alice.PackRecords());
    Rng rng(43);
    data::SyntheticCifar gen;
    data::DataPackager bogus("alice", Bytes(32, 0x5a), 301,
                             forged_mix::ThrowawaySigningKey(301));
    // The forged record must enqueue after alice's corpus to reproduce
    // the sync record order; wait for the first submission.
    ASSERT_TRUE(r1.get().ok());
    auto r2 = service.SubmitUpload(session.value(),
                                   {bogus.Pack(gen.Sample(0, rng), 0)});
    const auto receipt = r2.get();
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt.value().rejected, 1U);

    auto train = service.SubmitTrain(nn::Table1Spec(32), FastOptions());
    auto fingerprint = service.SubmitFingerprint();
    ASSERT_TRUE(train.get().ok()) << "threads " << threads;
    ASSERT_TRUE(fingerprint.get().ok()) << "threads " << threads;

    async.accepted = server.accepted_records();
    async.rejected = server.rejected_records();
    async.model_blob =
        server.model().SerializeWeightRange(0, server.model().NumLayers());

    const auto released = service.SubmitRelease("alice").get();
    ASSERT_TRUE(released.ok());
    Result<nn::Network> assembled =
        Service::AssembleReleased(released.value(), alice.data_key());
    ASSERT_TRUE(assembled.ok());
    async.assembled_model = assembled.value().SerializeModel();

    // Mix the single and batched query planes.
    std::vector<std::future<Result<core::MispredictionReport>>> singles;
    for (const nn::Image& probe : probes) {
      singles.push_back(service.SubmitInvestigate(probe, 5));
    }
    for (auto& f : singles) {
      auto r = f.get();
      ASSERT_TRUE(r.ok());
      async.reports.push_back(std::move(r).value());
    }
    ExpectFlowsEqual(async, sync, "threads " + std::to_string(threads));

    auto batched = service.SubmitInvestigateBatch(probes, 5).get();
    ASSERT_TRUE(batched.ok());
    FlowResult batch_flow = async;
    batch_flow.reports = std::move(batched).value();
    ExpectFlowsEqual(batch_flow, sync,
                     "batched threads " + std::to_string(threads));
  }
}

// ------------------------------------------------------------ release path

TEST(ServeReleaseTest, ReleaseErrorPathsAreTyped) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 51), 506);
  alice.Provision(server, server.training_measurement());
  Service service(server);

  // Release before training: wrong phase.
  auto early = service.SubmitRelease("alice").get();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().kind, ServeErrorKind::kWrongPhase);

  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  // Release for an unprovisioned participant: typed, no throw.
  auto ghost = service.SubmitRelease("ghost").get();
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.error().kind, ServeErrorKind::kUnprovisionedParticipant);

  // Valid release; reassembly with the wrong key is a typed
  // kAuthFailure, not a crash.
  auto released = service.SubmitRelease("alice").get();
  ASSERT_TRUE(released.ok());
  const Result<nn::Network> wrong_key =
      Service::AssembleReleased(released.value(), Bytes(32, 0x00));
  ASSERT_FALSE(wrong_key.ok());
  EXPECT_EQ(wrong_key.error().kind, ServeErrorKind::kAuthFailure);
  const Result<nn::Network> right_key =
      Service::AssembleReleased(released.value(), alice.data_key());
  EXPECT_TRUE(right_key.ok());
}

TEST(ServicePipelineTest, TrainFailureRevertsToIngestPhase) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(8, 52), 507);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  // No records uploaded: Train throws inside the strand; the service
  // maps it to a typed error and reopens ingestion.
  auto train = service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get();
  ASSERT_FALSE(train.ok());
  EXPECT_EQ(train.error().kind, ServeErrorKind::kInvalidArgument);
  EXPECT_EQ(service.phase(), Phase::kIngest);

  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  EXPECT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());
}

TEST(ServicePhaseRaceTest, ReopenVersusFingerprintExactlyOneWins) {
  // The check-and-flip under ingest_mu_ makes ReopenIngest and
  // SubmitFingerprint mutually exclusive from kTrained: whichever
  // loses the race must see kWrongPhase — they can never both succeed,
  // and the machine must never land in a mixed state.
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 55), 510);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  Result<Phase> reopened{ServeError{}};
  Result<std::size_t> fingerprinted{ServeError{}};
  std::thread t1([&] { reopened = service.ReopenIngest(); });
  std::thread t2([&] { fingerprinted = service.SubmitFingerprint().get(); });
  t1.join();
  t2.join();

  EXPECT_NE(reopened.ok(), fingerprinted.ok())
      << "exactly one of the racing transitions may win";
  if (reopened.ok()) {
    EXPECT_EQ(fingerprinted.error().kind, ServeErrorKind::kWrongPhase);
    EXPECT_EQ(service.phase(), Phase::kIngest);
  } else {
    EXPECT_EQ(reopened.error().kind, ServeErrorKind::kWrongPhase);
    EXPECT_EQ(service.phase(), Phase::kServing);
  }
}

TEST(ServicePhaseRaceTest, ReopenVersusTrainNeverWedgesTheMachine) {
  // ReopenIngest racing SubmitTrain from kTrained: train is legal from
  // both kTrained and kIngest, so it must succeed no matter which side
  // wins the flip, reopen must either succeed or fail typed, and the
  // machine must end in a phase uploads or training can proceed from.
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 56), 511);
  alice.Provision(server, server.training_measurement());
  Service service(server);
  const Result<SessionId> session = service.OpenUploadSession("alice");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      service.SubmitUpload(session.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  core::PartitionedTrainOptions resume = FastOptions();
  resume.resume = true;
  for (int round = 0; round < 4; ++round) {
    Result<Phase> reopened{ServeError{}};
    Result<core::TrainReport> trained{ServeError{}};
    std::thread t1([&] { reopened = service.ReopenIngest(); });
    std::thread t2(
        [&] { trained = service.SubmitTrain(nn::Table1Spec(32), resume).get(); });
    t1.join();
    t2.join();
    ASSERT_TRUE(trained.ok()) << "round " << round;
    if (!reopened.ok()) {
      EXPECT_EQ(reopened.error().kind, ServeErrorKind::kWrongPhase)
          << "round " << round;
    }
    const Phase p = service.phase();
    ASSERT_TRUE(p == Phase::kTrained || p == Phase::kIngest)
        << "round " << round << " landed in " << ToString(p);
    if (p == Phase::kIngest) {
      // Reopen landed after training finished; restore kTrained so the
      // next round races from the same starting state.
      ASSERT_TRUE(
          service.SubmitTrain(nn::Table1Spec(32), resume).get().ok());
    }
  }
}

TEST(ServicePipelineTest, ReopenIngestSupportsResumeFlows) {
  core::TrainingServer server;
  core::Participant alice("alice", TinyCifar(16, 53), 508);
  core::Participant bob("bob", TinyCifar(16, 54), 509);
  alice.Provision(server, server.training_measurement());
  bob.Provision(server, server.training_measurement());
  Service service(server);

  const Result<SessionId> s1 = service.OpenUploadSession("alice");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(service.SubmitUpload(s1.value(), alice.PackRecords()).get().ok());
  ASSERT_TRUE(
      service.SubmitTrain(nn::Table1Spec(32), FastOptions()).get().ok());

  // Fine-tune: reopen ingestion, stream bob's data, resume training.
  ASSERT_TRUE(service.ReopenIngest().ok());
  const Result<SessionId> s2 = service.OpenUploadSession("bob");
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(service.SubmitUpload(s2.value(), bob.PackRecords()).get().ok());
  core::PartitionedTrainOptions resume = FastOptions();
  resume.resume = true;
  auto report = service.SubmitTrain(nn::Table1Spec(32), resume).get();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records_trained, 32U);
}

}  // namespace
}  // namespace caltrain::serve
