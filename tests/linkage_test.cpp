// Linkage substrate tests: fingerprints, the Omega database (exact
// class scan vs a full-sort oracle, class restriction, concurrency,
// hash verification, persistence and blob validation), LLE, and the
// accountability metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "data/packaging.hpp"
#include "linkage/fingerprint.hpp"
#include "linkage/linkage_db.hpp"
#include "linkage/lle.hpp"
#include "linkage/metrics.hpp"
#include "linkage_oracle.hpp"
#include "nn/presets.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/threadpool.hpp"

namespace caltrain::linkage {
namespace {

std::vector<std::vector<float>> RandomPoints(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> points(n, std::vector<float>(dim));
  for (auto& p : points) {
    for (float& x : p) x = rng.Gaussian();
  }
  return points;
}

TEST(FingerprintTest, IsNormalizedAndDeterministic) {
  Rng rng(1);
  nn::Network net = nn::BuildNetwork(nn::Table1Spec(32), rng);
  nn::Image img(nn::Shape{28, 28, 3});
  for (float& p : img.pixels) p = rng.UniformFloat();
  const Fingerprint a = ExtractFingerprint(net, img);
  const Fingerprint b = ExtractFingerprint(net, img);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(L2Norm(a), 1.0, 1e-5);
  EXPECT_EQ(a.size(), 10U);  // Table-1 penultimate = avg pool over classes
}

class LinkageDbTest : public ::testing::Test {
 protected:
  LinkageDbTest() {
    Rng rng(31);
    // Two classes, clustered fingerprints: class 0 near (1,0...), class 1
    // near (0,1,...); a "poisoned" subcluster of class 0 near (0.5, 0.5).
    for (int i = 0; i < 20; ++i) {
      db_.Insert(Jitter({1.0F, 0.0F, 0.0F, 0.0F}, rng), 0, "honest-A",
                 FakeHash(static_cast<std::uint8_t>(i)));
    }
    for (int i = 0; i < 20; ++i) {
      db_.Insert(Jitter({0.0F, 1.0F, 0.0F, 0.0F}, rng), 1, "honest-B",
                 FakeHash(static_cast<std::uint8_t>(100 + i)));
    }
    for (int i = 0; i < 10; ++i) {
      poisoned_ids_.push_back(
          db_.Insert(Jitter({0.5F, 0.5F, 0.5F, 0.0F}, rng), 0, "mallory",
                     FakeHash(static_cast<std::uint8_t>(200 + i))));
    }
  }

  static Fingerprint Jitter(Fingerprint base, Rng& rng) {
    for (float& x : base) x += 0.05F * rng.Gaussian();
    L2NormalizeInPlace(base);
    return base;
  }
  static crypto::Sha256Digest FakeHash(std::uint8_t tag) {
    crypto::Sha256Digest h{};
    h[0] = tag;
    return h;
  }

  LinkageDatabase db_;
  std::vector<std::uint64_t> poisoned_ids_;
};

TEST_F(LinkageDbTest, QueryRestrictedToClass) {
  Fingerprint probe = {0.0F, 1.0F, 0.0F, 0.0F};
  const auto matches = db_.QueryNearest(probe, 1, 5);
  ASSERT_EQ(matches.size(), 5U);
  for (const auto& m : matches) {
    EXPECT_EQ(m.label, 1);
    EXPECT_EQ(m.source, "honest-B");
  }
}

TEST_F(LinkageDbTest, PoisonClusterSurfacesForPoisonProbe) {
  Fingerprint probe = {0.5F, 0.5F, 0.5F, 0.0F};
  L2NormalizeInPlace(probe);
  const auto matches = db_.QueryNearest(probe, 0, 9);
  ASSERT_EQ(matches.size(), 9U);
  std::size_t mallory = 0;
  for (const auto& m : matches) {
    if (m.source == "mallory") ++mallory;
  }
  EXPECT_GE(mallory, 8U);  // the poisoned subcluster dominates
}

TEST_F(LinkageDbTest, QueryMatchesFullSortOracle) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    for (const int label : {0, 1}) {
      EXPECT_TRUE(SameMatches(db_.QueryNearest(probe, label, 6),
                              OracleNearest(db_, probe, label, 6)))
          << "trial " << trial << " label " << label;
    }
  }
}

TEST_F(LinkageDbTest, KLargerThanClassReturnsWholeClass) {
  const LinkageTuple& stored = db_.tuple(25);  // a class-1 tuple
  const auto matches = db_.QueryNearest(stored.fingerprint, 1, 50);
  ASSERT_EQ(matches.size(), 20U);
  EXPECT_EQ(matches[0].id, 25U);  // itself, at distance 0
  EXPECT_EQ(matches[0].distance, 0.0);
  EXPECT_TRUE(
      SameMatches(matches, OracleNearest(db_, stored.fingerprint, 1, 50)));
}

TEST_F(LinkageDbTest, BatchQueryMatchesSerialQueriesElementWise) {
  Rng rng(33);
  std::vector<Fingerprint> queries;
  std::vector<int> labels;
  for (int trial = 0; trial < 40; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    queries.push_back(std::move(probe));
    labels.push_back(trial % 2);
  }

  std::vector<std::vector<QueryMatch>> serial;
  serial.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial.push_back(db_.QueryNearest(queries[i], labels[i], 6));
  }
  for (unsigned threads : {1U, 4U}) {
    util::ScopedThreads guard(threads);
    const auto batch = db_.QueryNearestBatch(queries, labels, 6);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(batch[i].size(), serial[i].size()) << "query " << i;
      for (std::size_t r = 0; r < serial[i].size(); ++r) {
        EXPECT_EQ(batch[i][r].id, serial[i][r].id);
        EXPECT_EQ(batch[i][r].distance, serial[i][r].distance);
        EXPECT_EQ(batch[i][r].source, serial[i][r].source);
      }
    }
  }
}

TEST_F(LinkageDbTest, BatchQueryRejectsMismatchedSizes) {
  EXPECT_THROW((void)db_.QueryNearestBatch({Fingerprint{1, 0, 0, 0}},
                                           {0, 1}, 3),
               Error);
}

TEST_F(LinkageDbTest, DistancesSortedAscending) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  const auto matches = db_.QueryNearest(probe, 0, 10);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance, matches[i].distance);
  }
}

TEST_F(LinkageDbTest, IdsForLabel) {
  EXPECT_EQ(db_.IdsForLabel(0).size(), 30U);
  EXPECT_EQ(db_.IdsForLabel(1).size(), 20U);
  EXPECT_TRUE(db_.IdsForLabel(9).empty());
}

TEST_F(LinkageDbTest, SerializationRoundTrip) {
  const Bytes blob = db_.Serialize();
  LinkageDatabase restored = LinkageDatabase::Deserialize(blob);
  ASSERT_EQ(restored.size(), db_.size());
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_TRUE(SameMatches(restored.QueryNearest(probe, 0, 5),
                          OracleNearest(db_, probe, 0, 5)));
  // The blob format is segment-agnostic: a re-serialized round trip is
  // byte-identical, and queries on either side change nothing.
  (void)restored.QueryNearest(probe, 0, 3);
  (void)db_.QueryNearest(probe, 1, 3);
  EXPECT_EQ(restored.Serialize(), blob);
  EXPECT_EQ(db_.Serialize(), blob);
}

TEST_F(LinkageDbTest, InsertAfterQueryIsVisibleToNextQuery) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  (void)db_.QueryNearest(probe, 0, 3);
  const auto id = db_.Insert({1.0F, 0.0F, 0.0F, 0.0F}, 0, "late",
                             FakeHash(0xFF));
  const auto matches = db_.QueryNearest(probe, 0, 4);
  ASSERT_EQ(matches.size(), 4U);
  EXPECT_EQ(matches[0].id, id);  // exact match must now be nearest
  EXPECT_EQ(matches[0].distance, 0.0);
  EXPECT_TRUE(SameMatches(matches, OracleNearest(db_, probe, 0, 4)));
}

TEST_F(LinkageDbTest, InsertLeavesOtherClassAnswersIntact) {
  Rng rng(34);
  std::vector<Fingerprint> probes;
  std::vector<std::vector<QueryMatch>> before;
  for (int trial = 0; trial < 5; ++trial) {
    Fingerprint probe(4);
    for (float& x : probe) x = rng.Gaussian();
    L2NormalizeInPlace(probe);
    before.push_back(db_.QueryNearest(probe, 0, 6));
    probes.push_back(std::move(probe));
  }
  for (int i = 0; i < 300; ++i) {
    db_.Insert(Jitter({0.0F, 1.0F, 0.0F, 0.0F}, rng), 1, "late-B",
               FakeHash(static_cast<std::uint8_t>(i)));
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(SameMatches(db_.QueryNearest(probes[i], 0, 6), before[i]))
        << "insert into class 1 changed a class-0 answer (probe " << i
        << ")";
    EXPECT_TRUE(SameMatches(db_.QueryNearest(probes[i], 1, 6),
                            OracleNearest(db_, probes[i], 1, 6)));
  }
}

TEST_F(LinkageDbTest, QueryUnknownClassReturnsEmpty) {
  Fingerprint probe = {1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_TRUE(db_.QueryNearest(probe, 9, 5).empty());
  const auto batch = db_.QueryNearestBatch({probe, probe}, {9, 0}, 5);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_TRUE(batch[0].empty());
  EXPECT_EQ(batch[1].size(), 5U);
}

TEST(LinkageDbEdgeTest, EmptyDatabaseAndZeroKReturnEmpty) {
  LinkageDatabase db;
  const Fingerprint probe = {1.0F, 0.0F};
  EXPECT_TRUE(db.QueryNearest(probe, 0, 3).empty());
  const auto batch = db.QueryNearestBatch({probe, probe}, {0, 1}, 3);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_TRUE(batch[0].empty());
  EXPECT_TRUE(batch[1].empty());
  EXPECT_TRUE(db.QueryNearestBatch({}, {}, 3).empty());

  (void)db.Insert({1.0F, 0.0F}, 0, "a", crypto::Sha256Digest{});
  EXPECT_TRUE(db.QueryNearest(probe, 0, 0).empty());
  EXPECT_EQ(db.QueryNearest(probe, 0, 1).size(), 1U);
}

TEST(LinkageDbEdgeTest, TieHeavyDuplicatesMatchOracleElementWise) {
  // Five exact copies of each of eight centers in one class: every
  // query hits 5-way (or, querying a center, zero-distance) ties, so
  // the answer is only well-defined with the (distance, id) tie-break.
  LinkageDatabase db;
  Rng rng(71);
  std::vector<Fingerprint> centers(8, Fingerprint(4));
  for (auto& c : centers) {
    for (float& x : c) x = rng.Gaussian();
  }
  for (int copy = 0; copy < 5; ++copy) {
    for (const auto& c : centers) {
      (void)db.Insert(c, 0, "copy" + std::to_string(copy),
                      crypto::Sha256Digest{});
    }
  }
  for (int trial = 0; trial < 24; ++trial) {
    Fingerprint query;
    if (trial < 8) {
      query = centers[static_cast<std::size_t>(trial)];  // exact dup probe
    } else {
      query.resize(4);
      for (float& x : query) x = rng.Gaussian();
    }
    for (const std::size_t k : {1U, 3U, 10U, 40U}) {
      EXPECT_TRUE(SameMatches(db.QueryNearest(query, 0, k),
                              OracleNearest(db, query, 0, k)))
          << "k " << k << " trial " << trial;
    }
  }
}

TEST_F(LinkageDbTest, DuplicateFingerprintTiesAgreeWithBruteForce) {
  // Exact duplicate fingerprints within one class: the scan must
  // return the same ids as the oracle (the (distance, id) tie-break),
  // at every k straddling the duplicate group.
  Fingerprint dup = {0.6F, 0.8F, 0.0F, 0.0F};
  for (int i = 0; i < 6; ++i) {
    db_.Insert(dup, 0, "dup", FakeHash(static_cast<std::uint8_t>(240 + i)));
  }
  Rng rng(36);
  for (int trial = 0; trial < 8; ++trial) {
    Fingerprint probe = dup;
    if (trial >= 4) {  // also probe from a distance
      for (float& x : probe) x += 0.3F * rng.Gaussian();
      L2NormalizeInPlace(probe);
    }
    for (const std::size_t k : {1U, 3U, 6U, 9U, 40U}) {
      EXPECT_TRUE(SameMatches(db_.QueryNearest(probe, 0, k),
                              OracleNearest(db_, probe, 0, k)))
          << "k " << k << " trial " << trial;
    }
  }
}

std::vector<LinkageRecord> RandomRecords(std::size_t n, int classes,
                                         std::size_t dim,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinkageRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].fingerprint.resize(dim);
    for (float& x : records[i].fingerprint) x = rng.Gaussian();
    L2NormalizeInPlace(records[i].fingerprint);
    records[i].label = static_cast<int>(i) % classes;
    records[i].source = "src" + std::to_string(i % 3);
    records[i].hash[0] = static_cast<std::uint8_t>(i);
  }
  return records;
}

TEST(LinkageDbBatchTest, InsertBatchMatchesSerialInsertsAtEveryThreadCount) {
  const auto records = RandomRecords(200, 5, 6, 81);

  // Serial reference: one Insert per record, queried serially.
  LinkageDatabase reference;
  for (const LinkageRecord& r : records) {
    (void)reference.Insert(r.fingerprint, r.label, r.source, r.hash);
  }
  const Bytes reference_blob = reference.Serialize();
  const auto probes = RandomRecords(40, 5, 6, 82);
  std::vector<std::vector<QueryMatch>> reference_answers;
  for (const LinkageRecord& p : probes) {
    reference_answers.push_back(reference.QueryNearest(p.fingerprint,
                                                       p.label, 7));
    EXPECT_TRUE(SameMatches(reference_answers.back(),
                            OracleNearest(reference, p.fingerprint, p.label,
                                          7)));
  }

  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    LinkageDatabase db;
    const auto ids = db.InsertBatch(records);
    ASSERT_EQ(ids.size(), records.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], i) << "ids must be insertion-order stable";
    }
    EXPECT_EQ(db.Serialize(), reference_blob)
        << "InsertBatch diverged from serial inserts at threads=" << threads;

    std::vector<Fingerprint> queries;
    std::vector<int> labels;
    for (const LinkageRecord& p : probes) {
      queries.push_back(p.fingerprint);
      labels.push_back(p.label);
    }
    const auto batch = db.QueryNearestBatch(queries, labels, 7);
    ASSERT_EQ(batch.size(), reference_answers.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].size(), reference_answers[i].size())
          << "query " << i << " threads " << threads;
      for (std::size_t r = 0; r < batch[i].size(); ++r) {
        EXPECT_EQ(batch[i][r].id, reference_answers[i][r].id)
            << "query " << i << " rank " << r << " threads " << threads;
        EXPECT_EQ(batch[i][r].distance, reference_answers[i][r].distance);
        EXPECT_EQ(batch[i][r].source, reference_answers[i][r].source);
      }
    }
  }
}

TEST(LinkageDbBatchTest, InterleavedInsertQueryMatchesSerialReference) {
  // Rounds of InsertBatch + QueryNearestBatch (the sharded parallel
  // path) must be element-wise identical to a serial Insert/QueryNearest
  // sequence — and to the oracle — at every thread count.
  constexpr int kRounds = 4;
  std::vector<std::vector<LinkageRecord>> chunks;
  std::vector<std::vector<LinkageRecord>> probes;
  for (int round = 0; round < kRounds; ++round) {
    chunks.push_back(RandomRecords(60, 4, 6,
                                   91 + static_cast<std::uint64_t>(round)));
    probes.push_back(RandomRecords(20, 4, 6,
                                   95 + static_cast<std::uint64_t>(round)));
  }

  LinkageDatabase reference;
  std::vector<std::vector<std::vector<QueryMatch>>> reference_rounds;
  for (int round = 0; round < kRounds; ++round) {
    for (const LinkageRecord& r : chunks[static_cast<std::size_t>(round)]) {
      (void)reference.Insert(r.fingerprint, r.label, r.source, r.hash);
    }
    std::vector<std::vector<QueryMatch>> answers;
    for (const LinkageRecord& p : probes[static_cast<std::size_t>(round)]) {
      answers.push_back(reference.QueryNearest(p.fingerprint, p.label, 5));
      EXPECT_TRUE(SameMatches(
          answers.back(), OracleNearest(reference, p.fingerprint, p.label, 5)))
          << "round " << round;
    }
    reference_rounds.push_back(std::move(answers));
  }
  const Bytes reference_blob = reference.Serialize();

  for (const unsigned threads : {1U, 2U, 3U, 8U}) {
    util::ScopedThreads guard(threads);
    LinkageDatabase db;
    for (int round = 0; round < kRounds; ++round) {
      (void)db.InsertBatch(chunks[static_cast<std::size_t>(round)]);
      std::vector<Fingerprint> queries;
      std::vector<int> labels;
      for (const LinkageRecord& p : probes[static_cast<std::size_t>(round)]) {
        queries.push_back(p.fingerprint);
        labels.push_back(p.label);
      }
      const auto batch = db.QueryNearestBatch(queries, labels, 5);
      const auto& expected =
          reference_rounds[static_cast<std::size_t>(round)];
      ASSERT_EQ(batch.size(), expected.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch[i].size(), expected[i].size())
            << "round " << round << " query " << i << " threads " << threads;
        for (std::size_t r = 0; r < batch[i].size(); ++r) {
          EXPECT_EQ(batch[i][r].id, expected[i][r].id)
              << "round " << round << " query " << i << " rank " << r
              << " threads " << threads;
          EXPECT_EQ(batch[i][r].distance, expected[i][r].distance);
        }
      }
    }
    EXPECT_EQ(db.Serialize(), reference_blob);
  }
}

TEST(LinkageDbBatchTest, ConcurrentInsertAndQueryOnDisjointClasses) {
  // An external writer thread batch-inserting into class 1 while the
  // main thread batch-queries class 0: class-0 answers must stay
  // identical to the pre-insert reference (segment isolation), and the
  // class-1 segment must end up complete and oracle-consistent.
  LinkageDatabase db;
  const auto base = RandomRecords(120, 1, 6, 101);  // all class 0
  (void)db.InsertBatch(base);

  const auto probes = RandomRecords(32, 1, 6, 102);
  std::vector<Fingerprint> queries;
  std::vector<int> labels;
  for (const LinkageRecord& p : probes) {
    queries.push_back(p.fingerprint);
    labels.push_back(0);
  }
  const auto reference = db.QueryNearestBatch(queries, labels, 7);

  auto writer_records = RandomRecords(400, 1, 6, 103);
  for (LinkageRecord& r : writer_records) r.label = 1;
  std::thread writer([&] {
    for (std::size_t first = 0; first < writer_records.size(); first += 50) {
      std::vector<LinkageRecord> chunk(
          writer_records.begin() + static_cast<std::ptrdiff_t>(first),
          writer_records.begin() + static_cast<std::ptrdiff_t>(first + 50));
      (void)db.InsertBatch(std::move(chunk));
    }
  });
  for (int round = 0; round < 20; ++round) {
    const auto answers = db.QueryNearestBatch(queries, labels, 7);
    ASSERT_EQ(answers.size(), reference.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_EQ(answers[i].size(), reference[i].size()) << "round " << round;
      for (std::size_t r = 0; r < answers[i].size(); ++r) {
        EXPECT_EQ(answers[i][r].id, reference[i][r].id)
            << "concurrent class-1 inserts disturbed class-0 results";
        EXPECT_EQ(answers[i][r].distance, reference[i][r].distance);
      }
    }
  }
  writer.join();

  ASSERT_EQ(db.size(), base.size() + writer_records.size());
  ASSERT_EQ(db.IdsForLabel(1).size(), writer_records.size());
  Rng rng(104);
  Fingerprint probe(6);
  for (float& x : probe) x = rng.Gaussian();
  EXPECT_TRUE(SameMatches(db.QueryNearest(probe, 1, 9),
                          OracleNearest(db, probe, 1, 9)));
}

TEST(LinkageDbBatchTest, ConcurrentInsertAndQueryOnSameClass) {
  // A writer batch-inserting into class 0 while the main thread
  // queries class 0 (the scan holds the segment lock the appends
  // take).  Every answer must be the oracle over some id-ordered
  // prefix of the class.  An answer of k matches that is the top k of
  // some prefix is also the top k of the shortest prefix containing
  // it (ids <= its largest id), so one oracle call per answer checks
  // it once the writer is done.
  constexpr std::size_t kK = 7;
  LinkageDatabase db;
  (void)db.InsertBatch(RandomRecords(60, 1, 6, 121));  // all class 0
  const auto writer_records = RandomRecords(400, 1, 6, 122);
  const auto probes = RandomRecords(16, 1, 6, 123);
  std::vector<Fingerprint> queries;
  for (const LinkageRecord& p : probes) queries.push_back(p.fingerprint);
  const std::vector<int> labels(queries.size(), 0);

  std::thread writer([&] {
    for (std::size_t first = 0; first < writer_records.size(); first += 40) {
      std::vector<LinkageRecord> chunk(
          writer_records.begin() + static_cast<std::ptrdiff_t>(first),
          writer_records.begin() + static_cast<std::ptrdiff_t>(first + 40));
      (void)db.InsertBatch(std::move(chunk));
    }
  });
  std::vector<std::pair<std::size_t, std::vector<QueryMatch>>> seen;
  for (int round = 0; round < 16; ++round) {
    const auto batch = db.QueryNearestBatch(queries, labels, kK);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      seen.emplace_back(i, batch[i]);
    }
    const std::size_t i = static_cast<std::size_t>(round) % queries.size();
    seen.emplace_back(i, db.QueryNearest(queries[i], 0, kK));
  }
  writer.join();

  ASSERT_EQ(db.size(), 60U + writer_records.size());
  for (const auto& [i, answer] : seen) {
    ASSERT_EQ(answer.size(), kK);
    std::uint64_t prefix = 0;
    for (const QueryMatch& m : answer) prefix = std::max(prefix, m.id + 1);
    EXPECT_TRUE(
        SameMatches(answer, OracleNearest(db, queries[i], 0, kK, prefix)))
        << "probe " << i << " prefix " << prefix;
  }
}

TEST(LinkageDbValidationTest, NegativeLabelRejected) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  EXPECT_THROW((void)db.Insert({1.0F, 0.0F}, -1, "x", h), Error);
  std::vector<LinkageRecord> records(2);
  records[0].fingerprint = {1.0F, 0.0F};
  records[0].label = 3;
  records[1].fingerprint = {0.0F, 1.0F};
  records[1].label = -7;
  EXPECT_THROW((void)db.InsertBatch(std::move(records)), Error);
  EXPECT_EQ(db.size(), 0U) << "a rejected batch must insert nothing";
}

TEST(LinkageDbValidationTest, MixedDimensionRejected) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  (void)db.Insert({1.0F, 0.0F}, 0, "x", h);
  EXPECT_THROW((void)db.Insert({1.0F, 0.0F, 0.0F}, 0, "x", h), Error);
  EXPECT_THROW((void)db.Insert({1.0F}, 1, "x", h), Error);
  std::vector<LinkageRecord> records(2);
  records[0].fingerprint = {0.0F, 1.0F};
  records[1].fingerprint = {0.0F, 1.0F, 0.0F};
  EXPECT_THROW((void)db.InsertBatch(std::move(records)), Error);
  EXPECT_EQ(db.size(), 1U) << "a rejected batch must insert nothing";

  // The first record of a batch fixes an empty database's dimension.
  LinkageDatabase fresh;
  std::vector<LinkageRecord> mixed(2);
  mixed[0].fingerprint = {1.0F, 0.0F, 0.0F};
  mixed[1].fingerprint = {1.0F, 0.0F};
  EXPECT_THROW((void)fresh.InsertBatch(std::move(mixed)), Error);
  EXPECT_EQ(fresh.size(), 0U);
  (void)fresh.Insert({1.0F, 0.0F}, 0, "x", h);  // still unfixed
  EXPECT_EQ(fresh.size(), 1U);
}

// Appends one tuple in the blob encoding of LinkageDatabase::Serialize.
void WriteTuple(ByteWriter& writer, const Fingerprint& fingerprint,
                std::uint32_t label) {
  writer.WriteF32Vector(fingerprint);
  writer.WriteU32(label);
  writer.WriteString("src");
  const crypto::Sha256Digest hash{};
  writer.WriteBytes(BytesView(hash.data(), hash.size()));
}

TEST(LinkageDbSerializeTest, MixedDimensionBlobRejected) {
  ByteWriter writer;
  writer.WriteU64(2);
  WriteTuple(writer, {1.0F, 0.0F}, 0);
  WriteTuple(writer, {1.0F, 0.0F, 0.0F}, 1);
  try {
    (void)LinkageDatabase::Deserialize(writer.data());
    FAIL() << "a mixed-dimension blob must not deserialize";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("dimension"), std::string::npos)
        << e.what();
  }
}

TEST(LinkageDbSerializeTest, HugeCountWithoutBodyIsTypedError) {
  // A tuple count no bytes back must fail as corruption, not size an
  // allocation (bad_alloc / length_error) before the first read.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 60,
        std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter writer;
    writer.WriteU64(count);
    WriteTuple(writer, {1.0F, 0.0F}, 0);
    EXPECT_THROW((void)LinkageDatabase::Deserialize(writer.data()), Error)
        << "count " << count;
  }
}

TEST(LinkageDbSerializeTest, SeededMutationsThrowOrRoundTripExactly) {
  // Bit flips, truncations and count/length overwrites of a small
  // database's blob: each mutant either throws caltrain::Error or
  // deserializes to a database that re-serializes to the same bytes.
  // Any other exception (bad_alloc, length_error) fails the test.
  LinkageDatabase db;
  (void)db.InsertBatch(RandomRecords(12, 3, 4, 111));
  const Bytes blob = db.Serialize();
  Rng rng(112);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Bytes mutant = blob;
    const auto overwrite = [&](std::size_t offset, std::uint64_t value,
                               std::size_t width) {
      for (std::size_t b = 0; b < width && offset + b < mutant.size(); ++b) {
        mutant[offset + b] = static_cast<std::uint8_t>(value >> (8 * b));
      }
    };
    const std::uint64_t huge[] = {0xffffffffULL, 1ULL << 31, 1ULL << 40,
                                  rng.NextU64()};
    switch (trial % 4) {
      case 0:  // 1-3 bit flips
        for (int f = rng.UniformInt(1, 3); f > 0; --f) {
          const std::size_t bit = rng.UniformU64(mutant.size() * 8);
          mutant[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
        }
        break;
      case 1:  // truncation
        mutant.resize(rng.UniformU64(mutant.size()));
        break;
      case 2:  // tuple count
        overwrite(0,
                  rng.Bernoulli(0.5F) ? rng.UniformU64(24)
                                      : huge[rng.UniformU64(4)],
                  8);
        break;
      default:  // a u32 anywhere: length prefixes, labels, floats
        overwrite(8 + rng.UniformU64(mutant.size() - 8),
                  rng.Bernoulli(0.5F) ? rng.UniformU64(64)
                                      : huge[rng.UniformU64(4)],
                  4);
        break;
    }
    try {
      const LinkageDatabase restored = LinkageDatabase::Deserialize(mutant);
      EXPECT_EQ(restored.Serialize(), mutant) << "trial " << trial;
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0U);
  EXPECT_GT(rejected, 0U);
}

TEST(LinkageDbValidationTest, LargeLabelSerializationRoundTrip) {
  LinkageDatabase db;
  crypto::Sha256Digest h{};
  h[0] = 0xAB;
  const auto id = db.Insert({0.5F, 0.5F}, 1000000, "big", h);
  const Bytes blob = db.Serialize();
  LinkageDatabase restored = LinkageDatabase::Deserialize(blob);
  ASSERT_EQ(restored.size(), 1U);
  EXPECT_EQ(restored.tuple(id).label, 1000000);
  EXPECT_EQ(restored.tuple(id).source, "big");
  EXPECT_EQ(restored.Serialize(), blob);
}

TEST(LinkageHashTest, VerifySubmission) {
  LinkageDatabase db;
  nn::Image img(nn::Shape{4, 4, 3});
  Rng rng(41);
  for (float& p : img.pixels) p = rng.UniformFloat();
  const auto hash = data::HashTrainingInstance(img, 2);
  const auto id = db.Insert({1.0F, 0.0F}, 2, "alice", hash);

  EXPECT_TRUE(db.VerifySubmission(id, img, 2));
  EXPECT_FALSE(db.VerifySubmission(id, img, 3));  // wrong label
  nn::Image tampered = img;
  tampered.pixels[0] += 0.5F;
  EXPECT_FALSE(db.VerifySubmission(id, tampered, 2));  // different data
}

TEST(SolveLinearSystemTest, KnownSolution) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3
  const auto x = SolveLinearSystem({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystemTest, SingularThrows) {
  EXPECT_THROW((void)SolveLinearSystem({1, 1, 1, 1}, {1, 2}, 2), Error);
}

TEST(JacobiTest, DiagonalMatrix) {
  const auto result = JacobiEigenSymmetric({3, 0, 0, 1}, 2);
  EXPECT_NEAR(result.values[0], 1.0, 1e-9);
  EXPECT_NEAR(result.values[1], 3.0, 1e-9);
}

TEST(JacobiTest, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto result = JacobiEigenSymmetric({2, 1, 1, 2}, 2);
  EXPECT_NEAR(result.values[0], 1.0, 1e-9);
  EXPECT_NEAR(result.values[1], 3.0, 1e-9);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(result.vectors[1][0]), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(JacobiTest, ReconstructsMatrix) {
  // A = V diag(lambda) V^T must reproduce the input.
  Rng rng(51);
  constexpr std::size_t n = 6;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a[i * n + j] = a[j * n + i] = rng.Gaussian();
    }
  }
  const auto result = JacobiEigenSymmetric(a, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += result.vectors[k][i] * result.values[k] * result.vectors[k][j];
      }
      EXPECT_NEAR(acc, a[i * n + j], 1e-7);
    }
  }
}

TEST(LleTest, SeparatesTwoClusters) {
  // Two well-separated Gaussian blobs in 10-D must remain separated in
  // the 2-D embedding.
  Rng rng(61);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 30; ++i) {
    std::vector<float> p(10, 0.0F);
    for (float& x : p) x = 0.1F * rng.Gaussian();
    p[0] += (i < 15) ? 0.0F : 5.0F;
    points.push_back(std::move(p));
  }
  LleOptions options;
  options.neighbors = 5;
  const auto coords = LocallyLinearEmbedding(points, options);
  ASSERT_EQ(coords.size(), 30U);

  // Nearest-centroid assignment in the embedded space must recover the
  // cluster membership (the property Fig. 7 relies on).
  std::vector<double> c0(2, 0.0), c1(2, 0.0);
  for (int i = 0; i < 15; ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      c0[d] += coords[static_cast<std::size_t>(i)][d] / 15.0;
      c1[d] += coords[static_cast<std::size_t>(i + 15)][d] / 15.0;
    }
  }
  int correct = 0;
  for (int i = 0; i < 30; ++i) {
    const auto& p = coords[static_cast<std::size_t>(i)];
    const double d0 = std::hypot(p[0] - c0[0], p[1] - c0[1]);
    const double d1 = std::hypot(p[0] - c1[0], p[1] - c1[1]);
    const bool assigned_to_first = d0 < d1;
    if (assigned_to_first == (i < 15)) ++correct;
  }
  EXPECT_GE(correct, 27) << "clusters not recoverable from the embedding";
}

TEST(LleTest, RejectsTooFewPoints) {
  const auto points = RandomPoints(5, 3, 62);
  LleOptions options;
  options.neighbors = 5;
  EXPECT_THROW((void)LocallyLinearEmbedding(points, options), Error);
}

TEST(MetricsTest, PerfectDetection) {
  ProvenanceMap tags;
  tags[0] = ProvenanceTag::kPoisoned;
  tags[1] = ProvenanceTag::kPoisoned;
  std::vector<std::vector<QueryMatch>> probes(2);
  probes[0] = {{0, 0.1, 0, "mallory"}, {1, 0.2, 0, "mallory"}};
  probes[1] = {{1, 0.1, 0, "mallory"}};
  const auto eval = EvaluateAccountability(probes, tags, "mallory");
  EXPECT_DOUBLE_EQ(eval.precision_bad, 1.0);
  EXPECT_DOUBLE_EQ(eval.recall_poisoned, 1.0);
  EXPECT_DOUBLE_EQ(eval.source_attribution, 1.0);
}

TEST(MetricsTest, MixedDetection) {
  ProvenanceMap tags;
  tags[0] = ProvenanceTag::kPoisoned;
  tags[1] = ProvenanceTag::kMislabeled;
  // ids 2, 3 absent from the map -> normal.
  std::vector<std::vector<QueryMatch>> probes(2);
  probes[0] = {{0, 0.1, 0, "mallory"}, {2, 0.2, 0, "honest"}};
  probes[1] = {{3, 0.1, 0, "honest"}, {1, 0.2, 0, "honest"}};
  const auto eval = EvaluateAccountability(probes, tags, "mallory");
  EXPECT_DOUBLE_EQ(eval.precision_bad, 0.5);       // 2 bad of 4 retrieved
  EXPECT_DOUBLE_EQ(eval.recall_poisoned, 0.5);     // probe 0 only
  EXPECT_DOUBLE_EQ(eval.source_attribution, 0.0);  // never majority
}

TEST(MetricsTest, EmptyProbes) {
  const auto eval = EvaluateAccountability({}, {}, "x");
  EXPECT_EQ(eval.probes, 0U);
  EXPECT_DOUBLE_EQ(eval.precision_bad, 0.0);
}

}  // namespace
}  // namespace caltrain::linkage
