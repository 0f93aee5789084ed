#include "linkage/linkage_db.hpp"

#include <algorithm>
#include <utility>

#include "data/packaging.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/threadpool.hpp"

namespace caltrain::linkage {

namespace {

/// `dim` is the database's fingerprint dimension (0 while empty).
void ValidateRecord(const Fingerprint& fingerprint, int label,
                    std::size_t dim) {
  CALTRAIN_REQUIRE(!fingerprint.empty(), "empty fingerprint");
  // Distances between fingerprints of different lengths are undefined;
  // reject them at the door instead of at the first query.
  CALTRAIN_REQUIRE(dim == 0 || fingerprint.size() == dim,
                   "inconsistent fingerprint dimensions");
  // The serialized form stores Y as uint32; reject out-of-range labels
  // at the door instead of corrupting them at Serialize time.
  CALTRAIN_REQUIRE(label >= 0, "negative class label");
}

}  // namespace

LinkageDatabase::LinkageDatabase(LinkageDatabase&& other) noexcept
    : segments_(std::move(other.segments_)),
      locator_(std::move(other.locator_)),
      dim_(other.dim_) {}

LinkageDatabase& LinkageDatabase::operator=(LinkageDatabase&& other) noexcept {
  if (this == &other) return *this;
  // Moves require external exclusivity over both objects (as for any
  // std container); the locks below turn a violation of that contract
  // into a wait instead of a race, and satisfy the guarded-member
  // annotations.  Fixed source-then-destination order — concurrent
  // cross-assignments of the same pair are outside the contract.
  util::MutexLock other_lock(other.directory_mu_);
  util::MutexLock this_lock(directory_mu_);
  segments_ = std::move(other.segments_);
  locator_ = std::move(other.locator_);
  dim_ = other.dim_;
  return *this;
}

std::uint64_t LinkageDatabase::Insert(Fingerprint fingerprint, int label,
                                      std::string source,
                                      const crypto::Sha256Digest& hash) {
  Segment* segment = nullptr;
  std::uint64_t id = 0;
  std::size_t pos = 0;
  {
    util::MutexLock lock(directory_mu_);
    ValidateRecord(fingerprint, label, dim_);
    dim_ = fingerprint.size();
    id = locator_.size();
    segment = EnsureSegmentLocked(label);
    pos = segment->reserved++;
    locator_.push_back(Location{segment, pos});
  }
  {
    util::MutexLock lock(segment->mu);
    // Waits only when a concurrent InsertBatch reserved an earlier,
    // still-unlanded slot in this segment; uncontended inserts append
    // immediately.
    while (segment->tuples.size() != pos) segment->appended.Wait(lock);
    LinkageTuple tuple;
    tuple.id = id;
    tuple.fingerprint = std::move(fingerprint);
    tuple.label = label;
    tuple.source = std::move(source);
    tuple.hash = hash;
    segment->tuples.push_back(std::move(tuple));
  }
  segment->appended.NotifyAll();
  return id;
}

std::vector<std::uint64_t> LinkageDatabase::InsertBatch(
    std::vector<LinkageRecord> records) {
  const std::size_t n = records.size();
  std::vector<std::uint64_t> ids(n);
  if (n == 0) return ids;

  // Phase 1 (serial, under the directory lock): assign ids and segment
  // slots in input order.  This fixes every tuple's id and position
  // before any parallel work, so the database contents are identical
  // to a serial Insert loop at any thread count.
  struct Group {
    Segment* segment = nullptr;
    std::size_t first_pos = 0;           ///< reserved slot of items[0]
    std::vector<std::size_t> items;      ///< record indices, ascending
  };
  std::vector<Group> groups;
  {
    util::MutexLock lock(directory_mu_);
    // Validate the whole batch before reserving anything: a rejected
    // batch inserts nothing.
    const std::size_t dim = dim_ != 0 ? dim_ : records[0].fingerprint.size();
    for (const LinkageRecord& r : records) {
      ValidateRecord(r.fingerprint, r.label, dim);
    }
    dim_ = dim;
    const std::uint64_t base = locator_.size();
    std::unordered_map<int, std::size_t> group_of;
    locator_.reserve(locator_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      Segment* segment = EnsureSegmentLocked(records[i].label);
      const auto [it, fresh] =
          group_of.try_emplace(records[i].label, groups.size());
      if (fresh) groups.push_back(Group{segment, segment->reserved, {}});
      groups[it->second].items.push_back(i);
      locator_.push_back(Location{segment, segment->reserved++});
      ids[i] = base + static_cast<std::uint64_t>(i);
    }
  }

  // Phase 2: append each class's tuples under its own segment lock —
  // distinct classes proceed concurrently.  Appends land in
  // reservation order, keeping every segment in ascending-id order: a
  // group whose segment still misses an *earlier* reservation (only
  // possible with a concurrent InsertBatch from another thread) is
  // deferred and retried on the calling thread below, so pool workers
  // never block on another call's progress.
  const auto append_group = [&](const Group& group) {
    Segment& seg = *group.segment;
    // Callers hold seg.mu; restate it for the analysis (capabilities do
    // not propagate into lambda bodies).
    seg.mu.AssertHeld();
    for (const std::size_t i : group.items) {
      LinkageTuple tuple;
      tuple.id = ids[i];
      tuple.fingerprint = std::move(records[i].fingerprint);
      tuple.label = records[i].label;
      tuple.source = std::move(records[i].source);
      tuple.hash = records[i].hash;
      seg.tuples.push_back(std::move(tuple));
    }
  };
  std::vector<std::uint8_t> done(groups.size(), 0);
  util::ParallelFor(0, groups.size(), [&](std::size_t g) {
    Segment& seg = *groups[g].segment;
    util::MutexLock lock(seg.mu);
    if (seg.tuples.size() != groups[g].first_pos) return;  // deferred
    append_group(groups[g]);
    lock.Unlock();
    seg.appended.NotifyAll();
    done[g] = 1;
  });
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (done[g] != 0) continue;
    Segment& seg = *groups[g].segment;
    util::MutexLock lock(seg.mu);
    while (seg.tuples.size() != groups[g].first_pos) seg.appended.Wait(lock);
    append_group(groups[g]);
    lock.Unlock();
    seg.appended.NotifyAll();
  }
  return ids;
}

std::size_t LinkageDatabase::size() const {
  util::MutexLock lock(directory_mu_);
  return locator_.size();
}

const LinkageTuple& LinkageDatabase::tuple(std::uint64_t id) const {
  Location loc;
  {
    util::MutexLock lock(directory_mu_);
    CALTRAIN_REQUIRE(id < locator_.size(), "unknown linkage tuple id");
    loc = locator_[id];
  }
  util::MutexLock lock(loc.segment->mu);
  CALTRAIN_REQUIRE(loc.pos < loc.segment->tuples.size(),
                   "linkage tuple not yet visible");
  // Deque references stay valid across appends, and tuples are never
  // mutated after insertion, so the reference outlives the lock.
  return loc.segment->tuples[loc.pos];
}

LinkageDatabase::Segment* LinkageDatabase::EnsureSegmentLocked(int label) {
  auto it = segments_.find(label);
  if (it == segments_.end()) {
    it = segments_.emplace(label, std::make_unique<Segment>()).first;
  }
  return it->second.get();
}

LinkageDatabase::Segment* LinkageDatabase::FindSegment(int label) const {
  util::MutexLock lock(directory_mu_);
  const auto it = segments_.find(label);
  return it == segments_.end() ? nullptr : it->second.get();
}

std::vector<QueryMatch> LinkageDatabase::QueryNearest(const Fingerprint& query,
                                                      int label,
                                                      std::size_t k) const {
  Segment* seg = FindSegment(label);
  if (seg == nullptr) return {};
  util::MutexLock lock(seg->mu);
  std::vector<Neighbor> nearest(seg->tuples.size());
  for (std::size_t pos = 0; pos < nearest.size(); ++pos) {
    nearest[pos] =
        Neighbor{pos, FingerprintDistance(seg->tuples[pos].fingerprint, query)};
  }
  // Segment positions ascend with ids, so KeepNearest's (distance,
  // position) order is the database's (distance, id) order.
  KeepNearest(nearest, k);
  std::vector<QueryMatch> matches;
  matches.reserve(nearest.size());
  for (const Neighbor& n : nearest) {
    const LinkageTuple& t = seg->tuples[n.index];
    matches.push_back(QueryMatch{t.id, n.distance, t.label, t.source});
  }
  return matches;
}

std::vector<std::vector<QueryMatch>> LinkageDatabase::QueryNearestBatch(
    const std::vector<Fingerprint>& queries, const std::vector<int>& labels,
    std::size_t k) {
  CALTRAIN_REQUIRE(queries.size() == labels.size(),
                   "batch query/label size mismatch");
  std::vector<std::vector<QueryMatch>> results(queries.size());
  util::ParallelFor(0, queries.size(), [&](std::size_t i) {
    results[i] = QueryNearest(queries[i], labels[i], k);
  });
  return results;
}

bool LinkageDatabase::VerifySubmission(std::uint64_t id,
                                       const nn::Image& image,
                                       int label) const {
  const LinkageTuple& t = tuple(id);
  const crypto::Sha256Digest digest =
      data::HashTrainingInstance(image, label);
  return ConstantTimeEqual(BytesView(digest.data(), digest.size()),
                           BytesView(t.hash.data(), t.hash.size()));
}

std::vector<std::uint64_t> LinkageDatabase::IdsForLabel(int label) const {
  Segment* seg = FindSegment(label);
  if (seg == nullptr) return {};
  util::MutexLock lock(seg->mu);
  std::vector<std::uint64_t> ids;
  ids.reserve(seg->tuples.size());
  for (const LinkageTuple& t : seg->tuples) ids.push_back(t.id);
  return ids;
}

Bytes LinkageDatabase::Serialize() const {
  ByteWriter writer;
  util::MutexLock lock(directory_mu_);
  // Fail cleanly (instead of racing the appenders) if a concurrent
  // insert still has reserved-but-unlanded slots.
  for (const auto& [label, seg] : segments_) {
    util::MutexLock seg_lock(seg->mu);
    CALTRAIN_REQUIRE(seg->tuples.size() == seg->reserved,
                     "Serialize during in-flight insert");
  }
  writer.WriteU64(locator_.size());
  for (const Location& loc : locator_) {
    // Lock the owning segment for the tuple read: the quiescence check
    // above makes contention impossible, but the unlocked read was
    // still a data race on the deque's internals if the check ever
    // raced an appender (caught by the thread-safety annotation pass).
    util::MutexLock seg_lock(loc.segment->mu);
    const LinkageTuple& t = loc.segment->tuples[loc.pos];
    writer.WriteF32Vector(t.fingerprint);
    writer.WriteU32(static_cast<std::uint32_t>(t.label));
    writer.WriteString(t.source);
    writer.WriteBytes(BytesView(t.hash.data(), t.hash.size()));
  }
  return writer.Take();
}

LinkageDatabase LinkageDatabase::Deserialize(BytesView blob) {
  ByteReader reader(blob);
  LinkageDatabase db;
  const std::uint64_t count = reader.ReadU64();
  // No reserve(count): the count is file data; growth stays bounded by
  // the bytes actually present.
  std::vector<LinkageRecord> records;
  for (std::uint64_t i = 0; i < count; ++i) {
    LinkageRecord record;
    record.fingerprint = reader.ReadF32Vector();
    record.label = static_cast<int>(reader.ReadU32());
    record.source = reader.ReadString();
    const Bytes hash = reader.ReadBytes();
    CALTRAIN_REQUIRE(hash.size() == crypto::kSha256DigestSize,
                     "bad hash size in linkage blob");
    std::copy(hash.begin(), hash.end(), record.hash.begin());
    records.push_back(std::move(record));
  }
  CALTRAIN_REQUIRE(reader.AtEnd(), "trailing bytes in linkage blob");
  (void)db.InsertBatch(std::move(records));
  return db;
}

}  // namespace caltrain::linkage
