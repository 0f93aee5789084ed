// Test oracle for LinkageDatabase queries: every tuple of the class,
// fully sorted by (distance, id).  Deliberately independent of the
// production top-k (a partial sort over segment positions), so the
// two only agree if the scan is exact and tie-breaks on id.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "linkage/linkage_db.hpp"

namespace caltrain::linkage {

/// The k nearest tuples of class `label` among ids < `id_limit`.
inline std::vector<QueryMatch> OracleNearest(
    const LinkageDatabase& db, const Fingerprint& query, int label,
    std::size_t k,
    std::uint64_t id_limit = std::numeric_limits<std::uint64_t>::max()) {
  std::vector<QueryMatch> all;
  for (const std::uint64_t id : db.IdsForLabel(label)) {
    if (id >= id_limit) continue;
    const LinkageTuple& t = db.tuple(id);
    all.push_back(QueryMatch{t.id, FingerprintDistance(t.fingerprint, query),
                             t.label, t.source});
  }
  std::sort(all.begin(), all.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Element-wise equality of two answers: ids, bit-equal distances,
/// labels and sources.
inline ::testing::AssertionResult SameMatches(
    const std::vector<QueryMatch>& got, const std::vector<QueryMatch>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " matches, expected " << want.size();
  }
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (got[r].id != want[r].id || got[r].distance != want[r].distance ||
        got[r].label != want[r].label || got[r].source != want[r].source) {
      return ::testing::AssertionFailure()
             << "rank " << r << ": id " << got[r].id << " at "
             << got[r].distance << ", expected id " << want[r].id << " at "
             << want[r].distance;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace caltrain::linkage
