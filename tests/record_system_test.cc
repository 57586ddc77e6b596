#include <gtest/gtest.h>

#include "common/rng.h"
#include "repl/record_system.h"

namespace optrep::repl {
namespace {

const SiteId A{0}, B{1}, C{2};
const ObjectId kDb{0};

RecordSystem::Config cfg(SemanticPolicy policy = SemanticPolicy::kLastWriterWins) {
  RecordSystem::Config c;
  c.n_sites = 4;
  c.kind = vv::VectorKind::kSrv;
  c.policy = policy;
  c.cost = CostModel{.n = 8, .m = 1 << 16};
  return c;
}

TEST(RecordSystem, PutAndPull) {
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "user:1", "alice");
  sys.put(A, kDb, "user:2", "bob");
  sys.sync(B, A, kDb);
  EXPECT_EQ(sys.replica(B, kDb).records.at("user:1").value, "alice");
  EXPECT_EQ(sys.replica(B, kDb).records.at("user:2").value, "bob");
  EXPECT_TRUE(sys.replicas_consistent(kDb));
}

TEST(RecordSystem, DisjointKeysAreSyntacticOnly) {
  // Concurrent writes to different records: a syntactic conflict the
  // semantic detector dismisses entirely.
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "base", "v");
  sys.sync(B, A, kDb);
  sys.put(A, kDb, "from-a", "1");
  sys.put(B, kDb, "from-b", "2");
  const auto out = sys.sync(B, A, kDb);
  EXPECT_TRUE(out.syntactic_conflict);
  EXPECT_EQ(out.semantic_conflicts, 0u);
  EXPECT_EQ(sys.replica(B, kDb).records.size(), 3u);
  EXPECT_EQ(sys.totals().syntactic_conflicts, 1u);
  EXPECT_EQ(sys.totals().semantic_conflicts, 0u);
}

TEST(RecordSystem, SameKeySameValueIsFiltered) {
  // Concurrent but identical writes: semantically consistent (§2.1:
  // "identical or merely semantically equivalent").
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "base", "v");
  sys.sync(B, A, kDb);
  sys.put(A, kDb, "k", "same");
  sys.put(B, kDb, "k", "same");
  const auto out = sys.sync(B, A, kDb);
  EXPECT_TRUE(out.syntactic_conflict);
  EXPECT_EQ(out.semantic_conflicts, 0u);
  EXPECT_EQ(sys.replica(B, kDb).records.at("k").value, "same");
}

TEST(RecordSystem, SameKeyDifferentValueIsTrueConflict) {
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "base", "v");
  sys.sync(B, A, kDb);
  sys.put(A, kDb, "k", "from-a");
  sys.put(B, kDb, "k", "from-b");
  const auto out = sys.sync(B, A, kDb);
  EXPECT_TRUE(out.syntactic_conflict);
  EXPECT_EQ(out.semantic_conflicts, 1u);
  // LWW: B's write has the larger writer id (site B > site A at equal seq).
  EXPECT_EQ(sys.replica(B, kDb).records.at("k").value, "from-b");
}

TEST(RecordSystem, LastWriterWinsIsSymmetric) {
  // Both directions resolve to the same value → convergence.
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "base", "v");
  sys.sync(B, A, kDb);
  sys.put(A, kDb, "k", "from-a");
  sys.put(B, kDb, "k", "from-b");
  sys.sync(B, A, kDb);
  sys.sync(A, B, kDb);
  EXPECT_TRUE(sys.replicas_consistent(kDb));
  EXPECT_EQ(sys.replica(A, kDb).records.at("k").value, "from-b");
}

TEST(RecordSystem, CausalOverwriteIsNotAConflict) {
  // B reads A's write, then overwrites it; a later sync must recognize the
  // causal order despite the replicas being syntactically concurrent due to
  // unrelated keys.
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "k", "v1");
  sys.sync(B, A, kDb);
  sys.put(B, kDb, "k", "v2");      // causally after A's write
  sys.put(A, kDb, "other", "x");   // makes the replicas concurrent
  const auto out = sys.sync(A, B, kDb);
  EXPECT_TRUE(out.syntactic_conflict);
  EXPECT_EQ(out.semantic_conflicts, 0u);
  EXPECT_EQ(sys.replica(A, kDb).records.at("k").value, "v2");
}

TEST(RecordSystem, FlagPolicyHoldsLocalValue) {
  RecordSystem sys(cfg(SemanticPolicy::kFlag));
  sys.create_object(A, kDb, "base", "v");
  sys.sync(B, A, kDb);
  sys.put(A, kDb, "k", "from-a");
  sys.put(B, kDb, "k", "from-b");
  const auto out = sys.sync(B, A, kDb);
  EXPECT_EQ(out.semantic_conflicts, 1u);
  const RecordCell& cell = sys.replica(B, kDb).records.at("k");
  EXPECT_TRUE(cell.flagged);
  EXPECT_EQ(cell.value, "from-b");  // local value kept for the human
  EXPECT_EQ(sys.totals().flagged_records, 1u);
  // A fresh local write clears the flag.
  sys.put(B, kDb, "k", "repaired");
  EXPECT_FALSE(sys.replica(B, kDb).records.at("k").flagged);
}

TEST(RecordSystem, AppendOnlyLogFiltersAllConflicts) {
  // §4's motivating case: every site appends to its own region of a log —
  // syntactic conflicts abound, none are semantic.
  RecordSystem sys(cfg());
  sys.create_object(A, kDb, "log:A:0", "genesis");
  sys.sync(B, A, kDb);
  sys.sync(C, A, kDb);
  Rng rng(5150);
  int seq[3] = {1, 1, 1};
  for (int step = 0; step < 200; ++step) {
    const auto s = static_cast<std::uint32_t>(rng.below(3));
    const SiteId site{s};
    if (rng.chance(0.6)) {
      sys.put(site, kDb,
              "log:" + site_name(site) + ":" + std::to_string(seq[s]++),
              "entry");
    } else {
      auto p = static_cast<std::uint32_t>(rng.below(3));
      if (p == s) p = (p + 1) % 3;
      sys.sync(site, SiteId{p}, kDb);
    }
  }
  EXPECT_GT(sys.totals().syntactic_conflicts, 10u);
  EXPECT_EQ(sys.totals().semantic_conflicts, 0u);
}

TEST(RecordSystem, RandomMixedWorkloadConvergesUnderLww) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    RecordSystem sys(cfg());
    sys.create_object(A, kDb, "k0", "init");
    sys.sync(B, A, kDb);
    sys.sync(C, A, kDb);
    for (int step = 0; step < 150; ++step) {
      const auto s = static_cast<std::uint32_t>(rng.below(3));
      if (rng.chance(0.5)) {
        // Small key space → plenty of genuine write-write conflicts.
        std::string key = "k";
        key += std::to_string(rng.below(4));
        std::string value = "v";
        value += std::to_string(step);
        sys.put(SiteId{s}, kDb, key, value);
      } else {
        auto p = static_cast<std::uint32_t>(rng.below(3));
        if (p == s) p = (p + 1) % 3;
        sys.sync(SiteId{s}, SiteId{p}, kDb);
      }
    }
    // Anti-entropy sweeps to convergence.
    for (int round = 0; round < 6; ++round) {
      sys.sync(B, A, kDb);
      sys.sync(C, B, kDb);
      sys.sync(A, C, kDb);
      sys.sync(B, C, kDb);
      sys.sync(A, B, kDb);
    }
    EXPECT_TRUE(sys.replicas_consistent(kDb)) << "trial " << trial;
    EXPECT_GT(sys.totals().semantic_conflicts, 0u);
  }
}

}  // namespace
}  // namespace optrep::repl
