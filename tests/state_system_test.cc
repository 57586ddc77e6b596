#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "repl/state_system.h"
#include "rt/thread_pool.h"

namespace optrep::repl {
namespace {

const SiteId A{0}, B{1}, C{2};
const ObjectId kObj{0};

StateSystem::Config auto_cfg(vv::VectorKind kind = vv::VectorKind::kSrv) {
  StateSystem::Config cfg;
  cfg.n_sites = 4;
  cfg.kind = kind;
  cfg.policy = ResolutionPolicy::kAutomatic;
  cfg.cost = CostModel{.n = 8, .m = 1024};
  return cfg;
}

TEST(StateSystem, CreateAndLocalUpdate) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.update(A, kObj, "v2");
  const StateReplica& r = sys.replica(A, kObj);
  EXPECT_EQ(r.vector.value(A), 2u);
  EXPECT_EQ(r.data.entries.size(), 2u);
}

TEST(StateSystem, PullPropagatesState) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kPulled);
  EXPECT_TRUE(sys.replicas_consistent(kObj));
  EXPECT_EQ(sys.replica(B, kObj).data, sys.replica(A, kObj).data);
}

TEST(StateSystem, EqualReplicasExchangeOnlyProbes) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kNone);
  EXPECT_EQ(out.report.total_bits(), vv::compare_cost_bits(sys.config().cost));
}

TEST(StateSystem, DominatingReceiverPullsNothing) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  sys.update(B, kObj, "v2");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kPushedBack);
  EXPECT_EQ(out.report.elems_sent, 0u);
}

TEST(StateSystem, AutomaticReconciliationMergesPayloads) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "base");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "from-A");
  sys.update(B, kObj, "from-B");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.relation, vv::Ordering::kConcurrent);
  EXPECT_EQ(out.action, SyncOutcome::Action::kReconciled);
  const StateReplica& rb = sys.replica(B, kObj);
  EXPECT_TRUE(rb.data.entries.contains("from-A"));
  EXPECT_TRUE(rb.data.entries.contains("from-B"));
  // §2.2 mandated post-reconciliation update: B's element grew by one extra.
  EXPECT_EQ(rb.vector.value(B), 2u);
  EXPECT_EQ(sys.totals().reconciliations, 1u);

  // Push the merged state back: A now simply precedes B.
  auto back = sys.sync(A, B, kObj);
  EXPECT_EQ(back.action, SyncOutcome::Action::kPulled);
  EXPECT_TRUE(sys.replicas_consistent(kObj));
}

TEST(StateSystem, ManualPolicyExcludesConflictingReplicas) {
  auto cfg = auto_cfg(vv::VectorKind::kBrv);
  cfg.policy = ResolutionPolicy::kManual;
  StateSystem sys(cfg);
  sys.create_object(A, kObj, "base");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "from-A");
  sys.update(B, kObj, "from-B");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kConflictHeld);
  EXPECT_TRUE(sys.replica(A, kObj).conflicted);
  EXPECT_TRUE(sys.replica(B, kObj).conflicted);
  // Excluded replicas neither update nor synchronize.
  auto again = sys.sync(C, A, kObj);
  EXPECT_EQ(again.action, SyncOutcome::Action::kSkipped);
  EXPECT_EQ(sys.totals().conflicts_detected, 1u);
}

TEST(StateSystem, BrvRequiresManualPolicy) {
  auto cfg = auto_cfg(vv::VectorKind::kBrv);
  EXPECT_DEATH(StateSystem{cfg}, "BRV supports no conflict reconciliation");
}

TEST(StateSystem, SelfSyncRejected) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  EXPECT_DEATH(sys.sync(A, A, kObj), "cannot synchronize with itself");
}

TEST(StateSystem, SyncFromMissingReplicaSkips) {
  StateSystem sys(auto_cfg());
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kSkipped);
}

TEST(StateSystem, TrafficAccumulatesInTotals) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "v2");
  sys.sync(B, A, kObj);
  EXPECT_EQ(sys.totals().sessions, 2u);
  EXPECT_GT(sys.totals().bits, 0u);
  EXPECT_GT(sys.totals().elems_sent, 0u);
}

TEST(StateSystem, ThreeSiteConvergence) {
  for (auto kind : {vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
    StateSystem sys(auto_cfg(kind));
    sys.create_object(A, kObj, "base");
    sys.sync(B, A, kObj);
    sys.sync(C, A, kObj);
    sys.update(A, kObj, "a1");
    sys.update(B, kObj, "b1");
    sys.update(C, kObj, "c1");
    // Gossip until quiet.
    for (int round = 0; round < 4; ++round) {
      sys.sync(B, A, kObj);
      sys.sync(C, B, kObj);
      sys.sync(A, C, kObj);
    }
    EXPECT_TRUE(sys.replicas_consistent(kObj)) << to_string(kind);
    EXPECT_TRUE(sys.replica(A, kObj).data.entries.contains("b1"));
  }
}

// The object-major store answers hosts_of and replicas_consistent from one
// object's host table. Check both against brute force — probing every site,
// comparing every pair of replicas — along a random history of creates,
// updates, syncs and batches. Object 4 never gets a replica and object 3
// keeps its only one; the rest drift apart and back together.
TEST(StateStore, HostsAndConsistencyMatchBruteForce) {
  constexpr std::uint32_t kSites = 6;
  constexpr std::uint32_t kObjects = 5;
  StateSystem::Config cfg = auto_cfg(vv::VectorKind::kCrv);
  cfg.n_sites = kSites;
  StateSystem sys(cfg);
  rt::ThreadPool pool(2);
  Rng rng(23);
  std::uint64_t entry_no = 0;
  const auto entry = [&] { return "e" + std::to_string(entry_no++); };
  const auto random_host = [&](ObjectId obj) {
    const std::vector<SiteId> hosts = sys.hosts_of(obj);
    return hosts[rng.below(hosts.size())];
  };
  const auto other_site = [&](SiteId s) {
    return SiteId{static_cast<std::uint32_t>((s.value + 1 + rng.below(kSites - 1)) % kSites)};
  };
  for (std::uint32_t o = 0; o < 4; ++o) {
    sys.create_object(SiteId{o}, ObjectId{o}, entry());
  }

  std::uint32_t consistent = 0;
  std::uint32_t inconsistent = 0;
  for (int step = 0; step < 400; ++step) {
    const ObjectId obj{static_cast<std::uint32_t>(rng.below(3))};  // never 3 or 4
    switch (rng.below(4)) {
      case 0:
        sys.update(random_host(obj), obj, entry());
        break;
      case 1: {
        const SiteId src = random_host(obj);
        sys.sync(other_site(src), src, obj);
        break;
      }
      case 2: {
        // A batch with dependent links: an update, a pull of it, and a
        // chain of pulls after that.
        using BE = StateSystem::BatchEvent;
        SiteId src = random_host(obj);
        std::vector<BE> batch{{BE::Type::kUpdate, src, {}, obj, entry()}};
        for (std::uint64_t k = rng.below(4); k-- > 0;) {
          const SiteId dst = other_site(src);
          batch.push_back({BE::Type::kSync, dst, src, obj, {}});
          src = dst;
        }
        sys.run_batch(batch, pool);
        break;
      }
      default:
        sys.update(SiteId{3}, ObjectId{3}, entry());
        break;
    }

    for (std::uint32_t o = 0; o < kObjects; ++o) {
      const ObjectId id{o};
      std::vector<SiteId> brute;
      for (std::uint32_t s = 0; s < kSites; ++s) {
        if (sys.has_replica(SiteId{s}, id)) brute.push_back(SiteId{s});
      }
      ASSERT_EQ(sys.hosts_of(id), brute) << "object " << o << " at step " << step;
      bool pairwise = true;
      for (std::size_t a = 0; a < brute.size(); ++a) {
        for (std::size_t b = a + 1; b < brute.size(); ++b) {
          const StateReplica& ra = sys.replica(brute[a], id);
          const StateReplica& rb = sys.replica(brute[b], id);
          pairwise = pairwise && ra.data == rb.data && ra.vector.same_values(rb.vector) &&
                     rb.vector.same_values(ra.vector);
        }
      }
      ASSERT_EQ(sys.replicas_consistent(id), pairwise) << "object " << o << " at step " << step;
      if (brute.size() >= 2) ++(pairwise ? consistent : inconsistent);
    }
  }
  EXPECT_TRUE(sys.hosts_of(ObjectId{4}).empty());
  EXPECT_EQ(sys.hosts_of(ObjectId{3}), std::vector<SiteId>{SiteId{3}});
  // The history visits both answers for replicated objects.
  EXPECT_GT(consistent, 0u);
  EXPECT_GT(inconsistent, 0u);
}

// Two replicas that reconciled against each other's earlier states hold
// the same payload but different vectors (each reconciliation increments
// its own site). The store must call them inconsistent.
TEST(StateStore, EqualPayloadsWithDifferentVectorsAreInconsistent) {
  const SiteId W{3};
  StateSystem sys(auto_cfg(vv::VectorKind::kCrv));
  sys.create_object(A, kObj, "base");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "a");
  sys.update(B, kObj, "b");
  sys.sync(W, A, kObj);                  // W holds A before it reconciles
  EXPECT_EQ(sys.sync(A, B, kObj).action, SyncOutcome::Action::kReconciled);
  EXPECT_EQ(sys.sync(B, W, kObj).action, SyncOutcome::Action::kReconciled);
  sys.sync(W, A, kObj);                  // W catches up with A
  EXPECT_EQ(sys.replica(A, kObj).data, sys.replica(B, kObj).data);
  EXPECT_FALSE(sys.replica(A, kObj).vector.same_values(sys.replica(B, kObj).vector));
  EXPECT_FALSE(sys.replicas_consistent(kObj));
  EXPECT_EQ(sys.hosts_of(kObj), (std::vector<SiteId>{A, B, W}));
}

}  // namespace
}  // namespace optrep::repl
