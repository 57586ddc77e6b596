// End-to-end property tests: generated workload traces drive complete
// replication systems. The StateSystem continuously cross-checks rotating
// vectors against the traditional-vector oracle and ground-truth causality
// (any divergence aborts the process), so a green run here is a strong
// statement about protocol correctness on thousands of synchronizations.
#include <gtest/gtest.h>

#include <type_traits>

#include "workload/trace.h"

namespace optrep::wl {
namespace {

repl::StateSystem::Config state_cfg(vv::VectorKind kind, std::uint32_t n_sites,
                                    vv::TransferMode mode = vv::TransferMode::kIdeal) {
  repl::StateSystem::Config cfg;
  cfg.n_sites = n_sites;
  cfg.kind = kind;
  cfg.policy = kind == vv::VectorKind::kBrv ? repl::ResolutionPolicy::kManual
                                            : repl::ResolutionPolicy::kAutomatic;
  cfg.mode = mode;
  cfg.cost = CostModel{.n = n_sites, .m = 1 << 16};
  if (mode == vv::TransferMode::kPipelined) {
    cfg.net = {.latency_s = 0.002, .bandwidth_bits_per_s = 1e6};
  }
  return cfg;
}

struct TraceCase {
  TraceCase(vv::VectorKind k, vv::TransferMode m, std::uint64_t s)
      : kind(k), mode(m), seed(s) {}
  vv::VectorKind kind;
  vv::TransferMode mode;
  // gtest lists each case with the raw bytes of its parameter. Naming the
  // padding keeps those bytes, and so the listed test names, the same on
  // every run.
  std::uint8_t pad[6]{};
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TraceCase>);

class StateTraceTest : public ::testing::TestWithParam<TraceCase> {};

TEST_P(StateTraceTest, RandomGossipConvergesWithOracleChecks) {
  const TraceCase& tc = GetParam();
  GeneratorConfig g;
  g.n_sites = 6;
  g.n_objects = 3;
  g.steps = 400;
  g.update_prob = 0.45;
  g.seed = tc.seed;
  const Trace trace = generate(g);

  repl::StateSystem sys(state_cfg(tc.kind, g.n_sites, tc.mode));
  const RunStats stats = run_state(sys, trace);
  if (tc.kind != vv::VectorKind::kBrv) {
    EXPECT_TRUE(stats.eventually_consistent);
  }
  EXPECT_GT(stats.updates, 0u);
  EXPECT_GT(stats.syncs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KindsModesSeeds, StateTraceTest,
    ::testing::Values(
        TraceCase{vv::VectorKind::kCrv, vv::TransferMode::kIdeal, 1},
        TraceCase{vv::VectorKind::kCrv, vv::TransferMode::kIdeal, 2},
        TraceCase{vv::VectorKind::kCrv, vv::TransferMode::kStopAndWait, 3},
        TraceCase{vv::VectorKind::kCrv, vv::TransferMode::kPipelined, 4},
        TraceCase{vv::VectorKind::kSrv, vv::TransferMode::kIdeal, 5},
        TraceCase{vv::VectorKind::kSrv, vv::TransferMode::kIdeal, 6},
        TraceCase{vv::VectorKind::kSrv, vv::TransferMode::kStopAndWait, 7},
        TraceCase{vv::VectorKind::kSrv, vv::TransferMode::kPipelined, 8},
        TraceCase{vv::VectorKind::kBrv, vv::TransferMode::kIdeal, 9},
        TraceCase{vv::VectorKind::kBrv, vv::TransferMode::kPipelined, 10}),
    [](const auto& info) {
      const TraceCase& tc = info.param;
      std::string name{to_string(tc.kind)};
      switch (tc.mode) {
        case vv::TransferMode::kIdeal: name += "Ideal"; break;
        case vv::TransferMode::kStopAndWait: name += "StopAndWait"; break;
        case vv::TransferMode::kPipelined: name += "Pipelined"; break;
      }
      return name + "Seed" + std::to_string(tc.seed);
    });

TEST(Integration, SrvNeverMoreRedundantThanCrvOnSameTrace) {
  // §4's whole point: SRV replaces CRV's |Γ| with γ ≤ |Γ| redundant work.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = append_only_log(6, 300, seed);
    repl::StateSystem crv(state_cfg(vv::VectorKind::kCrv, 6));
    repl::StateSystem srv(state_cfg(vv::VectorKind::kSrv, 6));
    run_state(crv, trace);
    run_state(srv, trace);
    EXPECT_LE(srv.totals().elems_redundant, crv.totals().elems_redundant)
        << "seed " << seed;
    EXPECT_TRUE(crv.replicas_consistent(ObjectId{0}));
    EXPECT_TRUE(srv.replicas_consistent(ObjectId{0}));
  }
}

TEST(Integration, HighConflictLogShowsGammaGap) {
  // On the append-only-log scenario the CRV redundancy must be visibly
  // nonzero while SRV's stays near its skip count.
  const Trace trace = append_only_log(8, 600, 42);
  repl::StateSystem crv(state_cfg(vv::VectorKind::kCrv, 8));
  repl::StateSystem srv(state_cfg(vv::VectorKind::kSrv, 8));
  run_state(crv, trace);
  run_state(srv, trace);
  EXPECT_GT(crv.totals().elems_redundant, 0u);
  EXPECT_LT(srv.totals().elems_sent, crv.totals().elems_sent);
}

TEST(Integration, ScenariosRunToConsistency) {
  {
    repl::StateSystem sys(state_cfg(vv::VectorKind::kSrv, 10));
    const RunStats s = run_state(sys, dtn_store(10, 8, 500, 7));
    EXPECT_TRUE(s.eventually_consistent);
  }
  {
    repl::StateSystem sys(state_cfg(vv::VectorKind::kSrv, 12));
    const RunStats s = run_state(sys, collaboration(12, 500, 11));
    EXPECT_TRUE(s.eventually_consistent);
  }
}

TEST(Integration, ManualPolicyHoldsConflictsInsteadOfMerging) {
  const Trace trace = append_only_log(5, 200, 3);
  repl::StateSystem sys(state_cfg(vv::VectorKind::kBrv, 5));
  const RunStats stats = run_state(sys, trace, /*drive_to_consistency=*/false);
  // Heavy concurrent appends must have been flagged at least once…
  EXPECT_GT(sys.totals().conflicts_detected, 0u);
  // …and never silently merged.
  EXPECT_EQ(sys.totals().reconciliations, 0u);
  EXPECT_GT(stats.skipped, 0u);  // excluded replicas refuse updates/syncs
}

TEST(Integration, OpTransferTracesConverge) {
  for (std::uint64_t seed : {21, 22, 23}) {
    GeneratorConfig g;
    g.n_sites = 5;
    g.n_objects = 2;
    g.steps = 300;
    g.update_prob = 0.5;
    g.seed = seed;
    repl::OpSystem::Config cfg;
    cfg.n_sites = g.n_sites;
    cfg.cost = CostModel{.n = g.n_sites, .m = 1 << 16};
    repl::OpSystem sys(cfg);
    const RunStats stats = run_op(sys, generate(g));
    EXPECT_TRUE(stats.eventually_consistent) << "seed " << seed;
  }
}

TEST(Integration, OpTransferIncrementalVsFullSameResult) {
  GeneratorConfig g;
  g.n_sites = 4;
  g.n_objects = 1;
  g.steps = 200;
  g.seed = 77;
  const Trace trace = generate(g);

  repl::OpSystem::Config inc_cfg;
  inc_cfg.n_sites = g.n_sites;
  inc_cfg.use_incremental = true;
  repl::OpSystem::Config full_cfg = inc_cfg;
  full_cfg.use_incremental = false;

  repl::OpSystem inc(inc_cfg), full(full_cfg);
  run_op(inc, trace);
  run_op(full, trace);
  EXPECT_TRUE(inc.replicas_consistent(ObjectId{0}));
  EXPECT_TRUE(full.replicas_consistent(ObjectId{0}));
  // Same converged graph on representative sites.
  for (std::uint32_t s = 0; s < g.n_sites; ++s) {
    const SiteId site{s};
    if (inc.has_replica(site, ObjectId{0}) && full.has_replica(site, ObjectId{0})) {
      EXPECT_EQ(inc.materialize(site, ObjectId{0}), full.materialize(site, ObjectId{0}));
    }
  }
  EXPECT_LE(inc.totals().nodes_sent, full.totals().nodes_sent);
}

TEST(Integration, GeneratedTracesAreDeterministic) {
  GeneratorConfig g;
  g.seed = 5;
  g.steps = 100;
  const Trace t1 = generate(g);
  const Trace t2 = generate(g);
  ASSERT_EQ(t1.events.size(), t2.events.size());
  for (std::size_t i = 0; i < t1.events.size(); ++i) {
    EXPECT_EQ(t1.events[i].site, t2.events[i].site);
    EXPECT_EQ(static_cast<int>(t1.events[i].type), static_cast<int>(t2.events[i].type));
  }
}

TEST(Integration, TopologiesProduceValidTraces) {
  for (auto topo : {Topology::kRandomGossip, Topology::kRing, Topology::kStar,
                    Topology::kClustered}) {
    GeneratorConfig g;
    g.n_sites = 9;
    g.topology = topo;
    g.steps = 200;
    g.seed = 13;
    const Trace t = generate(g);
    for (const Event& ev : t.events) {
      EXPECT_LT(ev.site.value, g.n_sites);
      if (ev.type == Event::Type::kSync) {
        EXPECT_LT(ev.peer.value, g.n_sites);
        EXPECT_NE(ev.peer, ev.site);
      }
    }
  }
}

}  // namespace
}  // namespace optrep::wl
