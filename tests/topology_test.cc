// sim::Mesh (sim/topology.h): the four gossip topology families. Pins the
// CSR invariants every consumer assumes (symmetry, sorted neighbor runs, no
// self-loops or duplicates), per-family shape properties, connectivity for
// the parameterizations the scenario presets use, and construction
// determinism — committed bench baselines depend on build() being a pure
// function of (kind, n, degree, seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/topology.h"

namespace optrep::sim {
namespace {

// CSR sanity: neighbor runs sorted strictly ascending (no duplicates), no
// self-loops, and every edge present in both directions.
void check_invariants(const Mesh& m) {
  for (std::uint32_t s = 0; s < m.sites(); ++s) {
    for (std::uint32_t j = 0; j < m.degree(s); ++j) {
      const std::uint32_t t = m.neighbor(s, j);
      ASSERT_LT(t, m.sites());
      ASSERT_NE(t, s) << "self-loop at " << s;
      if (j > 0) {
        ASSERT_LT(m.neighbor(s, j - 1), t) << "unsorted/duplicate at " << s;
      }
      bool back = false;
      for (std::uint32_t i = 0; i < m.degree(t); ++i) back |= m.neighbor(t, i) == s;
      ASSERT_TRUE(back) << "edge " << s << "->" << t << " not symmetric";
    }
  }
}

bool connected(const Mesh& m) {
  std::vector<std::uint8_t> seen(m.sites(), 0);
  std::vector<std::uint32_t> stack{0};
  seen[0] = 1;
  std::uint32_t count = 1;
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    for (std::uint32_t j = 0; j < m.degree(s); ++j) {
      const std::uint32_t t = m.neighbor(s, j);
      if (!seen[t]) {
        seen[t] = 1;
        ++count;
        stack.push_back(t);
      }
    }
  }
  return count == m.sites();
}

bool same_adjacency(const Mesh& a, const Mesh& b) {
  if (a.sites() != b.sites() || a.edge_count() != b.edge_count()) return false;
  for (std::uint32_t s = 0; s < a.sites(); ++s) {
    if (a.degree(s) != b.degree(s)) return false;
    for (std::uint32_t j = 0; j < a.degree(s); ++j) {
      if (a.neighbor(s, j) != b.neighbor(s, j)) return false;
    }
  }
  return true;
}

TEST(MeshRing, LatticeShape) {
  const Mesh m = Mesh::ring(10, 2);
  check_invariants(m);
  EXPECT_TRUE(connected(m));
  EXPECT_EQ(m.edge_count(), 20u);  // n·k undirected edges
  for (std::uint32_t s = 0; s < 10; ++s) EXPECT_EQ(m.degree(s), 4u);
  // Site 0's neighbors are ±1, ±2 mod 10.
  EXPECT_EQ(m.neighbor(0, 0), 1u);
  EXPECT_EQ(m.neighbor(0, 1), 2u);
  EXPECT_EQ(m.neighbor(0, 2), 8u);
  EXPECT_EQ(m.neighbor(0, 3), 9u);
}

TEST(MeshRing, DegreeClampedOnTinyWorlds) {
  // k is clamped to (n-1)/2 so no pair appears twice.
  const Mesh m = Mesh::ring(4, 100);
  check_invariants(m);
  EXPECT_TRUE(connected(m));
  EXPECT_EQ(m.edge_count(), 4u);  // plain cycle
}

TEST(MeshSmallWorld, PreservesEdgeCountAndConnects) {
  const Mesh m = Mesh::small_world(200, 3, 0.1, 42);
  check_invariants(m);
  EXPECT_TRUE(connected(m));
  // Watts–Strogatz rewires endpoints but never adds or removes edges.
  EXPECT_EQ(m.edge_count(), 600u);
  // β=0.1 on 600 edges rewires ~60: the mesh must differ from the lattice.
  EXPECT_FALSE(same_adjacency(m, Mesh::ring(200, 3)));
}

TEST(MeshSmallWorld, BetaZeroIsTheLattice) {
  EXPECT_TRUE(same_adjacency(Mesh::small_world(64, 2, 0.0, 7), Mesh::ring(64, 2)));
}

TEST(MeshScaleFree, AttachmentCountAndHubs) {
  const Mesh m = Mesh::scale_free(300, 2, 9);
  check_invariants(m);
  EXPECT_TRUE(connected(m));
  // Seed clique C(3,2)=3 edges + 2 per later site.
  EXPECT_EQ(m.edge_count(), 3u + 297u * 2u);
  // Preferential attachment produces hubs far above the attachment degree.
  EXPECT_GE(m.max_degree(), 8u);
  std::uint32_t min_deg = m.degree(0);
  for (std::uint32_t s = 1; s < m.sites(); ++s) min_deg = std::min(min_deg, m.degree(s));
  EXPECT_GE(min_deg, 2u);  // every site attached with ≥ m edges
}

TEST(MeshGeoClustered, ClustersBridgedByGateways) {
  const Mesh m = Mesh::geo_clustered(256, 32, 2, 5);
  check_invariants(m);
  EXPECT_TRUE(connected(m));
  // Gateways (cluster bases) carry the inter-region ring + chords on top of
  // their intra-region lattice degree.
  EXPECT_GT(m.degree(0), m.degree(1));
}

TEST(MeshBuild, DispatchesAndTagsKind) {
  EXPECT_EQ(Mesh::build(MeshKind::kRing, 32, 2, 1).kind(), MeshKind::kRing);
  EXPECT_EQ(Mesh::build(MeshKind::kSmallWorld, 32, 2, 1).kind(), MeshKind::kSmallWorld);
  EXPECT_EQ(Mesh::build(MeshKind::kScaleFree, 32, 2, 1).kind(), MeshKind::kScaleFree);
  EXPECT_EQ(Mesh::build(MeshKind::kGeoClustered, 32, 2, 1).kind(), MeshKind::kGeoClustered);
}

TEST(MeshBuild, DeterministicForFixedParameters) {
  for (const MeshKind k : {MeshKind::kRing, MeshKind::kSmallWorld, MeshKind::kScaleFree,
                           MeshKind::kGeoClustered}) {
    const Mesh a = Mesh::build(k, 500, 3, 77);
    const Mesh b = Mesh::build(k, 500, 3, 77);
    EXPECT_TRUE(same_adjacency(a, b)) << to_string(k);
    check_invariants(a);
    EXPECT_TRUE(connected(a)) << to_string(k);
  }
  // A different seed moves the randomized families.
  EXPECT_FALSE(same_adjacency(Mesh::build(MeshKind::kSmallWorld, 500, 3, 77),
                              Mesh::build(MeshKind::kSmallWorld, 500, 3, 78)));
}

TEST(MeshBuild, MemoryFootprintIsFlat) {
  const Mesh m = Mesh::build(MeshKind::kRing, 10000, 2, 1);
  // offsets (n+1) + neighbors (2·edges) u32s; CSR, no per-node allocation.
  EXPECT_GE(m.memory_bytes(), (10001u + 40000u) * sizeof(std::uint32_t));
  EXPECT_LT(m.memory_bytes(), 2u * (10001u + 40000u) * sizeof(std::uint32_t));
}

// The CLI's default --degree=1 on a small-world mesh: a k=1 lattice is a
// bare cycle, and 10% rewiring cuts it into pieces.
TEST(MeshComponents, UnitDegreeSmallWorldIsSplit) {
  const Mesh m = Mesh::build(MeshKind::kSmallWorld, 4096, 1, 1);
  EXPECT_GT(m.components(), 1u);
  EXPECT_FALSE(connected(m));
  EXPECT_EQ(Mesh::ring(4096, 1).components(), 1u);
}

// The shapes committed benchmarks run (bench_scenario smoke and full rows at
// seed 11, the CI mesh sweep at the CLI's seed 1, perfbench's gossip worlds)
// are each one component.
TEST(MeshComponents, CommittedBenchShapesAreConnected) {
  struct Shape {
    MeshKind kind;
    std::uint32_t sites, degree;
    std::uint64_t seed;
  };
  std::vector<Shape> shapes;
  for (const std::uint32_t ring_n : {2048u, 100000u}) {
    shapes.push_back({MeshKind::kRing, ring_n, 2, 11});
  }
  for (const std::uint32_t mesh_n : {1024u, 10000u}) {
    shapes.push_back({MeshKind::kSmallWorld, mesh_n, 3, 11});
    shapes.push_back({MeshKind::kScaleFree, mesh_n, 2, 11});
    shapes.push_back({MeshKind::kGeoClustered, mesh_n, 2, 11});
    shapes.push_back({MeshKind::kRing, mesh_n, 2, 11});
  }
  for (const MeshKind k : {MeshKind::kSmallWorld, MeshKind::kScaleFree,
                           MeshKind::kGeoClustered}) {
    shapes.push_back({k, 2048, 3, 1});
  }
  for (std::uint64_t world = 404; world < 444; ++world) {  // --seed 101..110, 4 worlds each
    shapes.push_back({MeshKind::kSmallWorld, 30000, 2, world});
  }
  for (const Shape& sh : shapes) {
    EXPECT_EQ(Mesh::build(sh.kind, sh.sites, sh.degree, sh.seed).components(), 1u)
        << to_string(sh.kind) << " n=" << sh.sites << " degree=" << sh.degree
        << " seed=" << sh.seed;
  }
}

}  // namespace
}  // namespace optrep::sim
