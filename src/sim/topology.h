// Gossip mesh topologies for large-world scenarios.
//
// A Mesh is an undirected graph over sites 0..n-1, stored as a compact CSR
// adjacency (two u32 arrays — offsets and neighbor lists), so a 10^6-site
// ring is ~16 MB of flat memory rather than a node-and-pointer structure.
// Neighbor lists are sorted ascending and the whole construction is a pure
// function of (kind, n, degree, seed), which keeps every scenario run — and
// every committed bench baseline built on one — exactly reproducible.
//
// Four families, spanning the shapes the gossip literature cares about:
//   ring          k-nearest-neighbor ring lattice: maximum diameter, the
//                 worst case for epidemic spread (and the paper-style chain
//                 of pairwise reconciliations).
//   small-world   Watts–Strogatz: the ring lattice with each edge rewired to
//                 a uniform target with probability β — a few shortcuts
//                 collapse the diameter to O(log n).
//   scale-free    Barabási–Albert preferential attachment: hub-dominated
//                 degree distribution, the shape of real overlay networks.
//   geo           geo-clustered: dense fixed-size clusters (regions) whose
//                 gateways form a ring — intra-region gossip is cheap,
//                 cross-region traffic funnels through thin bridges.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace optrep::sim {

enum class MeshKind : std::uint8_t { kRing, kSmallWorld, kScaleFree, kGeoClustered };

constexpr std::string_view to_string(MeshKind k) {
  switch (k) {
    case MeshKind::kRing: return "ring";
    case MeshKind::kSmallWorld: return "small-world";
    case MeshKind::kScaleFree: return "scale-free";
    case MeshKind::kGeoClustered: return "geo";
  }
  return "?";
}

class Mesh {
 public:
  // k-nearest ring lattice: site i adjacent to i±1..±k (mod n). k is clamped
  // to (n-1)/2 so no pair appears twice.
  static Mesh ring(std::uint32_t n, std::uint32_t k) {
    OPTREP_CHECK_MSG(n >= 2, "mesh needs at least 2 sites");
    k = clamp_lattice_k(n, k);
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(n) * k);
    push_lattice(edges, n, k);
    return Mesh(MeshKind::kRing, n, std::move(edges));
  }

  // Watts–Strogatz: the ring lattice above, with each edge's far endpoint
  // rewired to a uniform random site with probability beta (self-loops and
  // duplicate edges re-rolled).
  static Mesh small_world(std::uint32_t n, std::uint32_t k, double beta, std::uint64_t seed) {
    OPTREP_CHECK_MSG(n >= 2, "mesh needs at least 2 sites");
    k = clamp_lattice_k(n, k);
    std::vector<std::vector<std::uint32_t>> adj(n);
    auto connected = [&](std::uint32_t a, std::uint32_t b) {
      return std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end();
    };
    auto link = [&](std::uint32_t a, std::uint32_t b) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 1; j <= k; ++j) link(i, (i + j) % n);
    }
    Rng rng(seed);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 1; j <= k; ++j) {
        if (!rng.chance(beta)) continue;
        const std::uint32_t old = (i + j) % n;
        // A full row (degree n-1) has nowhere to rewire to; skip it.
        if (adj[i].size() >= n - 1) continue;
        std::uint32_t t;
        do {
          t = static_cast<std::uint32_t>(rng.below(n));
        } while (t == i || connected(i, t));
        if (!connected(i, old)) continue;  // already rewired away by the peer
        unlink(adj, i, old);
        link(i, t);
      }
    }
    return Mesh(MeshKind::kSmallWorld, n, collect(adj));
  }

  // Barabási–Albert: seed clique on m+1 sites, then each new site attaches m
  // edges to targets drawn proportionally to degree (repeated-endpoint list
  // sampling), distinct per site.
  static Mesh scale_free(std::uint32_t n, std::uint32_t m, std::uint64_t seed) {
    OPTREP_CHECK_MSG(n >= 2, "mesh needs at least 2 sites");
    if (m < 1) m = 1;
    const std::uint32_t m0 = std::min(n, m + 1);
    std::vector<Edge> edges;
    std::vector<std::uint32_t> endpoints;  // each edge contributes both ends
    edges.reserve(static_cast<std::size_t>(n) * m);
    endpoints.reserve(2 * static_cast<std::size_t>(n) * m);
    auto add = [&](std::uint32_t a, std::uint32_t b) {
      edges.push_back(Edge{a, b});
      endpoints.push_back(a);
      endpoints.push_back(b);
    };
    for (std::uint32_t i = 0; i < m0; ++i) {
      for (std::uint32_t j = i + 1; j < m0; ++j) add(i, j);
    }
    Rng rng(seed);
    std::vector<std::uint32_t> chosen;
    for (std::uint32_t i = m0; i < n; ++i) {
      chosen.clear();
      const std::uint32_t want = std::min(m, i);
      while (chosen.size() < want) {
        std::uint32_t t = endpoints[rng.below(endpoints.size())];
        // Preferential draws can collide on hubs; past a few tries fall back
        // to a uniform draw so construction always terminates.
        for (int tries = 0;
             (t == i || std::find(chosen.begin(), chosen.end(), t) != chosen.end()) &&
             tries < 16;
             ++tries) {
          t = endpoints[rng.below(endpoints.size())];
        }
        while (t == i || std::find(chosen.begin(), chosen.end(), t) != chosen.end()) {
          t = static_cast<std::uint32_t>(rng.below(i));
        }
        chosen.push_back(t);
      }
      for (const std::uint32_t t : chosen) add(i, t);
    }
    return Mesh(MeshKind::kScaleFree, n, std::move(edges));
  }

  // Geo-clustered: consecutive blocks of `cluster` sites form dense regions
  // (internal k-ring lattice); the first site of each region is its gateway,
  // and the gateways form a ring. `seed` shifts the gateway ring's chords so
  // different worlds do not share the exact bridge set.
  static Mesh geo_clustered(std::uint32_t n, std::uint32_t cluster, std::uint32_t k,
                            std::uint64_t seed) {
    OPTREP_CHECK_MSG(n >= 2, "mesh needs at least 2 sites");
    if (cluster < 2) cluster = 2;
    if (cluster > n) cluster = n;
    std::vector<Edge> edges;
    const std::uint32_t n_clusters = (n + cluster - 1) / cluster;
    std::vector<std::uint32_t> gateways;
    gateways.reserve(n_clusters);
    for (std::uint32_t base = 0; base < n; base += cluster) {
      const std::uint32_t size = std::min(cluster, n - base);
      const std::uint32_t kk = clamp_lattice_k(size, k);
      if (size >= 2) push_lattice(edges, size, kk, base);
      gateways.push_back(base);
    }
    if (n_clusters >= 2) {
      Rng rng(seed);
      const std::uint32_t shift = static_cast<std::uint32_t>(rng.below(n_clusters));
      for (std::uint32_t c = 0; c < n_clusters; ++c) {
        const std::uint32_t a = gateways[c];
        const std::uint32_t b = gateways[(c + 1) % n_clusters];
        if (a != b && (n_clusters > 2 || c == 0)) edges.push_back(Edge{a, b});
        // One long-range chord per gateway keeps the region ring's diameter
        // sub-linear in the cluster count.
        if (n_clusters > 3) {
          const std::uint32_t far = gateways[(c + shift % (n_clusters - 2) + 2) % n_clusters];
          if (far != a) edges.push_back(Edge{a, far});
        }
      }
    }
    return Mesh(MeshKind::kGeoClustered, n, std::move(edges));
  }

  // Uniform entry point used by the CLI and benches: one `degree` knob per
  // family (lattice k, WS k with β=0.1, BA attachment m, geo intra-region k
  // with 64-site regions).
  static Mesh build(MeshKind kind, std::uint32_t n, std::uint32_t degree, std::uint64_t seed) {
    switch (kind) {
      case MeshKind::kRing: return ring(n, degree);
      case MeshKind::kSmallWorld: return small_world(n, degree, 0.1, seed);
      case MeshKind::kScaleFree: return scale_free(n, degree, seed);
      case MeshKind::kGeoClustered: return geo_clustered(n, 64, degree, seed);
    }
    OPTREP_CHECK_MSG(false, "unknown mesh kind");
    return ring(n, degree);
  }

  MeshKind kind() const { return kind_; }
  std::uint32_t sites() const { return n_; }
  std::uint64_t edge_count() const { return neighbors_.size() / 2; }

  std::uint32_t degree(std::uint32_t s) const { return offsets_[s + 1] - offsets_[s]; }
  std::uint32_t max_degree() const {
    std::uint32_t d = 0;
    for (std::uint32_t s = 0; s < n_; ++s) d = std::max(d, degree(s));
    return d;
  }
  // j-th neighbor of s (ascending site order), j < degree(s).
  std::uint32_t neighbor(std::uint32_t s, std::uint32_t j) const {
    return neighbors_[offsets_[s] + j];
  }

  // Connected components, by one BFS over the CSR. A gossip world on a mesh
  // with more than one can never converge.
  std::uint32_t components() const {
    std::vector<std::uint8_t> seen(n_, 0);
    std::vector<std::uint32_t> queue;  // every site enters once
    queue.reserve(n_);
    std::uint32_t count = 0;
    for (std::uint32_t root = 0; root < n_; ++root) {
      if (seen[root]) continue;
      ++count;
      seen[root] = 1;
      queue.push_back(root);
      for (std::size_t head = queue.size() - 1; head < queue.size(); ++head) {
        const std::uint32_t s = queue[head];
        for (std::uint32_t j = offsets_[s]; j < offsets_[s + 1]; ++j) {
          const std::uint32_t t = neighbors_[j];
          if (!seen[t]) {
            seen[t] = 1;
            queue.push_back(t);
          }
        }
      }
    }
    return count;
  }

  // CSR footprint (offsets + neighbor arrays).
  std::uint64_t memory_bytes() const {
    return (offsets_.capacity() + neighbors_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  struct Edge {
    std::uint32_t a, b;
  };

  static std::uint32_t clamp_lattice_k(std::uint32_t n, std::uint32_t k) {
    if (k < 1) k = 1;
    return std::min(k, (n - 1) / 2 == 0 ? 1u : (n - 1) / 2);
  }

  static void push_lattice(std::vector<Edge>& edges, std::uint32_t n, std::uint32_t k,
                           std::uint32_t base = 0) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 1; j <= k && j < n; ++j) {
        const std::uint32_t t = (i + j) % n;
        if (t != i) edges.push_back(Edge{base + i, base + t});
      }
    }
  }

  static void unlink(std::vector<std::vector<std::uint32_t>>& adj, std::uint32_t a,
                     std::uint32_t b) {
    auto drop = [](std::vector<std::uint32_t>& v, std::uint32_t x) {
      auto it = std::find(v.begin(), v.end(), x);
      if (it != v.end()) v.erase(it);
    };
    drop(adj[a], b);
    drop(adj[b], a);
  }

  static std::vector<Edge> collect(const std::vector<std::vector<std::uint32_t>>& adj) {
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < adj.size(); ++i) {
      for (const std::uint32_t t : adj[i]) {
        if (i < t) edges.push_back(Edge{i, t});
      }
    }
    return edges;
  }

  // Normalize, dedupe, and lay the undirected edge list out as CSR with
  // ascending neighbor runs.
  Mesh(MeshKind kind, std::uint32_t n, std::vector<Edge> edges) : kind_(kind), n_(n) {
    for (Edge& e : edges) {
      if (e.a > e.b) std::swap(e.a, e.b);
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      return x.a != y.a ? x.a < y.a : x.b < y.b;
    });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& x, const Edge& y) {
                              return x.a == y.a && x.b == y.b;
                            }),
                edges.end());
    offsets_.assign(n_ + 1, 0);
    for (const Edge& e : edges) {
      ++offsets_[e.a + 1];
      ++offsets_[e.b + 1];
    }
    for (std::uint32_t i = 0; i < n_; ++i) offsets_[i + 1] += offsets_[i];
    neighbors_.resize(edges.size() * 2);
    std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const Edge& e : edges) {
      neighbors_[fill[e.a]++] = e.b;
      neighbors_[fill[e.b]++] = e.a;
    }
    for (std::uint32_t s = 0; s < n_; ++s) {
      std::sort(neighbors_.begin() + offsets_[s], neighbors_.begin() + offsets_[s + 1]);
    }
  }

  MeshKind kind_{MeshKind::kRing};
  std::uint32_t n_{0};
  std::vector<std::uint32_t> offsets_;    // n+1 entries
  std::vector<std::uint32_t> neighbors_;  // 2·edge_count entries
};

}  // namespace optrep::sim
