// A cloud key-value store in the Dynamo/OceanStore mold (§1): hundreds of
// loosely-coupled storage nodes, many replicated objects, writes accepted on
// any replica. The demo drives a network partition: the cluster splits into
// two halves that keep accepting writes, then heals — producing a burst of
// syntactic conflicts that SRV reconciles with difference-only metadata
// exchange.
//
// Usage: cloud_kv [n_nodes] [n_keys]
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "repl/state_system.h"

using namespace optrep;

namespace {

struct Cluster {
  repl::StateSystem sys;
  std::uint32_t n;
  Rng rng{2077};

  explicit Cluster(std::uint32_t n_nodes)
      : sys(repl::StateSystem::Config{
            .n_sites = n_nodes,
            .kind = vv::VectorKind::kSrv,
            .policy = repl::ResolutionPolicy::kAutomatic,
            .cost = CostModel{.n = n_nodes, .m = 1 << 16},
        }),
        n(n_nodes) {}

  // One gossip round restricted to [lo, hi).
  void gossip(ObjectId key, std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      auto j = lo + static_cast<std::uint32_t>(rng.below(hi - lo));
      if (j == i) continue;
      if (sys.has_replica(SiteId{j}, key)) sys.sync(SiteId{i}, SiteId{j}, key);
    }
  }

  // One anti-entropy sweep: a forward ring pass accumulates everything into
  // the last host, a backward pass fans the result out (cf. wl::run_state).
  void sweep(ObjectId key) {
    auto hosts = sys.hosts_of(key);
    for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
      sys.sync(hosts[i + 1], hosts[i], key);
    }
    for (std::size_t i = hosts.size(); i-- > 1;) {
      sys.sync(hosts[i - 1], hosts[i], key);
    }
  }

  void write(ObjectId key, std::uint32_t node, const std::string& value) {
    const SiteId s{node};
    if (!sys.has_replica(s, key)) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j != node && sys.has_replica(SiteId{j}, key)) {
          sys.sync(s, SiteId{j}, key);
          break;
        }
      }
    }
    if (sys.has_replica(s, key)) sys.update(s, key, value);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::uint32_t keys = argc > 2 ? std::atoi(argv[2]) : 8;
  Cluster c(n);

  std::printf("== cloud KV store: %u nodes, %u keys, SRV metadata ==\n\n", n, keys);
  for (std::uint32_t k = 0; k < keys; ++k) {
    std::string value = "k";
    value += std::to_string(k);
    value += "=v0";
    c.sys.create_object(SiteId{k % n}, ObjectId{k}, value);
  }
  // Seed replicas around the cluster.
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t k = 0; k < keys; ++k) c.gossip(ObjectId{k}, 0, c.n);
  }
  const auto before_partition = c.sys.totals();
  std::printf("seeded: %llu sessions, %llu conflicts so far\n",
              (unsigned long long)before_partition.sessions,
              (unsigned long long)before_partition.conflicts_detected);

  // ---- partition: halves diverge -----------------------------------------
  const std::uint32_t half = n / 2;
  std::printf("\n-- partition: nodes [0,%u) and [%u,%u) diverge for 5 rounds --\n", half,
              half, n);
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t k = 0; k < keys; ++k) {
      const ObjectId key{k};
      c.write(key, static_cast<std::uint32_t>(c.rng.below(half)),
              "left-r" + std::to_string(round));
      c.write(key, half + static_cast<std::uint32_t>(c.rng.below(n - half)),
              "right-r" + std::to_string(round));
      c.gossip(key, 0, half);
      c.gossip(key, half, n);
    }
  }
  const auto at_heal = c.sys.totals();

  // ---- heal: cross-partition anti-entropy --------------------------------
  std::printf("-- heal: full-cluster anti-entropy sweeps until convergence --\n");
  int heal_rounds = 0;
  bool all = false;
  while (!all && heal_rounds < 16) {
    ++heal_rounds;
    all = true;
    for (std::uint32_t k = 0; k < keys; ++k) {
      c.sweep(ObjectId{k});
      if (!c.sys.replicas_consistent(ObjectId{k})) all = false;
    }
  }
  const auto after = c.sys.totals();

  std::printf("\nconverged: %s after %d healing rounds\n", all ? "yes" : "no", heal_rounds);
  std::printf("conflicts reconciled during divergence+heal: %llu\n",
              (unsigned long long)(after.conflicts_detected -
                                   before_partition.conflicts_detected));
  std::printf("healing traffic: %llu bits across %llu sessions (%.0f bits/session)\n",
              (unsigned long long)(after.bits - at_heal.bits),
              (unsigned long long)(after.sessions - at_heal.sessions),
              (double)(after.bits - at_heal.bits) /
                  (double)(after.sessions - at_heal.sessions));
  const CostModel cm{.n = n, .m = 1 << 16};
  const auto& rep = c.sys.replica(SiteId{0}, ObjectId{0});
  std::printf("(a traditional exchange ships the whole vector every time: %llu bits\n"
              " per session at this key's current %zu-element vector)\n",
              (unsigned long long)(cm.elem_bits(0) * rep.vector.size() + cm.halt_bits()),
              rep.vector.size());
  std::printf("\nsample key state on node 0:\n");
  std::printf("  vector: %s\n  entries: %zu\n", rep.vector.to_string().c_str(),
              rep.data.entries.size());
  return 0;
}
