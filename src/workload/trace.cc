#include "workload/trace.h"

#include <algorithm>

#include "obs/prof.h"
#include "rt/shard.h"

namespace optrep::wl {

namespace {

SiteId pick_updater(Rng& rng, const GeneratorConfig& cfg) {
  if (cfg.locality > 0.0 && rng.chance(cfg.locality)) {
    return SiteId{static_cast<std::uint32_t>(rng.below(std::max<std::uint32_t>(cfg.hot_sites, 1)))};
  }
  return SiteId{static_cast<std::uint32_t>(rng.below(cfg.n_sites))};
}

SiteId pick_peer(Rng& rng, const GeneratorConfig& cfg, SiteId self) {
  switch (cfg.topology) {
    case Topology::kRing: {
      const std::uint32_t left = (self.value + cfg.n_sites - 1) % cfg.n_sites;
      const std::uint32_t right = (self.value + 1) % cfg.n_sites;
      return SiteId{rng.chance(0.5) ? left : right};
    }
    case Topology::kStar:
      return self.value == 0
                 ? SiteId{static_cast<std::uint32_t>(1 + rng.below(cfg.n_sites - 1))}
                 : SiteId{0};
    case Topology::kClustered: {
      const std::uint32_t cluster = self.value / cfg.cluster_size;
      const std::uint32_t clusters =
          (cfg.n_sites + cfg.cluster_size - 1) / cfg.cluster_size;
      if (clusters > 1 && rng.chance(cfg.bridge_prob)) {
        // Bridge: a peer from a different cluster.
        for (;;) {
          const auto p = static_cast<std::uint32_t>(rng.below(cfg.n_sites));
          if (p / cfg.cluster_size != cluster && p != self.value) return SiteId{p};
        }
      }
      const std::uint32_t base = cluster * cfg.cluster_size;
      const std::uint32_t size =
          std::min(cfg.cluster_size, cfg.n_sites - base);
      if (size <= 1) return SiteId{(self.value + 1) % cfg.n_sites};
      for (;;) {
        const auto p = base + static_cast<std::uint32_t>(rng.below(size));
        if (p != self.value) return SiteId{p};
      }
    }
    case Topology::kRandomGossip:
    default:
      for (;;) {
        const auto p = static_cast<std::uint32_t>(rng.below(cfg.n_sites));
        if (p != self.value) return SiteId{p};
      }
  }
}

}  // namespace

Trace generate(const GeneratorConfig& cfg) {
  OPTREP_CHECK(cfg.n_sites >= 2);
  OPTREP_CHECK(cfg.n_objects >= 1);
  Rng rng(cfg.seed);
  Trace t;
  t.n_sites = cfg.n_sites;
  t.n_objects = cfg.n_objects;
  t.config = cfg;
  t.events.reserve(cfg.steps + cfg.n_objects);
  // Each object is created on a deterministic home site.
  for (std::uint32_t o = 0; o < cfg.n_objects; ++o) {
    t.events.push_back(Event{Event::Type::kCreate, SiteId{o % cfg.n_sites}, SiteId{},
                             ObjectId{o}});
  }
  for (std::uint32_t s = 0; s < cfg.steps; ++s) {
    const ObjectId obj{static_cast<std::uint32_t>(rng.below(cfg.n_objects))};
    if (rng.chance(cfg.update_prob)) {
      t.events.push_back(Event{Event::Type::kUpdate, pick_updater(rng, cfg), SiteId{}, obj});
    } else {
      const SiteId self{static_cast<std::uint32_t>(rng.below(cfg.n_sites))};
      t.events.push_back(Event{Event::Type::kSync, self, pick_peer(rng, cfg, self), obj});
    }
  }
  return t;
}

Trace append_only_log(std::uint32_t n_sites, std::uint32_t steps, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.n_sites = n_sites;
  cfg.n_objects = 1;
  cfg.steps = steps;
  cfg.update_prob = 0.8;  // heavy concurrent appending → conflicts abound (§4)
  cfg.topology = Topology::kRandomGossip;
  cfg.seed = seed;
  Trace t = generate(cfg);
  t.scenario = "append_only_log";
  return t;
}

Trace dtn_store(std::uint32_t n_sites, std::uint32_t n_objects, std::uint32_t steps,
                std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.n_sites = n_sites;
  cfg.n_objects = n_objects;
  cfg.steps = steps;
  cfg.update_prob = 0.3;  // mostly opportunistic exchanges, few local writes
  cfg.topology = Topology::kRandomGossip;
  cfg.seed = seed;
  Trace t = generate(cfg);
  t.scenario = "dtn_store";
  return t;
}

Trace collaboration(std::uint32_t n_sites, std::uint32_t steps, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.n_sites = n_sites;
  cfg.n_objects = 1;
  cfg.steps = steps;
  cfg.update_prob = 0.4;
  cfg.topology = Topology::kClustered;
  cfg.cluster_size = std::max<std::uint32_t>(n_sites / 4, 2);
  cfg.bridge_prob = 0.05;
  cfg.seed = seed;
  Trace t = generate(cfg);
  t.scenario = "collaboration";
  return t;
}

namespace {

// Ensure `site` holds a usable replica before an update: opportunistically
// pull from some existing host (this itself is a sync session).
template <class System>
bool ensure_replica(System& sys, RunStats& stats, SiteId site, ObjectId obj,
                    const std::vector<SiteId>& creators) {
  if (sys.has_replica(site, obj)) return true;
  for (SiteId host : creators) {
    if (host != site && sys.has_replica(host, obj)) {
      sys.sync(site, host, obj);
      ++stats.syncs;
      return sys.has_replica(site, obj);
    }
  }
  return false;
}

// A set of (site, object) replicas, open-addressed over one flat array of
// nonzero keys (0 marks an empty slot) kept at most half full. The batch
// driver probes it once or twice per trace event; std::unordered_set's heap
// node per key made building the trace batch cost three times as much.
class ReplicaSet {
 public:
  bool contains(SiteId s, ObjectId o) const {
    return !slots_.empty() && slots_[find(key(s, o))] != 0;
  }
  void insert(SiteId s, ObjectId o) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint64_t k = key(s, o);
    std::uint64_t& slot = slots_[find(k)];
    if (slot == 0) ++size_;
    slot = k;
  }

 private:
  static std::uint64_t key(SiteId s, ObjectId o) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{s.value} << 32) | o.value;
  }
  // The slot holding `k`, or the empty slot ending its probe run.
  std::size_t find(std::uint64_t k) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = rt::mix64(k) & mask;
    while (slots_[i] != 0 && slots_[i] != k) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    old.swap(slots_);
    for (const std::uint64_t k : old) {
      if (k != 0) slots_[find(k)] = k;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_{0};
};

// Every object consistent across its hosts: the full pass a driver falls
// back on when no anti-entropy round checked the fleet.
bool all_replicas_consistent(const repl::StateSystem& sys, std::uint32_t n_objects) {
  for (std::uint32_t o = 0; o < n_objects; ++o) {
    if (!sys.replicas_consistent(ObjectId{o})) return false;
  }
  return true;
}

}  // namespace

RunStats run_state(repl::StateSystem& sys, const Trace& trace, bool drive_to_consistency) {
  OPTREP_SPAN("wl.run_state");
  RunStats stats;
  std::vector<SiteId> creators(trace.n_objects, SiteId{});
  std::uint64_t entry_no = 0;
  for (const Event& ev : trace.events) {
    switch (ev.type) {
      case Event::Type::kCreate:
        creators[ev.obj.value] = ev.site;
        sys.create_object(ev.site, ev.obj, "entry-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      case Event::Type::kUpdate: {
        if (!ensure_replica(sys, stats, ev.site, ev.obj, {creators[ev.obj.value]})) {
          ++stats.skipped;
          break;
        }
        if (sys.replica(ev.site, ev.obj).conflicted) {
          ++stats.skipped;
          break;
        }
        sys.update(ev.site, ev.obj, "entry-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      }
      case Event::Type::kSync: {
        if (!sys.has_replica(ev.peer, ev.obj)) {
          ++stats.skipped;
          break;
        }
        const auto out = sys.sync(ev.site, ev.peer, ev.obj);
        ++stats.syncs;
        if (out.relation == vv::Ordering::kConcurrent) ++stats.conflicts;
        break;
      }
    }
  }

  if (drive_to_consistency &&
      sys.config().policy == repl::ResolutionPolicy::kAutomatic) {
    // Anti-entropy sweeps: ring passes in both directions until stable.
    for (std::uint32_t round = 0; round < 4 * trace.n_sites + 8; ++round) {
      OPTREP_SPAN("wl.anti_entropy");
      bool all_consistent = true;
      for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
        const ObjectId obj{o};
        auto hosts = sys.hosts_of(obj);
        if (hosts.size() < 2) continue;
        for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
          sys.sync(hosts[i + 1], hosts[i], obj);
          ++stats.syncs;
        }
        for (std::size_t i = hosts.size() - 1; i > 0; --i) {
          sys.sync(hosts[i - 1], hosts[i], obj);
          ++stats.syncs;
        }
        if (!sys.replicas_consistent(obj)) all_consistent = false;
      }
      stats.anti_entropy_rounds = round + 1;
      // The round checked every object after its last session touched it.
      stats.eventually_consistent = all_consistent;
      if (all_consistent) break;
    }
  }
  if (stats.anti_entropy_rounds == 0) {
    stats.eventually_consistent = all_replicas_consistent(sys, trace.n_objects);
  }
  return stats;
}

RunStats run_state_parallel(repl::StateSystem& sys, const Trace& trace,
                            rt::ThreadPool& pool, bool drive_to_consistency,
                            repl::StateSystem::BatchStats* batch_stats) {
  OPTREP_SPAN("wl.run_state_parallel");
  using BE = repl::StateSystem::BatchEvent;
  RunStats stats;

  // Takes the batch by value: its events are freed as soon as it ran.
  const auto run = [&](std::vector<BE> batch) {
    std::vector<repl::SyncOutcome> outs;
    if (batch.empty()) return outs;
    repl::StateSystem::BatchStats bs;
    outs = sys.run_batch(batch, pool, &bs);
    if (batch_stats != nullptr) {
      batch_stats->waves += bs.waves;
      batch_stats->max_wave_items =
          std::max(batch_stats->max_wave_items, bs.max_wave_items);
      batch_stats->olock.acquisitions += bs.olock.acquisitions;
      batch_stats->olock.opt_retries += bs.olock.opt_retries;
      batch_stats->olock.queue_waits += bs.olock.queue_waits;
    }
    return outs;
  };

  // Driver-side presence simulation: run_state decides skips and injected
  // creator syncs by querying the system mid-trace; a batch defers execution,
  // so the same decisions are replayed here against a presence set — a
  // replica exists after its create, or after any sync that targeted it
  // (even a failed pull creates the empty receiver replica).
  ReplicaSet present;
  for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
    for (const SiteId s : sys.hosts_of(ObjectId{o})) present.insert(s, ObjectId{o});
  }

  std::vector<SiteId> creators(trace.n_objects, SiteId{});
  std::vector<BE> ev;
  ev.reserve(trace.events.size());
  // Batch indexes of the trace's own kSync events — the only sessions whose
  // conflicts run_state counts (injected and anti-entropy syncs are not).
  std::vector<std::size_t> conflict_slots;
  std::uint64_t entry_no = 0;
  for (const Event& e : trace.events) {
    switch (e.type) {
      case Event::Type::kCreate:
        creators[e.obj.value] = e.site;
        ev.push_back({BE::Type::kCreate, e.site, SiteId{}, e.obj,
                      "entry-" + std::to_string(entry_no++)});
        present.insert(e.site, e.obj);
        ++stats.updates;
        break;
      case Event::Type::kUpdate: {
        if (!present.contains(e.site, e.obj)) {
          const SiteId host = creators[e.obj.value];
          if (host == e.site || !present.contains(host, e.obj)) {
            ++stats.skipped;
            break;
          }
          ev.push_back({BE::Type::kSync, e.site, host, e.obj, {}});
          present.insert(e.site, e.obj);
          ++stats.syncs;
        }
        ev.push_back({BE::Type::kUpdate, e.site, SiteId{}, e.obj,
                      "entry-" + std::to_string(entry_no++)});
        ++stats.updates;
        break;
      }
      case Event::Type::kSync:
        if (!present.contains(e.peer, e.obj)) {
          ++stats.skipped;
          break;
        }
        ev.push_back({BE::Type::kSync, e.site, e.peer, e.obj, {}});
        conflict_slots.push_back(ev.size() - 1);
        present.insert(e.site, e.obj);
        ++stats.syncs;
        break;
    }
  }
  {
    // Freed before the anti-entropy rounds allocate theirs.
    const std::vector<repl::SyncOutcome> outs = run(std::move(ev));
    for (const std::size_t i : conflict_slots) {
      if (outs[i].relation == vv::Ordering::kConcurrent) ++stats.conflicts;
    }
  }

  if (drive_to_consistency &&
      sys.config().policy == repl::ResolutionPolicy::kAutomatic) {
    // Anti-entropy sweeps, one batch per round. Each object's forward and
    // back passes chain (every session reads the previous receiver), and
    // the planner runs each chain whole in one shard: a round is one level,
    // the chains of different objects running side by side (see
    // rt/shard.h). Syncs between hosts create no replica, so the round's
    // host lists still hold for its consistency check.
    std::vector<ObjectId> replicated;  // objects with two hosts or more
    for (std::uint32_t round = 0; round < 4 * trace.n_sites + 8; ++round) {
      OPTREP_SPAN("wl.anti_entropy");
      std::vector<BE> round_ev;
      replicated.clear();
      for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
        const ObjectId obj{o};
        const auto hosts = sys.hosts_of(obj);
        if (hosts.size() < 2) continue;
        replicated.push_back(obj);
        for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
          round_ev.push_back({BE::Type::kSync, hosts[i + 1], hosts[i], obj, {}});
        }
        for (std::size_t i = hosts.size() - 1; i > 0; --i) {
          round_ev.push_back({BE::Type::kSync, hosts[i - 1], hosts[i], obj, {}});
        }
      }
      stats.syncs += round_ev.size();
      run(std::move(round_ev));
      stats.eventually_consistent =
          std::all_of(replicated.begin(), replicated.end(),
                      [&sys](ObjectId obj) { return sys.replicas_consistent(obj); });
      stats.anti_entropy_rounds = round + 1;
      if (stats.eventually_consistent) break;
    }
  }
  if (stats.anti_entropy_rounds == 0) {
    stats.eventually_consistent = all_replicas_consistent(sys, trace.n_objects);
  }
  return stats;
}

RunStats run_op(repl::OpSystem& sys, const Trace& trace, bool drive_to_consistency) {
  OPTREP_SPAN("wl.run_op");
  RunStats stats;
  std::vector<SiteId> creators(trace.n_objects, SiteId{});
  std::uint64_t entry_no = 0;
  for (const Event& ev : trace.events) {
    switch (ev.type) {
      case Event::Type::kCreate:
        creators[ev.obj.value] = ev.site;
        sys.create_object(ev.site, ev.obj, "op-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      case Event::Type::kUpdate:
        if (!ensure_replica(sys, stats, ev.site, ev.obj, {creators[ev.obj.value]})) {
          ++stats.skipped;
          break;
        }
        sys.update(ev.site, ev.obj, "op-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      case Event::Type::kSync: {
        if (!sys.has_replica(ev.peer, ev.obj)) {
          ++stats.skipped;
          break;
        }
        const auto out = sys.sync(ev.site, ev.peer, ev.obj);
        ++stats.syncs;
        if (out.relation == vv::Ordering::kConcurrent) ++stats.conflicts;
        break;
      }
    }
  }

  if (drive_to_consistency) {
    for (std::uint32_t round = 0; round < 4 * trace.n_sites + 8; ++round) {
      OPTREP_SPAN("wl.anti_entropy");
      bool all_consistent = true;
      for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
        const ObjectId obj{o};
        std::vector<SiteId> hosts;
        for (std::uint32_t s = 0; s < trace.n_sites; ++s) {
          if (sys.has_replica(SiteId{s}, obj)) hosts.push_back(SiteId{s});
        }
        if (hosts.size() < 2) continue;
        for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
          sys.sync(hosts[i + 1], hosts[i], obj);
          ++stats.syncs;
        }
        for (std::size_t i = hosts.size() - 1; i > 0; --i) {
          sys.sync(hosts[i - 1], hosts[i], obj);
          ++stats.syncs;
        }
        if (!sys.replicas_consistent(obj)) all_consistent = false;
      }
      stats.anti_entropy_rounds = round + 1;
      if (all_consistent) break;
    }
  }
  stats.eventually_consistent = true;
  for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
    if (!sys.replicas_consistent(ObjectId{o})) stats.eventually_consistent = false;
  }
  return stats;
}

}  // namespace optrep::wl
