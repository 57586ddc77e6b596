#include "workload/scenario.h"

#include <algorithm>
#include <charconv>

#include "obs/export.h"

namespace optrep::wl {

namespace {

std::string_view mode_string(vv::TransferMode m) {
  switch (m) {
    case vv::TransferMode::kPipelined: return "pipelined";
    case vv::TransferMode::kStopAndWait: return "saw";
    case vv::TransferMode::kIdeal: return "ideal";
  }
  return "?";
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  if (s.empty()) return false;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

// Split "name:a:b" into up to three fields.
struct Token {
  std::string_view name;
  std::string_view a;
  std::string_view b;
  std::size_t parts{1};
};

Token split_token(std::string_view t) {
  Token tok;
  const std::size_t c1 = t.find(':');
  if (c1 == std::string_view::npos) {
    tok.name = t;
    return tok;
  }
  tok.name = t.substr(0, c1);
  const std::size_t c2 = t.find(':', c1 + 1);
  if (c2 == std::string_view::npos) {
    tok.a = t.substr(c1 + 1);
    tok.parts = 2;
  } else {
    tok.a = t.substr(c1 + 1, c2 - c1 - 1);
    tok.b = t.substr(c2 + 1);
    tok.parts = 3;
  }
  return tok;
}

bool expand_preset(std::string_view script, std::uint32_t sites,
                   std::vector<PhaseSpec>& out) {
  using K = PhaseSpec::Kind;
  // Churn magnitude scales with the world; flash crowds stay bounded so the
  // vector-width headroom they imply does not grow with n.
  const std::uint32_t churn = std::max<std::uint32_t>(1, sites / 16);
  if (script == "converge") {
    out = {{K::kWarmup, 64, 0}, {K::kQuiesce, 0, 0}};
  } else if (script == "partition-heal") {
    out = {{K::kWarmup, 32, 0}, {K::kQuiesce, 0, 0}, {K::kPartition, 0, 0},
           {K::kWarmup, 32, 0}, {K::kQuiesce, 0, 0}, {K::kHeal, 0, 0},
           {K::kQuiesce, 0, 0}};
  } else if (script == "churn") {
    out = {{K::kWarmup, 32, 0}, {K::kChurn, churn, 32}, {K::kQuiesce, 0, 0}};
  } else if (script == "flash-crowd") {
    out = {{K::kWarmup, 16, 0},
           {K::kQuiesce, 0, 0},
           {K::kFlash, std::min<std::uint32_t>(64, sites), 0},
           {K::kQuiesce, 0, 0}};
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool parse_scenario_script(std::string_view script, std::uint32_t sites,
                           std::vector<PhaseSpec>& out, std::string& error) {
  out.clear();
  if (script.empty()) {
    error = "empty scenario script";
    return false;
  }
  if (expand_preset(script, sites, out)) return true;

  std::size_t pos = 0;
  while (pos <= script.size()) {
    const std::size_t comma = script.find(',', pos);
    const std::string_view raw =
        script.substr(pos, comma == std::string_view::npos ? script.size() - pos
                                                           : comma - pos);
    pos = comma == std::string_view::npos ? script.size() + 1 : comma + 1;
    const Token tok = split_token(raw);
    PhaseSpec p;
    auto need_count = [&](std::string_view what, PhaseSpec::Kind kind) {
      if (tok.parts != 2 || !parse_u32(tok.a, p.a) || p.a == 0) {
        error = std::string("phase '") + std::string(tok.name) + "' needs " +
                std::string(what) + " (got '" + std::string(raw) + "')";
        return false;
      }
      p.kind = kind;
      return true;
    };
    if (tok.name == "warmup") {
      if (!need_count("an update count", PhaseSpec::Kind::kWarmup)) return false;
    } else if (tok.name == "gossip") {
      if (!need_count("a round count", PhaseSpec::Kind::kGossip)) return false;
    } else if (tok.name == "flash") {
      if (!need_count("a writer count", PhaseSpec::Kind::kFlash)) return false;
    } else if (tok.name == "quiesce") {
      p.kind = PhaseSpec::Kind::kQuiesce;
      if (tok.parts >= 2 && (!parse_u32(tok.a, p.a) || tok.parts != 2)) {
        error = "quiesce takes an optional round cap (got '" + std::string(raw) + "')";
        return false;
      }
    } else if (tok.name == "churn") {
      if (tok.parts != 3 || !parse_u32(tok.a, p.a) || !parse_u32(tok.b, p.b) ||
          p.a == 0 || p.b == 0) {
        error = "churn needs offline-count and rounds, churn:K:R (got '" +
                std::string(raw) + "')";
        return false;
      }
      p.kind = PhaseSpec::Kind::kChurn;
    } else if (tok.name == "partition") {
      if (tok.parts != 1) {
        error = "partition takes no arguments (got '" + std::string(raw) + "')";
        return false;
      }
      p.kind = PhaseSpec::Kind::kPartition;
    } else if (tok.name == "heal") {
      if (tok.parts != 1) {
        error = "heal takes no arguments (got '" + std::string(raw) + "')";
        return false;
      }
      p.kind = PhaseSpec::Kind::kHeal;
    } else {
      error = "unknown phase '" + std::string(tok.name) +
              "' (expected warmup/gossip/quiesce/churn/partition/heal/flash "
              "or a preset: converge, partition-heal, churn, flash-crowd)";
      return false;
    }
    out.push_back(p);
  }
  return true;
}

std::uint32_t scenario_flash_writers(const std::vector<PhaseSpec>& phases) {
  std::uint32_t total = 0;
  for (const PhaseSpec& p : phases) {
    if (p.kind == PhaseSpec::Kind::kFlash) total += p.a;
  }
  return total;
}

ScenarioStats run_scenario(sim::ScenarioWorld& world, const std::vector<PhaseSpec>& phases,
                           obs::Timeline* timeline, std::uint32_t sample_every,
                           std::uint32_t quiesce_cap) {
  ScenarioStats stats;
  if (sample_every == 0) sample_every = 1;
  if (quiesce_cap == 0) quiesce_cap = 4 * world.config().sites + 64;
  if (timeline != nullptr) timeline->set_axis("rounds");

  bool convergence_seen = world.converged();
  const auto sample = [&](bool with_memory) {
    if (timeline == nullptr) return;
    world.publish_metrics();
    if (with_memory) world.publish_memory_metrics();
    timeline->begin_sample(static_cast<double>(world.totals().rounds));
    timeline->sample_registry(world.metrics());
  };
  const auto after_round = [&] {
    if (!convergence_seen && world.converged()) {
      convergence_seen = true;
      stats.convergence_rounds = world.totals().rounds;
    }
    if (world.totals().rounds % sample_every == 0) sample(true);
  };
  const auto run_rounds = [&](std::uint32_t rounds) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      world.gossip_round();
      after_round();
    }
  };

  for (const PhaseSpec& p : phases) {
    switch (p.kind) {
      case PhaseSpec::Kind::kWarmup:
        for (std::uint32_t u = 0; u < p.a; ++u) {
          world.local_update(world.next_writer());
          convergence_seen = false;
        }
        break;
      case PhaseSpec::Kind::kGossip:
        run_rounds(p.a);
        break;
      case PhaseSpec::Kind::kQuiesce: {
        const std::uint32_t cap = p.a != 0 ? p.a : quiesce_cap;
        std::uint32_t r = 0;
        for (; r < cap && world.dirty_count() > 0; ++r) {
          world.gossip_round();
          after_round();
        }
        if (world.dirty_count() > 0) stats.quiesce_truncated = true;
        break;
      }
      case PhaseSpec::Kind::kChurn:
        world.take_offline(p.a);
        run_rounds(p.b);
        world.bring_online();
        break;
      case PhaseSpec::Kind::kPartition:
        world.set_partitioned(true);
        break;
      case PhaseSpec::Kind::kHeal:
        world.set_partitioned(false);
        break;
      case PhaseSpec::Kind::kFlash:
        for (std::uint32_t j = 0; j < p.a; ++j) {
          world.local_update(world.flash_site(j, p.a));
          convergence_seen = false;
        }
        break;
    }
  }

  // Final instruments: always published (report exporters read them), final
  // timeline sample included when sampling.
  world.publish_metrics();
  world.publish_memory_metrics();
  if (timeline != nullptr) {
    timeline->begin_sample(static_cast<double>(world.totals().rounds));
    timeline->sample_registry(world.metrics());
  }

  stats.totals = world.totals();
  stats.converged = world.converged();
  if (!stats.converged) stats.convergence_rounds = 0;
  stats.arena = world.arena_stats();
  stats.replica_bytes = world.replica_memory_bytes();
  stats.mesh_bytes = world.mesh().memory_bytes();
  return stats;
}

std::string scenario_run_report_json(const sim::ScenarioWorld& world, std::string_view script,
                                     const ScenarioStats& stats) {
  const sim::ScenarioWorld::Config& cfg = world.config();
  const sim::ScenarioWorld::Totals& t = stats.totals;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "optrep.run/v1");
  w.field("command", "scenario");
  w.field("algo", sim::to_string(cfg.algo));
  w.field("mode", mode_string(cfg.mode));
  w.key("workload").begin_object();
  w.field("sites", std::uint64_t{cfg.sites});
  w.field("writers", std::uint64_t{cfg.writers});
  w.field("mesh", sim::to_string(cfg.mesh));
  w.field("degree", std::uint64_t{cfg.degree});
  w.field("edges", world.mesh().edge_count());
  // Computed here, off run_scenario's timed path: one BFS over the mesh.
  w.field("components", std::uint64_t{world.mesh().components()});
  w.field("script", script);
  w.field("seed", cfg.seed);
  w.end_object();
  w.key("run").begin_object();
  w.field("rounds", t.rounds);
  w.field("updates", t.updates);
  w.field("compares", t.compares);
  w.field("sessions", t.sessions);
  w.field("reconciliations", t.reconciliations);
  w.field("conflicts_held", t.conflicts_held);
  w.field("converged", stats.converged);
  w.field("convergence_rounds", stats.convergence_rounds);
  w.field("quiesce_truncated", stats.quiesce_truncated);
  w.end_object();
  w.key("totals").begin_object();
  w.field("bits", t.bits);
  w.field("wire_bytes", t.wire_bytes);
  w.field("msgs", t.msgs);
  w.field("elems_applied", t.elems_applied);
  w.field("nodes_applied", t.nodes_applied);
  w.end_object();
  w.key("memory").begin_object();
  w.field("arena_reserved_bytes", stats.arena.reserved_bytes);
  w.field("arena_live_bytes", stats.arena.live_bytes);
  w.field("arena_retired_bytes", stats.arena.retired_bytes);
  w.field("arena_high_water_bytes", stats.arena.high_water_bytes);
  w.field("arena_slabs", stats.arena.slabs);
  w.field("replica_bytes", stats.replica_bytes);
  w.field("mesh_bytes", stats.mesh_bytes);
  w.end_object();
  w.key("metrics");
  obs::write_metrics(w, world.metrics());
  w.end_object();
  return w.take();
}

}  // namespace optrep::wl
