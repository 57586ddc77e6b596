// gossip-heal: a 3·10^4-site small-world SRV ScenarioWorld, 16 writers,
// partition-heal script, run to convergence.
//
// Untraced: whole runs through wl::run_scenario over kWorlds worlds in turn,
// timed on the thread's CPU clock (converge_cpu_ref, session_cpu_ref); every
// run of a world must reproduce its first run's totals exactly. After each
// run, per-exchange latency comes from timed probes of the two calls an
// exchange makes, on inputs shaped like that run (probe_exchanges).
//
// Traced: one untraced run_scenario as the overhead base, then passes the
// benchmark drives round by round through ScenarioWorld::gossip_round with a
// span per world build, phase and round, then the probes. The graph layer is
// measured here too, on a single-writer SYNCG world of the same size and
// mesh (graph_layer).
#include <algorithm>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "sim/scenario.h"
#include "vv/compare.h"
#include "vv/session.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace perfbench {

namespace {

using optrep::sim::ScenarioAlgo;
using optrep::sim::ScenarioWorld;
using optrep::wl::PhaseSpec;

constexpr std::uint32_t kSites = 30000;

struct GossipSpec {
  ScenarioAlgo algo;
  std::uint32_t writers;
  const char* script;
};

ScenarioWorld::Config world_config(const GossipSpec& g, std::uint64_t seed) {
  ScenarioWorld::Config cfg;
  cfg.algo = g.algo;
  cfg.sites = kSites;
  cfg.writers = g.writers;
  cfg.mesh = optrep::sim::MeshKind::kSmallWorld;
  cfg.degree = 2;  // degree 1 disconnects a small-world mesh at this size
  cfg.seed = seed;
  cfg.cost = optrep::CostModel{.n = kSites, .m = 1 << 16};
  return cfg;
}

// The untraced run averages over kWorlds worlds built from seeds derived
// from --seed: the worlds' sizes of work differ by several percent from one
// seed to the next, their mean by half as much.
constexpr std::uint32_t kWorlds = 4;

std::uint64_t world_seed(std::uint64_t seed, std::uint32_t k) { return seed * kWorlds + k; }

bool same_totals(const ScenarioWorld::Totals& a, const ScenarioWorld::Totals& b) {
  return a.rounds == b.rounds && a.updates == b.updates && a.compares == b.compares &&
         a.sessions == b.sessions && a.bits == b.bits && a.wire_bytes == b.wire_bytes &&
         a.msgs == b.msgs && a.elems_applied == b.elems_applied &&
         a.nodes_applied == b.nodes_applied && a.reconciliations == b.reconciliations &&
         a.conflicts_held == b.conflicts_held;
}

std::string totals_json(const ScenarioWorld::Totals& t) {
  return "{\"rounds\":" + std::to_string(t.rounds) + ",\"sessions\":" +
         std::to_string(t.sessions) + ",\"compares\":" + std::to_string(t.compares) +
         ",\"wire_bytes\":" + std::to_string(t.wire_bytes) + ",\"msgs\":" +
         std::to_string(t.msgs) + ",\"elems_applied\":" + std::to_string(t.elems_applied) +
         ",\"nodes_applied\":" + std::to_string(t.nodes_applied) +
         ",\"reconciliations\":" + std::to_string(t.reconciliations) + "}";
}

struct PassResult {
  ScenarioWorld::Totals totals{};
  bool converged{false};
  bool truncated{false};
  double build_s{0};
  double wall_s{0};  // phases only, world build excluded
  double cpu_s{0};   // the same on the thread's CPU clock
  std::vector<double> round_s;  // round-by-round passes: each round's wall time
  optrep::vv::Arena::Stats arena{};
  std::uint64_t replica_bytes{0};
  std::uint64_t mesh_bytes{0};
};

// Whole run through wl::run_scenario.
PassResult run_whole(const ScenarioWorld::Config& cfg, const std::vector<PhaseSpec>& phases) {
  PassResult p;
  const std::int64_t t0 = now_ns();
  ScenarioWorld world(cfg);
  p.build_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  const std::int64_t c1 = thread_cpu_ns();
  const optrep::wl::ScenarioStats st = optrep::wl::run_scenario(world, phases);
  p.cpu_s = static_cast<double>(thread_cpu_ns() - c1) * 1e-9;
  p.wall_s = seconds_since(t1);
  p.totals = st.totals;
  p.converged = st.converged;
  p.truncated = st.quiesce_truncated;
  p.arena = st.arena;
  p.replica_bytes = st.replica_bytes;
  p.mesh_bytes = st.mesh_bytes;
  return p;
}

// The same phases driven round by round from here, mirroring run_scenario's
// semantics for the phase kinds the partition-heal and converge scripts use. With `log`, every build, phase and round gets a span.
PassResult run_rounds(const ScenarioWorld::Config& cfg, const std::vector<PhaseSpec>& phases,
                      SpanLog* log, std::uint64_t request_base) {
  PassResult p;
  const std::uint32_t quiesce_cap = 4 * cfg.sites + 64;
  std::uint32_t root = 0;
  if (log != nullptr) root = log->begin("gossip.pass", 0, request_base);

  std::uint32_t sp = log != nullptr ? log->begin("sim.world_build", root, request_base) : 0;
  const std::int64_t t0 = now_ns();
  ScenarioWorld world(cfg);
  p.build_s = seconds_since(t0);
  if (log != nullptr) log->end(sp);

  const auto round = [&](std::uint32_t phase_span) {
    const std::uint64_t req = request_base + world.totals().rounds + 1;
    std::uint32_t s = 0;
    if (log != nullptr) s = log->begin("sim.gossip_round", phase_span, req);
    const std::int64_t r0 = now_ns();
    world.gossip_round();
    const double dt = seconds_since(r0);
    if (log != nullptr) log->end(s);
    p.round_s.push_back(dt);
  };

  const std::int64_t t1 = now_ns();
  for (const PhaseSpec& ph : phases) {
    std::uint32_t phase_span = 0;
    if (log != nullptr) phase_span = log->begin("gossip.phase", root, request_base);
    switch (ph.kind) {
      case PhaseSpec::Kind::kWarmup:
        for (std::uint32_t u = 0; u < ph.a; ++u) world.local_update(world.next_writer());
        break;
      case PhaseSpec::Kind::kQuiesce: {
        const std::uint32_t cap = ph.a != 0 ? ph.a : quiesce_cap;
        for (std::uint32_t r = 0; r < cap && world.dirty_count() > 0; ++r) round(phase_span);
        if (world.dirty_count() > 0) p.truncated = true;
        break;
      }
      case PhaseSpec::Kind::kPartition:
        world.set_partitioned(true);
        break;
      case PhaseSpec::Kind::kHeal:
        world.set_partitioned(false);
        break;
      default:  // the two scripts use only the phases above
        OPTREP_CHECK_MSG(false, "phase kind not driven round by round");
    }
    if (log != nullptr) log->end(phase_span);
  }
  p.wall_s = seconds_since(t1);
  if (log != nullptr) log->end(root);
  p.totals = world.totals();
  p.converged = world.converged();
  p.arena = world.arena_stats();
  p.replica_bytes = world.replica_memory_bytes();
  p.mesh_bytes = world.mesh().memory_bytes();
  return p;
}

// Exchange probes shaped like the run. An exchange is the COMPARE decision
// (vv::compare_full), which writes nothing, followed — in the run's share of
// exchanges — by the SYNC session that applies the run's mean |Δ| to the
// receiver (vv::sync_rotating on vectors over the writers' sites with the
// run's share of concurrent pairs). An exchange's latency is the sum of its
// calls. A single probe is summarized over kProbeChunks consecutive chunks.
constexpr std::size_t kProbeChunks = 10;

struct ExchangeProbe {
  std::vector<double> compare_ns;   // the COMPARE call
  std::vector<double> sync_us;      // the SYNC call
  std::vector<double> exchange_us;  // every exchange
  std::vector<double> read_us;      // exchanges that only compared
  std::vector<double> write_us;     // exchanges that also synced
};

// Probes for `budget_s`, and until `min_each` exchanges of each kind ran.
ExchangeProbe probe_exchanges(const GossipSpec& g, const ScenarioWorld::Totals& t,
                              std::uint64_t seed, double budget_s, std::size_t min_each,
                              SpanLog* log) {
  using optrep::SiteId;
  using optrep::vv::RotatingVector;
  const double sessions = static_cast<double>(t.sessions);
  const double applied = static_cast<double>(t.elems_applied);
  const auto delta = static_cast<std::uint32_t>(std::max(1.0, applied / sessions + 0.5));
  const double sync_share = sessions / static_cast<double>(t.compares);
  const double conflict_share = static_cast<double>(t.reconciliations) / sessions;
  const std::uint32_t width = g.writers;
  optrep::Rng rng(seed ^ 0x5eedf00dULL);
  optrep::vv::SyncOptions so;
  so.kind = optrep::vv::VectorKind::kSrv;
  so.mode = optrep::vv::TransferMode::kIdeal;
  so.cost = optrep::CostModel{.n = kSites, .m = 1 << 16};

  ExchangeProbe p;
  const std::uint32_t root = log != nullptr ? log->begin("probe.exchanges", 0, 0) : 0;
  std::uint64_t req = 0;
  volatile int sink = 0;  // keeps the compare's result alive
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < budget_s || p.write_us.size() < min_each ||
         p.read_us.size() < min_each) {
    optrep::sim::EventLoop loop;
    const bool sync = rng.uniform() < sync_share;
    RotatingVector a;
    a.reserve(width + 2);
    for (std::uint32_t k = 0; k < 4 * width; ++k) {
      a.record_update(SiteId{static_cast<std::uint32_t>(rng.below(width))});
    }
    RotatingVector b = a;
    b.reserve(width + 2);
    for (std::uint32_t k = 0; k < delta; ++k) {
      b.record_update(SiteId{static_cast<std::uint32_t>(rng.below(width))});
    }
    if (rng.uniform() < conflict_share) a.record_update(SiteId{width});

    ++req;
    const std::int64_t c0 = now_ns();
    const optrep::vv::Ordering rel = optrep::vv::compare_full(a, b);
    const double c_us = static_cast<double>(now_ns() - c0) * 1e-3;
    p.compare_ns.push_back(c_us * 1e3);
    sink = sink + static_cast<int>(rel);
    if (!sync) {
      p.exchange_us.push_back(c_us);
      p.read_us.push_back(c_us);
      continue;
    }
    const std::uint32_t s = log != nullptr ? log->begin("vv.sync_rotating", root, req) : 0;
    const std::int64_t s0 = now_ns();
    optrep::vv::sync_rotating(loop, a, b, so);
    const double s_us = static_cast<double>(now_ns() - s0) * 1e-3;
    if (log != nullptr) log->end(s);
    p.sync_us.push_back(s_us);
    p.exchange_us.push_back(c_us + s_us);
    p.write_us.push_back(c_us + s_us);
  }
  if (log != nullptr) log->end(root);
  return p;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

// The graph layer (SYNCG, which has no workload of its own): a single-writer
// SYNCG world of gossip-heal's size and mesh under the converge script, once
// through wl::run_scenario and once round by round with spans. Both must
// converge, apply graph nodes and agree exactly.
void graph_layer(const Options& opt, Report& r, SpanLog& log) {
  const GossipSpec g{ScenarioAlgo::kSyncg, 1, "converge"};
  std::vector<PhaseSpec> phases;
  std::string err;
  r.check(optrep::wl::parse_scenario_script(g.script, kSites, phases, err), "syncg script: " + err);
  if (!r.correct()) return;
  const ScenarioWorld::Config cfg = world_config(g, opt.seed);
  const PassResult base = run_whole(cfg, phases);
  const PassResult p = run_rounds(cfg, phases, &log, std::uint64_t{1} << 40);
  for (const PassResult* x : {&base, &p}) {
    r.attempted += x->totals.sessions;
    if (!x->converged || x->truncated) r.failed += x->totals.sessions;
  }
  r.check(base.converged && p.converged, "syncg: world did not converge");
  r.check(!base.truncated && !p.truncated, "syncg: a quiesce phase hit its round cap");
  r.check(base.totals.nodes_applied > 0, "syncg: no graph node applied");
  r.check(same_totals(base.totals, p.totals), "syncg: round-by-round totals differ from run_scenario");
  if (!r.correct()) return;
  const auto& t = base.totals;
  const double sessions = static_cast<double>(t.sessions);
  r.layer("graph.nodes_per_session", static_cast<double>(t.nodes_applied) / sessions, "count");
  r.layer("graph.us_per_exchange", sum(p.round_s) * 1e6 / static_cast<double>(t.compares), "us");
  r.layer("graph.bytes_per_session", static_cast<double>(t.wire_bytes) / sessions, "B");
  r.note("syncg_totals", totals_json(t));
}

}  // namespace

void run_gossip_heal(const Options& opt, Report& r) {
  const GossipSpec g{ScenarioAlgo::kSrv, 16, "partition-heal"};
  std::vector<PhaseSpec> phases;
  std::string err;
  r.check(optrep::wl::parse_scenario_script(g.script, kSites, phases, err), "script: " + err);
  if (!r.correct()) return;
  const ScenarioWorld::Config cfg = world_config(g, world_seed(opt.seed, 0));

  std::optional<ScenarioWorld::Totals> first;
  const auto check_pass = [&](const PassResult& p, const std::string& what,
                              std::optional<ScenarioWorld::Totals>& expect) {
    r.attempted += p.totals.sessions;
    if (!p.converged || p.truncated) r.failed += p.totals.sessions;
    r.check(p.converged, what + ": world did not converge");
    r.check(!p.truncated, what + ": a quiesce phase hit its round cap");
    // No empty workloads: the mechanism under test must have run.
    r.check(p.totals.elems_applied > 0, what + ": no element applied");
    r.check(p.totals.reconciliations > 0, what + ": no reconciliation ran");
    // Deterministic totals: every pass over the same world, whole or round
    // by round, traced or not, must do exactly the same work.
    if (expect) {
      r.check(same_totals(p.totals, *expect), what + ": totals differ from the first pass");
    } else {
      expect = p.totals;
    }
  };

  const std::int64_t t_start = now_ns();
  const double budget = opt.seconds;

  if (!opt.trace) {
    // Cycles over kWorlds worlds, each a whole run followed by an exchange
    // probe shaped like it; at least two cycles, so every world runs twice.
    // Each run and each probe is divided by the host reference measured
    // around it (HostReference).
    HostReference ref;
    r.check(ref.ok(), "host reference: no loopback connection");
    std::vector<double> build_s, converge_wall, rate_cpu, session_cpu_ref, p50, p50_ref, p99,
        read_p99, write_p99, ref_ns;
    std::vector<std::vector<double>> world_cpu(kWorlds), world_cpu_ref(kWorlds);
    std::vector<std::optional<ScenarioWorld::Totals>> world_totals(kWorlds);
    double cycle_s = 0;
    int cycles = 0;
    for (; cycles < 2 || seconds_since(t_start) + 1.1 * cycle_s < 0.95 * budget; ++cycles) {
      const std::int64_t c0 = now_ns();
      for (std::uint32_t k = 0; k < kWorlds; ++k) {
        PassResult p;
        const double ref_p =
            ref.around([&] { p = run_whole(world_config(g, world_seed(opt.seed, k)), phases); });
        check_pass(p, "run_scenario world " + std::to_string(k), world_totals[k]);
        const double sessions = static_cast<double>(p.totals.sessions);
        ref_ns.push_back(ref_p);
        build_s.push_back(p.build_s);
        world_cpu[k].push_back(p.cpu_s);
        world_cpu_ref[k].push_back(p.cpu_s * 1e9 / ref_p);
        converge_wall.push_back(p.wall_s);
        rate_cpu.push_back(sessions / p.cpu_s);
        session_cpu_ref.push_back(p.cpu_s * 1e9 / sessions / ref_p);
        ExchangeProbe probe;
        const double ref_e = ref.around([&] {
          probe = probe_exchanges(g, p.totals, world_seed(opt.seed, k) + cycles, 0.01 * budget,
                                  500, nullptr);
        });
        const Dist d = summarize(probe.exchange_us);
        p50.push_back(d.median);
        p50_ref.push_back(d.median * 1e3 / ref_e);
        p99.push_back(d.tail);
        read_p99.push_back(summarize(probe.read_us).tail);
        write_p99.push_back(summarize(probe.write_us).tail);
      }
      cycle_s = seconds_since(c0);
    }
    if (!r.correct()) return;

    ScenarioWorld::Totals sum_t{};
    double converge_cpu = 0, converge_cpu_ref = 0;
    for (std::uint32_t k = 0; k < kWorlds; ++k) {
      sum_t.sessions += world_totals[k]->sessions;
      sum_t.wire_bytes += world_totals[k]->wire_bytes;
      converge_cpu += median_of(world_cpu[k]) / kWorlds;
      converge_cpu_ref += median_of(world_cpu_ref[k]) / kWorlds;
    }
    r.e2e("setup_s", median_of(build_s), "s");
    r.e2e("session_cpu_ref", median_of(session_cpu_ref), "ref_rtt");
    r.e2e("p50_ref", median_of(p50_ref), "ref_rtt");
    r.e2e("converge_cpu_ref", converge_cpu_ref, "ref_rtt");
    r.e2e("wire_bytes_per_session",
          static_cast<double>(sum_t.wire_bytes) / static_cast<double>(sum_t.sessions), "B");
    r.e2e("wire_bytes_total", static_cast<double>(sum_t.wire_bytes) / kWorlds, "B");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    r.note("cycles", static_cast<double>(cycles));
    r.note("ref_rtt_ns", median_of(ref_ns));
    r.note("sessions_per_cpu_s", median_of(rate_cpu));
    r.note("converge_cpu_s", converge_cpu);
    r.note("converge_wall_s", median_of(converge_wall));
    r.note("p50_us", median_of(p50));
    r.note("p99_us", median_of(p99));
    r.note("read_exchange_p99_us", median_of(read_p99));
    r.note("write_exchange_p99_us", median_of(write_p99));
    std::string worlds = "[";
    for (std::uint32_t k = 0; k < kWorlds; ++k) {
      worlds += (k ? "," : "") + totals_json(*world_totals[k]);
    }
    r.note("world_totals", worlds + "]");
    return;
  }

  // Traced: the untraced base, then round-by-round passes with spans, then
  // the probes and the graph layer.
  SpanLog log(1);
  log.reserve(1 << 16);
  const PassResult base = run_whole(cfg, phases);
  check_pass(base, "run_scenario", first);
  std::vector<double> traced_wall, round_s;
  std::uint64_t request_base = 0;
  do {
    const PassResult p = run_rounds(cfg, phases, &log, request_base);
    check_pass(p, "traced round-by-round", first);
    traced_wall.push_back(p.wall_s);
    round_s.insert(round_s.end(), p.round_s.begin(), p.round_s.end());
    request_base += 1u << 20;
  } while (traced_wall.size() < 2 ||
           (seconds_since(t_start) + 1.6 * base.wall_s < 0.6 * budget && traced_wall.size() < 8));
  if (!r.correct()) return;
  const ExchangeProbe probe = probe_exchanges(g, base.totals, opt.seed, 0.04 * budget, 2000, &log);

  const auto& t = base.totals;
  const double sessions = static_cast<double>(t.sessions);
  const double exchanges = static_cast<double>(t.compares) * static_cast<double>(traced_wall.size());

  r.layer_dist("sim.round_us", summarize(span_durations_us(log.spans(), "sim.gossip_round")),
               "us");
  r.layer("sim.exchanges_per_round",
          static_cast<double>(t.compares) / static_cast<double>(t.rounds), "count");
  r.layer("sim.us_per_exchange", sum(round_s) * 1e6 / exchanges, "us");
  r.layer("sim.sessions_per_compare", sessions / static_cast<double>(t.compares), "ratio");
  r.layer("sim.arena_high_water_bytes", static_cast<double>(base.arena.high_water_bytes), "B");
  r.layer("sim.arena_retired_bytes", static_cast<double>(base.arena.retired_bytes), "B");
  r.layer("sim.replica_bytes", static_cast<double>(base.replica_bytes), "B");
  r.layer("sim.mesh_bytes", static_cast<double>(base.mesh_bytes), "B");
  r.layer("sim.build_s", median_of(span_durations_us(log.spans(), "sim.world_build")) * 1e-6,
          "s");
  r.layer_dist("vv.sync_us", summarize_chunks(probe.sync_us, kProbeChunks), "us");
  r.layer_dist("vv.compare_full_ns", summarize_chunks(probe.compare_ns, kProbeChunks), "ns");
  r.layer("vv.msgs_per_elem", static_cast<double>(t.msgs) / static_cast<double>(t.elems_applied),
          "ratio");
  r.layer("vv.elems_per_session", static_cast<double>(t.elems_applied) / sessions, "count");
  r.layer("obs.trace_overhead", median_of(traced_wall) / base.wall_s, "ratio");
  r.layer("obs.trace_base_us_per_session", base.wall_s * 1e6 / sessions, "us");
  r.note("traced_passes", static_cast<double>(traced_wall.size()));
  r.note("totals", totals_json(t));
  graph_layer(opt, r, log);
  r.note("spans", static_cast<double>(log.spans().size()));
  if (!opt.span_out.empty()) {
    r.check(write_spans(opt.span_out, opt.workload, {&log}), "cannot write " + opt.span_out);
  }
}

}  // namespace perfbench
