// state-batch: one wl::generate trace (CRV, 128 sites, 4096 objects, 60000
// steps, random-gossip peers) run to eventual consistency three ways on
// fresh StateSystems, oracles on:
//   seq — wl::run_state, one StateSystem::sync at a time;
//   t1  — wl::run_state_parallel through the batch engine on 1 thread;
//   tN  — wl::run_state_parallel on nproc threads.
// The three must agree exactly (RunStats and Totals) and leave every object
// consistent. Untraced runs run seq and tN once as the reference, then
// repeat t1, timed on the thread's CPU clock (session_cpu_ref), and a pass
// of wl::run_state driven from here, timing every StateSystem::sync
// call (p50_ref) and, on the thread's CPU clock, the whole sequential run to
// eventual consistency (converge_cpu_ref). Each is divided by the host
// reference measured around it (HostReference).
//
// Traced runs time the untraced seq and tN runs as the overhead base, then
// drive both engines from here with a span per StateSystem::sync and per
// StateSystem::run_batch call, and read BatchStats and worker CPU.
#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>

#include "repl/state_system.h"
#include "rt/thread_pool.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using optrep::ObjectId;
using optrep::SiteId;
using optrep::repl::StateSystem;
using optrep::repl::SyncOutcome;
using optrep::wl::RunStats;
using optrep::wl::Trace;

constexpr std::uint32_t kSites = 128;
constexpr std::uint32_t kObjects = 4096;
constexpr std::uint32_t kSteps = 60000;
// Latency figures of a sequential pass are summarized over this many
// consecutive chunks of its sessions (summarize_chunks).
constexpr std::size_t kLatencyChunks = 10;

optrep::wl::GeneratorConfig trace_config(std::uint64_t seed) {
  optrep::wl::GeneratorConfig g;
  g.n_sites = kSites;
  g.n_objects = kObjects;
  g.steps = kSteps;
  g.topology = optrep::wl::Topology::kRandomGossip;
  g.seed = seed;
  return g;
}

StateSystem::Config system_config() {
  StateSystem::Config cfg;
  cfg.n_sites = kSites;
  cfg.kind = optrep::vv::VectorKind::kCrv;
  cfg.mode = optrep::vv::TransferMode::kIdeal;
  cfg.cost = optrep::CostModel{.n = kSites, .m = 1 << 16};
  return cfg;
}

bool same_stats(const RunStats& a, const RunStats& b) {
  return a.updates == b.updates && a.syncs == b.syncs && a.skipped == b.skipped &&
         a.conflicts == b.conflicts && a.eventually_consistent == b.eventually_consistent &&
         a.anti_entropy_rounds == b.anti_entropy_rounds;
}

bool same_totals(const StateSystem::Totals& a, const StateSystem::Totals& b) {
  return a.sessions == b.sessions && a.bits == b.bits && a.bytes == b.bytes && a.msgs == b.msgs &&
         a.payload_bytes == b.payload_bytes && a.elems_sent == b.elems_sent &&
         a.elems_applied == b.elems_applied && a.elems_redundant == b.elems_redundant &&
         a.skips == b.skips && a.conflicts_detected == b.conflicts_detected &&
         a.reconciliations == b.reconciliations && a.bound_violations == b.bound_violations;
}

bool all_consistent(const StateSystem& sys) {
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    if (!sys.replicas_consistent(ObjectId{o})) return false;
  }
  return true;
}

// A StateSystem::sync call of the driven sequential pass.
struct SyncSample {
  double seconds{0};
  bool write{false};  // the receiver's replica changed (pulled or reconciled)
};

bool writes_receiver(const SyncOutcome& out) {
  return out.action == SyncOutcome::Action::kPulled ||
         out.action == SyncOutcome::Action::kReconciled;
}

// wl::run_state, driven from here so every StateSystem::sync is timed (and,
// with `log`, a span whose request id is the session's ordinal).
RunStats drive_sequential(StateSystem& sys, const Trace& trace, std::vector<SyncSample>& samples,
                          SpanLog* log) {
  RunStats stats;
  std::uint64_t req = 0;
  const std::uint32_t root = log != nullptr ? log->begin("repl.run_sequential", 0, 0) : 0;
  const auto sync = [&](SiteId dst, SiteId src, ObjectId obj) {
    ++req;
    const std::uint32_t s = log != nullptr ? log->begin("repl.sync", root, req) : 0;
    const std::int64_t t0 = now_ns();
    const SyncOutcome out = sys.sync(dst, src, obj);
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (log != nullptr) log->end(s);
    samples.push_back({dt, writes_receiver(out)});
    ++stats.syncs;
    return out;
  };

  std::vector<SiteId> creators(trace.n_objects, SiteId{});
  std::uint64_t entry_no = 0;
  for (const optrep::wl::Event& ev : trace.events) {
    switch (ev.type) {
      case optrep::wl::Event::Type::kCreate:
        creators[ev.obj.value] = ev.site;
        sys.create_object(ev.site, ev.obj, "entry-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      case optrep::wl::Event::Type::kUpdate: {
        if (!sys.has_replica(ev.site, ev.obj)) {
          const SiteId host = creators[ev.obj.value];
          if (host == ev.site || !sys.has_replica(host, ev.obj)) {
            ++stats.skipped;
            break;
          }
          sync(ev.site, host, ev.obj);
          if (!sys.has_replica(ev.site, ev.obj)) {
            ++stats.skipped;
            break;
          }
        }
        if (sys.replica(ev.site, ev.obj).conflicted) {
          ++stats.skipped;
          break;
        }
        sys.update(ev.site, ev.obj, "entry-" + std::to_string(entry_no++));
        ++stats.updates;
        break;
      }
      case optrep::wl::Event::Type::kSync:
        if (!sys.has_replica(ev.peer, ev.obj)) {
          ++stats.skipped;
          break;
        }
        if (sync(ev.site, ev.peer, ev.obj).relation == optrep::vv::Ordering::kConcurrent) {
          ++stats.conflicts;
        }
        break;
    }
  }
  for (std::uint32_t round = 0; round < 4 * trace.n_sites + 8; ++round) {
    bool consistent = true;
    for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
      const ObjectId obj{o};
      const auto hosts = sys.hosts_of(obj);
      if (hosts.size() < 2) continue;
      for (std::size_t i = 0; i + 1 < hosts.size(); ++i) sync(hosts[i + 1], hosts[i], obj);
      for (std::size_t i = hosts.size() - 1; i > 0; --i) sync(hosts[i - 1], hosts[i], obj);
      if (!sys.replicas_consistent(obj)) consistent = false;
    }
    stats.anti_entropy_rounds = round + 1;
    if (consistent) break;
  }
  stats.eventually_consistent = all_consistent(sys);
  if (log != nullptr) log->end(root);
  return stats;
}

// wl::run_state_parallel, driven from here so every StateSystem::run_batch
// call is a span (request id = batch ordinal: 1 is the trace batch, the rest
// are anti-entropy rounds) and its wall time is kept.
RunStats drive_batches(StateSystem& sys, const Trace& trace, optrep::rt::ThreadPool& pool,
                       StateSystem::BatchStats& bstats, std::vector<double>& batch_s,
                       SpanLog& log) {
  using BE = StateSystem::BatchEvent;
  RunStats stats;
  std::uint64_t req = 0;
  const std::uint32_t root = log.begin("repl.run_batches", 0, 0);
  const auto run = [&](std::vector<BE>&& batch) {
    std::vector<SyncOutcome> outs;
    if (batch.empty()) return outs;
    StateSystem::BatchStats bs;
    const std::uint32_t s = log.begin("repl.run_batch", root, ++req);
    outs = sys.run_batch(batch, pool, &bs);
    batch_s.push_back(log.end(s));
    bstats.waves += bs.waves;
    bstats.max_wave_items = std::max(bstats.max_wave_items, bs.max_wave_items);
    bstats.olock.acquisitions += bs.olock.acquisitions;
    bstats.olock.opt_retries += bs.olock.opt_retries;
    bstats.olock.queue_waits += bs.olock.queue_waits;
    return outs;
  };

  // Presence simulation: the batch defers execution, so skips and injected
  // creator syncs are decided against the set of replicas that will exist.
  const auto pk = [](SiteId s, ObjectId o) {
    return (std::uint64_t{s.value} << 32) | std::uint64_t{o.value};
  };
  std::unordered_set<std::uint64_t> present;
  std::vector<SiteId> creators(trace.n_objects, SiteId{});
  std::vector<BE> ev;
  ev.reserve(trace.events.size());
  std::vector<std::size_t> conflict_slots;
  std::uint64_t entry_no = 0;
  for (const optrep::wl::Event& e : trace.events) {
    switch (e.type) {
      case optrep::wl::Event::Type::kCreate:
        creators[e.obj.value] = e.site;
        ev.push_back({BE::Type::kCreate, e.site, SiteId{}, e.obj,
                      "entry-" + std::to_string(entry_no++)});
        present.insert(pk(e.site, e.obj));
        ++stats.updates;
        break;
      case optrep::wl::Event::Type::kUpdate:
        if (!present.contains(pk(e.site, e.obj))) {
          const SiteId host = creators[e.obj.value];
          if (host == e.site || !present.contains(pk(host, e.obj))) {
            ++stats.skipped;
            break;
          }
          ev.push_back({BE::Type::kSync, e.site, host, e.obj, {}});
          present.insert(pk(e.site, e.obj));
          ++stats.syncs;
        }
        ev.push_back({BE::Type::kUpdate, e.site, SiteId{}, e.obj,
                      "entry-" + std::to_string(entry_no++)});
        ++stats.updates;
        break;
      case optrep::wl::Event::Type::kSync:
        if (!present.contains(pk(e.peer, e.obj))) {
          ++stats.skipped;
          break;
        }
        ev.push_back({BE::Type::kSync, e.site, e.peer, e.obj, {}});
        conflict_slots.push_back(ev.size() - 1);
        present.insert(pk(e.site, e.obj));
        ++stats.syncs;
        break;
    }
  }
  const std::vector<SyncOutcome> outs = run(std::move(ev));
  for (const std::size_t i : conflict_slots) {
    if (outs[i].relation == optrep::vv::Ordering::kConcurrent) ++stats.conflicts;
  }
  for (std::uint32_t round = 0; round < 4 * trace.n_sites + 8; ++round) {
    std::vector<BE> round_ev;
    for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
      const ObjectId obj{o};
      const auto hosts = sys.hosts_of(obj);
      if (hosts.size() < 2) continue;
      for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
        round_ev.push_back({BE::Type::kSync, hosts[i + 1], hosts[i], obj, {}});
      }
      for (std::size_t i = hosts.size() - 1; i > 0; --i) {
        round_ev.push_back({BE::Type::kSync, hosts[i - 1], hosts[i], obj, {}});
      }
    }
    stats.syncs += round_ev.size();
    run(std::move(round_ev));
    stats.anti_entropy_rounds = round + 1;
    if (all_consistent(sys)) break;
  }
  stats.eventually_consistent = all_consistent(sys);
  log.end(root);
  return stats;
}

// One engine run on a fresh system.
struct EngineRun {
  RunStats stats{};
  StateSystem::Totals totals{};
  StateSystem::BatchStats batch{};
  bool consistent{false};
  double wall_s{0};
  ThreadCpu workers{};  // batch engine: the pool's threads, caller included
  double rate() const { return static_cast<double>(totals.sessions) / wall_s; }
};

EngineRun run_engine(const Trace& trace, unsigned threads) {
  EngineRun e;
  StateSystem sys(system_config());
  if (threads == 0) {
    const std::int64_t t0 = now_ns();
    e.stats = optrep::wl::run_state(sys, trace);
    e.wall_s = seconds_since(t0);
  } else {
    const std::vector<int> before = thread_ids();
    optrep::rt::ThreadPool pool(threads);
    std::vector<int> tids = new_threads(before, thread_ids());
    tids.push_back(current_tid());
    const ThreadCpu c0 = sum_thread_cpu(tids);
    const std::int64_t t0 = now_ns();
    e.stats = optrep::wl::run_state_parallel(sys, trace, pool, true, &e.batch);
    e.wall_s = seconds_since(t0);
    e.workers = sum_thread_cpu(tids) - c0;
  }
  e.totals = sys.totals();
  e.consistent = all_consistent(sys);
  return e;
}

}  // namespace

void run_state_batch(const Options& opt, Report& r) {
  const double S = opt.seconds;
  const unsigned nthreads = opt.threads;
  const std::int64_t t_start = now_ns();

  // Set-up: trace generation, timed several times; the last trace is used.
  std::vector<double> setup_s;
  Trace trace;
  for (int i = 0; i < 31; ++i) {
    const std::int64_t t0 = now_ns();
    trace = optrep::wl::generate(trace_config(opt.seed));
    StateSystem sys(system_config());
    setup_s.push_back(seconds_since(t0));
  }

  std::optional<EngineRun> first;
  const auto check_run = [&](const EngineRun& e, const std::string& what) {
    r.attempted += e.totals.sessions;
    const bool ok = e.consistent && e.stats.eventually_consistent && e.totals.sync_failures == 0 &&
                    e.totals.bound_violations == 0;
    if (!ok) r.failed += e.totals.sessions;
    r.check(e.consistent && e.stats.eventually_consistent, what + ": replicas not consistent");
    r.check(e.totals.sync_failures == 0, what + ": sync failures");
    r.check(e.totals.bound_violations == 0, what + ": Table 2 bound violations");
    r.check(e.totals.reconciliations > 0, what + ": no reconciliation ran");
    if (first) {
      r.check(same_stats(e.stats, first->stats), what + ": RunStats differ from the first run");
      r.check(same_totals(e.totals, first->totals), what + ": totals differ from the first run");
    } else {
      first = e;
    }
  };
  const auto check_batch = [&](const EngineRun& e, const std::string& what) {
    const double items = static_cast<double>(e.stats.syncs + e.stats.updates);
    r.check(e.batch.waves > 1, what + ": one wave only");
    r.check(items / static_cast<double>(e.batch.waves) > 1, what + ": mean wave size not above 1");
  };

  if (!opt.trace) {
    // wl::run_state once: the reference the driven passes must reproduce,
    // and the warm-up of the process's heap.
    const EngineRun base = run_engine(trace, 0);
    check_run(base, "run_state");
    // The batch engine on nproc threads once: it must agree with run_state.
    // Its CPU time per session is not a gated figure: the VM draws steal when
    // all its vCPUs are busy, and the engine's threads then spend extra CPU
    // waiting on each other, by 10-25% from run to run.
    const EngineRun all_threads = run_engine(trace, nthreads);
    check_run(all_threads, "run_state_parallel tN");
    check_batch(all_threads, "run_state_parallel tN");

    // Repetitions of two passes, interleaved so that interference from
    // outside the process spreads over both figures; each figure is the
    // median over repetitions: the batch engine on one thread, and
    // wl::run_state driven from here, timing every StateSystem::sync.
    HostReference ref;
    r.check(ref.ok(), "host reference: no loopback connection");
    std::vector<double> t1_cpu_rate, seq_cpu, seq_wall, p50, p99, read_p99, write_p99;
    std::vector<double> session_cpu_ref, p50_ref, converge_ref, ref_ns;
    EngineRun one;
    std::vector<SyncSample> samples;
    samples.reserve(2 * kSteps);
    double rep_s = 0;
    do {
      const std::int64_t rep0 = now_ns();
      const double ref_1 = ref.around([&] { one = run_engine(trace, 1); });
      check_run(one, "run_state_parallel t1");
      check_batch(one, "run_state_parallel t1");
      const double sessions = static_cast<double>(one.totals.sessions);
      const double t1_cpu_ns = static_cast<double>(one.workers.cpu_ns);
      ref_ns.push_back(ref_1);
      t1_cpu_rate.push_back(sessions / (t1_cpu_ns * 1e-9));
      session_cpu_ref.push_back(t1_cpu_ns / sessions / ref_1);
      samples.clear();
      double ref_s = 0;
      {
        StateSystem sys(system_config());
        RunStats ds;
        std::int64_t cpu_ns = 0;
        const std::int64_t s0 = now_ns();
        ref_s = ref.around([&] {
          const std::int64_t c0 = thread_cpu_ns();
          ds = drive_sequential(sys, trace, samples, nullptr);
          cpu_ns = thread_cpu_ns() - c0;
        });
        seq_wall.push_back(seconds_since(s0));
        seq_cpu.push_back(static_cast<double>(cpu_ns) * 1e-9);
        converge_ref.push_back(static_cast<double>(cpu_ns) / ref_s);
        r.check(same_stats(ds, first->stats) && same_totals(sys.totals(), first->totals),
                "driven sequential pass differs from run_state");
        r.check(all_consistent(sys), "driven sequential pass: replicas not consistent");
      }
      std::vector<double> all_us, read_us, write_us;
      for (const SyncSample& x : samples) {
        all_us.push_back(x.seconds * 1e6);
        (x.write ? write_us : read_us).push_back(x.seconds * 1e6);
      }
      const Dist lat = summarize_chunks(all_us, kLatencyChunks);
      p50.push_back(lat.median);
      p50_ref.push_back(lat.median * 1e3 / ref_s);
      p99.push_back(lat.tail);
      read_p99.push_back(summarize_chunks(read_us, kLatencyChunks).tail);
      write_p99.push_back(summarize_chunks(write_us, kLatencyChunks).tail);
      rep_s = seconds_since(rep0);
    } while (t1_cpu_rate.size() < 3 || seconds_since(t_start) + 1.1 * rep_s < 0.95 * S);
    if (!r.correct()) return;

    const auto& t = first->totals;
    r.e2e("setup_s", median_of(setup_s), "s");
    r.e2e("session_cpu_ref", median_of(session_cpu_ref), "ref_rtt");
    r.e2e("p50_ref", median_of(p50_ref), "ref_rtt");
    r.e2e("converge_cpu_ref", median_of(converge_ref), "ref_rtt");
    r.e2e("wire_bytes_per_session",
          static_cast<double>(t.bytes) / static_cast<double>(t.sessions), "B");
    r.e2e("wire_bytes_total", static_cast<double>(t.bytes), "B");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    r.note("reps", static_cast<double>(t1_cpu_rate.size()));
    r.note("threads", static_cast<double>(nthreads));
    r.note("sessions", static_cast<double>(t.sessions));
    r.note("waves", static_cast<double>(all_threads.batch.waves));
    r.note("sync_samples_per_rep", static_cast<double>(samples.size()));
    r.note("ref_rtt_ns", median_of(ref_ns));
    r.note("t1_sessions_per_cpu_s", median_of(t1_cpu_rate));
    r.note("t1_sessions_per_s", one.rate());
    r.note("tn_sessions_per_cpu_s", static_cast<double>(all_threads.totals.sessions) /
                                       (static_cast<double>(all_threads.workers.cpu_ns) * 1e-9));
    r.note("tn_sessions_per_s", all_threads.rate());
    r.note("converge_cpu_s", median_of(seq_cpu));
    r.note("p50_us", median_of(p50));
    r.note("seq_sessions_per_s", static_cast<double>(t.sessions) / median_of(seq_wall));
    r.note("p99_us", median_of(p99));
    r.note("read_p99_us", median_of(read_p99));
    r.note("write_p99_us", median_of(write_p99));
    return;
  }

  // Traced: untraced base runs, then both engines driven with spans.
  // t1 first: it also warms the process's heap for the timed passes after it.
  const EngineRun base_t1 = run_engine(trace, 1);
  check_run(base_t1, "run_state_parallel t1");
  const EngineRun base_seq = run_engine(trace, 0);
  check_run(base_seq, "run_state");
  const EngineRun base_n = run_engine(trace, nthreads);
  check_run(base_n, "run_state_parallel tN");
  check_batch(base_n, "run_state_parallel tN");

  SpanLog log(1);
  log.reserve(2 * first->totals.sessions + 64);
  std::vector<SyncSample> samples;
  samples.reserve(first->totals.sessions);
  double traced_seq_s = 0;
  {
    StateSystem sys(system_config());
    const std::int64_t s0 = now_ns();
    const RunStats ds = drive_sequential(sys, trace, samples, &log);
    traced_seq_s = seconds_since(s0);
    r.check(same_stats(ds, first->stats) && same_totals(sys.totals(), first->totals),
            "traced sequential pass differs from run_state");
  }
  StateSystem::BatchStats bstats;
  std::vector<double> batch_s;
  {
    StateSystem sys(system_config());
    optrep::rt::ThreadPool pool(nthreads);
    const RunStats bs = drive_batches(sys, trace, pool, bstats, batch_s, log);
    r.check(same_stats(bs, first->stats) && same_totals(sys.totals(), first->totals),
            "traced batch pass differs from run_state_parallel");
  }
  r.check(batch_s.size() >= 2, "no anti-entropy batch ran");
  if (!r.correct()) return;

  const double items = static_cast<double>(first->stats.syncs + first->stats.updates);
  r.layer_dist("repl.sync_us", summarize(span_durations_us(log.spans(), "repl.sync")), "us");
  r.layer("repl.batch_call_ms.trace", batch_s.front() * 1e3, "ms");
  r.layer("repl.batch_call_ms.anti_entropy",
          median_of(std::vector<double>(batch_s.begin() + 1, batch_s.end())) * 1e3, "ms");
  r.layer("repl.anti_entropy_rounds", static_cast<double>(first->stats.anti_entropy_rounds),
          "count");
  r.layer("rt.waves", static_cast<double>(base_n.batch.waves), "count");
  r.layer("rt.mean_wave_items", items / static_cast<double>(base_n.batch.waves), "count");
  r.layer("rt.max_wave_items", static_cast<double>(base_n.batch.max_wave_items), "count");
  r.layer("rt.parallel_efficiency",
          static_cast<double>(base_n.workers.cpu_ns) * 1e-9 /
              (base_n.wall_s * static_cast<double>(nthreads)),
          "ratio");
  r.layer("rt.scaling", base_n.rate() / base_t1.rate(), "ratio");
  r.layer("rt.batch_overhead", base_seq.rate() / base_t1.rate(), "ratio");
  r.layer("rt.olock_acquisitions", static_cast<double>(base_n.batch.olock.acquisitions), "count");
  r.layer("rt.olock_opt_retries", static_cast<double>(base_n.batch.olock.opt_retries), "count");
  r.layer("rt.olock_queue_waits", static_cast<double>(base_n.batch.olock.queue_waits), "count");
  r.layer("workload.generate_s", median_of(setup_s), "s");
  r.layer("obs.trace_overhead", traced_seq_s / base_seq.wall_s, "ratio");
  r.layer("obs.trace_base_us_per_session",
          base_seq.wall_s * 1e6 / static_cast<double>(first->totals.sessions), "us");
  r.note("spans", static_cast<double>(log.spans().size()));
  r.note("batches", static_cast<double>(batch_s.size()));
  r.note("threads", static_cast<double>(nthreads));
  if (!opt.span_out.empty()) {
    r.check(write_spans(opt.span_out, opt.workload, {&log}), "cannot write " + opt.span_out);
  }
}

}  // namespace perfbench
