// Contention benchmarks for the concurrent replica store: the rt::OLock
// versioned lock embedded in vv::RotatingVector and the sharded level engine
// (repl::StateSystem::run_batch) built on it.
//
// Four kinds of output:
//   * structural rows in BENCH_contention.json — per (scenario, threads):
//     level-schedule shape, the schedule-makespan speedup model, optimistic
//     lock traffic, and a conservation checksum of the final fleet state.
//     Every figure is a pure function of the workload spec (the level plan is
//     thread-count independent and lock traffic under the level rules is
//     deterministic), so the smoke rows are byte-identical on every machine
//     and serve as the committed baseline for the optrep_report gate. The
//     read-mostly scenario's modeled 1→8-thread speedup is the scaling claim
//     this PR commits to: >= 3x (asserted here, pinned by the baseline).
//   * the measured wall time of each scenario's batch through the engine on
//     1 and N threads (N = --threads, at least 4), printed beside the model
//     to stdout ONLY (wall time is not deterministic, so it stays out of the
//     JSON); the two runs must end in the same fleet state and traffic, so
//     the --threads=8 determinism run checks the engine on 8 workers;
//   * a real-concurrency exercise — actual reader/writer threads hammering
//     one olock-guarded vector (optimistic reads with writer-queue
//     fallback). Wall-clock figures and validated read counts are machine-
//     and schedule-dependent, so they go to stdout ONLY, never into the
//     JSON. The TSan CI job runs this section and the N-thread engine runs
//     to sweep the lock protocol and the engine for races.
//   * BM_* wall-clock microbenchmarks of the lock primitives — never gated.
//
// Makespan model: a level's sessions are partitioned over 64 write-key shards;
// a shard's sessions run sequentially, shards run on T workers. With unit
// session cost the level's completion time on T workers is bounded below by
//   max(ceil(items / T), max shard load),
// and greedy shard-to-worker packing achieves it to within the usual LPT
// factor; we report the bound, which is exact at T=1 and tight for the
// near-uniform shard loads mix64 produces. Speedup(T) = makespan(1) /
// makespan(T). Read-mostly mixes (distinct receivers pulling from a few hot
// senders — senders are only READ, so they conflict with nobody) pack into
// wide levels and scale; write-heavy mixes (every session mutating one of a
// few hot receivers) serialize into deep shard chains and do not. That split
// is exactly the optimistic-lock-coupling story: readers do not serialize.
// Chains (anti-entropy's forward and back host passes over many objects)
// need one level per link, however many independent chains run side by side.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/export.h"
#include "repl/state_system.h"
#include "rt/olock.h"
#include "rt/shard.h"
#include "rt/thread_pool.h"
#include "vv/rotating_vector.h"

using namespace optrep;
using namespace optrep::bench;

namespace {

using BE = repl::StateSystem::BatchEvent;

struct Scenario {
  const char* name;
  // Builds the batch: about `n_events` sessions over objects 0..k, each
  // replicated on all `n_sites` sites beforehand.
  std::vector<BE> (*build)(std::uint32_t n_sites, std::uint32_t n_events);
};

// Read-mostly: every session pulls into a DISTINCT receiver from one of a
// few hot senders. Senders are read-shared (never written), receivers are
// disjoint, so the whole batch packs into maximally wide levels.
std::vector<BE> build_read_mostly(std::uint32_t n_sites, std::uint32_t n_events) {
  constexpr std::uint32_t kHotSenders = 4;
  std::vector<BE> ev;
  Rng rng(101);
  for (std::uint32_t i = 0; i < n_events; ++i) {
    const SiteId dst{kHotSenders + (i % (n_sites - kHotSenders))};
    const SiteId src{static_cast<std::uint32_t>(rng.below(kHotSenders))};
    ev.push_back({BE::Type::kSync, dst, src, ObjectId{0}, {}});
  }
  return ev;
}

// Write-heavy: every session mutates the same hot receiver, so the whole
// spec is one shard's sequential chain — the serialized end of the spectrum
// (no schedule, optimistic or otherwise, can run two writers to one replica
// concurrently).
std::vector<BE> build_write_heavy(std::uint32_t n_sites, std::uint32_t n_events) {
  std::vector<BE> ev;
  Rng rng(202);
  for (std::uint32_t i = 0; i < n_events; ++i) {
    const SiteId dst{0};
    const SiteId src{1 + static_cast<std::uint32_t>(rng.below(n_sites - 1))};
    ev.push_back({BE::Type::kSync, dst, src, ObjectId{0}, {}});
  }
  return ev;
}

// Mixed 90/10: mostly distinct-receiver pulls with an occasional write burst
// against a hot replica — the paper's gossip workloads look like this.
std::vector<BE> build_mixed(std::uint32_t n_sites, std::uint32_t n_events) {
  std::vector<BE> ev;
  Rng rng(303);
  for (std::uint32_t i = 0; i < n_events; ++i) {
    if (rng.below(10) == 0) {
      ev.push_back({BE::Type::kUpdate, SiteId{1 + static_cast<std::uint32_t>(rng.below(3))},
                    SiteId{}, ObjectId{0}, "w-" + std::to_string(i)});
    } else {
      const SiteId dst{4 + (i % (n_sites - 4))};
      const SiteId src{static_cast<std::uint32_t>(rng.below(4))};
      ev.push_back({BE::Type::kSync, dst, src, ObjectId{0}, {}});
    }
  }
  return ev;
}

// Chains: the anti-entropy drive's shape. Each object's sessions run forward
// along a list of kChainHosts hosts and back again, every session reading
// the replica the previous one wrote; different objects are independent.
constexpr std::uint32_t kChainHosts = 8;
constexpr std::uint32_t kChainLevels = 2 * (kChainHosts - 1);

std::vector<BE> build_chains(std::uint32_t n_sites, std::uint32_t n_events) {
  std::vector<BE> ev;
  for (std::uint32_t o = 0; o < n_events / kChainLevels; ++o) {
    std::vector<SiteId> hosts;
    for (std::uint32_t k = 0; k < kChainHosts; ++k) hosts.push_back(SiteId{(o + k) % n_sites});
    for (std::uint32_t k = 0; k + 1 < kChainHosts; ++k) {
      ev.push_back({BE::Type::kSync, hosts[k + 1], hosts[k], ObjectId{o}, {}});
    }
    for (std::uint32_t k = kChainHosts - 1; k > 0; --k) {
      ev.push_back({BE::Type::kSync, hosts[k - 1], hosts[k], ObjectId{o}, {}});
    }
  }
  return ev;
}

constexpr Scenario kScenarios[] = {
    {"read_mostly", build_read_mostly},
    {"write_heavy", build_write_heavy},
    {"mixed", build_mixed},
    {"chains", build_chains},
};

// Schedule makespan of the plan on T workers, unit session cost (see the
// file comment for why the bound is the right deterministic proxy).
std::uint64_t makespan(const rt::WavePlan& plan, std::uint32_t t) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < plan.waves(); ++w) {
    std::uint64_t max_shard = 0;
    for (std::uint32_t r = plan.wave_runs[w]; r < plan.wave_runs[w + 1]; ++r) {
      max_shard = std::max<std::uint64_t>(max_shard, plan.runs[r].end - plan.runs[r].begin);
    }
    const std::uint64_t spread = (plan.wave_items(w) + t - 1) / t;
    total += std::max(spread, max_shard);
  }
  return total;
}

std::uint32_t objects_of(const std::vector<BE>& ev) {
  std::uint32_t n = 0;
  for (const BE& e : ev) n = std::max(n, e.obj.value + 1);
  return n;
}

// Conservation checksum over the final fleet: FNV over every replica's entry
// count and vector values in object/host/site order. Any cross-thread
// nondeterminism in the engine would shift it.
std::uint64_t fleet_checksum(const repl::StateSystem& sys, std::uint32_t n_sites,
                             std::uint32_t n_objects) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  for (std::uint32_t o = 0; o < n_objects; ++o) {
    for (const SiteId site : sys.hosts_of(ObjectId{o})) {
      const repl::StateReplica& r = sys.replica(site, ObjectId{o});
      mix(site.value);
      mix(r.data.entries.size());
      for (std::uint32_t s = 0; s < n_sites; ++s) mix(r.vector.value(SiteId{s}));
    }
  }
  return h;
}

// The planner is a pure function of the spec, so the engine's private plan
// is rebuilt here from the same keys for the makespan model.
rt::WavePlan plan_of(const std::vector<BE>& ev) {
  const auto key = [](SiteId s, ObjectId o) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{s.value} << 32) | o.value;
  };
  std::vector<rt::WaveItem> items;
  items.reserve(ev.size());
  for (const BE& e : ev) {
    items.push_back({key(e.site, e.obj),
                     e.type == BE::Type::kSync ? key(e.peer, e.obj) : std::uint64_t{0}});
  }
  return rt::plan_waves(items);
}

struct EngineRun {
  repl::StateSystem::BatchStats stats;
  std::uint64_t checksum{0};
  std::uint64_t bits{0};
  double seconds{0};  // wall time of the scenario batch alone
};

// One run of the scenario batch through the real engine on `pool`, on a
// fresh system seeded so that syncs move data: every object is created at
// site 0, pulled by every other site, then updated at every site.
EngineRun run_engine(const std::vector<BE>& ev, std::uint32_t n_sites,
                     rt::ThreadPool& pool) {
  repl::StateSystem::Config cfg;
  cfg.n_sites = n_sites;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = n_sites, .m = 1 << 16};
  repl::StateSystem sys(cfg);

  const std::uint32_t n_objects = objects_of(ev);
  std::vector<BE> seed_ev;
  for (std::uint32_t o = 0; o < n_objects; ++o) {
    for (std::uint32_t s = 0; s < n_sites; ++s) {
      seed_ev.push_back({s == 0 ? BE::Type::kCreate : BE::Type::kSync, SiteId{s},
                         s == 0 ? SiteId{} : SiteId{0}, ObjectId{o},
                         s == 0 ? std::string("base") : std::string{}});
    }
    for (std::uint32_t s = 0; s < n_sites; ++s) {
      seed_ev.push_back({BE::Type::kUpdate, SiteId{s}, SiteId{}, ObjectId{o},
                         "seed-" + std::to_string(s)});
    }
  }
  sys.run_batch(seed_ev, pool);

  EngineRun out;
  const auto t0 = std::chrono::steady_clock::now();
  sys.run_batch(ev, pool, &out.stats);
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.checksum = fleet_checksum(sys, n_sites, n_objects);
  out.bits = sys.totals().bits;
  return out;
}

// The fastest of a few runs: the measured figure least disturbed by the
// rest of the machine.
EngineRun best_run(const std::vector<BE>& ev, std::uint32_t n_sites, rt::ThreadPool& pool) {
  EngineRun best = run_engine(ev, n_sites, pool);
  for (int rep = 1; rep < 3; ++rep) {
    const EngineRun r = run_engine(ev, n_sites, pool);
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

// ---- real-concurrency exercise (stdout only; TSan sweeps it) --------------

struct LiveResult {
  std::uint64_t writes{0};
  std::uint64_t validated{0};
  std::uint64_t fallbacks{0};
  double seconds{0};
};

LiveResult live_readers_vs_writer(std::uint32_t n_readers, std::uint64_t n_writes) {
  vv::RotatingVector vec;
  constexpr std::uint32_t kSites = 32;
  vec.reserve(kSites);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> validated(n_readers, 0);
  std::vector<std::uint64_t> fallbacks(n_readers, 0);
  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < n_readers; ++r) {
    readers.emplace_back([&vec, &stop, &validated, &fallbacks, r] {
      std::uint32_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t sink = 0;
        const SiteId site{i++ % kSites};
        if (rt::optimistic_read(vec.olock(), 8,
                                [&] { sink = vec.value(site); })) {
          ++validated[r];
        } else {
          rt::OLockGuard g(vec.olock());  // documented writer-queue fallback
          sink = vec.value(site);
          ++fallbacks[r];
        }
        benchmark::DoNotOptimize(sink);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n_writes; ++i) {
    rt::OLockGuard g(vec.olock());
    vec.record_update(SiteId{static_cast<std::uint32_t>(i % kSites)});
  }
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  LiveResult res;
  res.writes = n_writes;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (std::uint32_t r = 0; r < n_readers; ++r) {
    res.validated += validated[r];
    res.fallbacks += fallbacks[r];
  }
  return res;
}

// ---- wall-clock lock primitives (not gated) -------------------------------

void BM_OLockUncontendedCycle(benchmark::State& state) {
  rt::OLock lock;
  for (auto _ : state) {
    rt::OLockGuard g(lock);
    benchmark::DoNotOptimize(&lock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OLockUncontendedCycle);

void BM_OLockOptimisticRead(benchmark::State& state) {
  vv::RotatingVector v;
  v.reserve(64);
  for (std::uint32_t i = 0; i < 64; ++i) v.record_update(SiteId{i});
  std::uint32_t i = 0;
  for (auto _ : state) {
    std::uint64_t sink = 0;
    rt::optimistic_read(v.olock(), 8, [&] { sink = v.value(SiteId{i++ % 64}); });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OLockOptimisticRead);

void BM_OLockGuardedRead(benchmark::State& state) {
  vv::RotatingVector v;
  v.reserve(64);
  for (std::uint32_t i = 0; i < 64; ++i) v.record_update(SiteId{i});
  std::uint32_t i = 0;
  for (auto _ : state) {
    rt::OLockGuard g(v.olock());
    benchmark::DoNotOptimize(v.value(SiteId{i++ % 64}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OLockGuardedRead);

}  // namespace

int main(int argc, char** argv) {
  init_bench(&argc, argv);
  const std::uint32_t n_sites = 64;
  const std::uint32_t n_events = smoke() ? 512 : 4096;
  const std::vector<std::uint32_t> thread_counts{1, 2, 4, 8};

  std::printf("==== bench_contention: olock + sharded level engine ====\n");
  std::printf("(%u sites, about %u sessions per scenario; schedule-makespan\n"
              " speedup model over the deterministic 64-shard level plan, then\n"
              " the measured wall time of the batch, best of 3)\n\n",
              n_sites, n_events);
  std::printf("%-12s | %-8s %-6s %-9s %-10s %-12s %-10s\n", "scenario", "threads",
              "waves", "makespan", "speedup", "acquisitions", "checksum");
  print_rule(78);

  BenchReporter reporter("contention");
  std::uint64_t read_mostly_speedup_x1000_t8 = 0;
  rt::ThreadPool pool1(1);
  rt::ThreadPool poolN(std::max(threads(), 4u));
  for (const Scenario& sc : kScenarios) {
    const std::vector<BE> ev = sc.build(n_sites, n_events);
    const rt::WavePlan plan = plan_of(ev);
    const EngineRun run = best_run(ev, n_sites, pool1);
    const EngineRun runN = best_run(ev, n_sites, poolN);
    if (runN.checksum != run.checksum || runN.bits != run.bits ||
        runN.stats.waves != plan.waves() || run.stats.waves != plan.waves()) {
      std::fprintf(stderr, "FAIL: %s: 1- and %u-thread batches disagree\n", sc.name,
                   poolN.threads());
      return 1;
    }
    if (std::string(sc.name) == "chains" && plan.waves() != kChainLevels) {
      std::fprintf(stderr, "FAIL: chains planned into %zu levels, not %u\n",
                   plan.waves(), kChainLevels);
      return 1;
    }
    const std::uint64_t base = makespan(plan, 1);
    for (const std::uint32_t t : thread_counts) {
      const std::uint64_t ms = makespan(plan, t);
      const std::uint64_t speedup_x1000 = ms == 0 ? 0 : base * 1000 / ms;
      if (std::string(sc.name) == "read_mostly" && t == 8) {
        read_mostly_speedup_x1000_t8 = speedup_x1000;
      }
      std::printf("%-12s | %-8u %-6zu %-9llu %llu.%03llux%-4s %-12llu %016llx\n",
                  sc.name, t, plan.waves(), (unsigned long long)ms,
                  (unsigned long long)(speedup_x1000 / 1000),
                  (unsigned long long)(speedup_x1000 % 1000), "",
                  (unsigned long long)run.stats.olock.acquisitions,
                  (unsigned long long)run.checksum);
      obs::JsonWriter w;
      w.begin_object();
      w.field("scenario", sc.name);
      w.field("threads", t);
      w.field("waves", static_cast<std::uint64_t>(plan.waves()));
      w.field("max_wave_items", static_cast<std::uint64_t>(plan.max_wave_items()));
      w.field("modeled_makespan", ms);
      w.field("modeled_speedup_x1000", speedup_x1000);
      w.field("olock_acquisitions", run.stats.olock.acquisitions);
      w.field("olock_opt_retries", run.stats.olock.opt_retries);
      w.field("olock_queue_waits", run.stats.olock.queue_waits);
      w.field("state_checksum", run.checksum);
      w.end_object();
      reporter.add_row(w.take());
    }
    std::printf("%-12s | measured wall: t1 %.3f ms, t%u %.3f ms (%.2fx)\n", sc.name,
                run.seconds * 1e3, poolN.threads(), runN.seconds * 1e3,
                runN.seconds > 0 ? run.seconds / runN.seconds : 0.0);
  }
  reporter.flush();

  // The PR's scaling claim, pinned by the committed baseline and asserted
  // here so a planner regression fails the smoke test loudly.
  std::printf("\nread-mostly modeled speedup 1->8 threads: %llu.%03llux (require >= 3x)\n",
              (unsigned long long)(read_mostly_speedup_x1000_t8 / 1000),
              (unsigned long long)(read_mostly_speedup_x1000_t8 % 1000));
  if (read_mostly_speedup_x1000_t8 < 3000) {
    std::fprintf(stderr,
                 "FAIL: read-mostly wave schedule no longer scales (%llu < 3000)\n",
                 (unsigned long long)read_mostly_speedup_x1000_t8);
    return 1;
  }

  std::printf("\n---- real concurrency (wall clock; machine-dependent, NOT in JSON) ----\n");
  const std::uint64_t live_writes = smoke() ? 20000 : 200000;
  for (const std::uint32_t readers : {1u, 3u}) {
    const LiveResult lr = live_readers_vs_writer(readers, live_writes);
    std::printf("%u readers vs writer: %llu writes in %.3fs (%.1f Mops/s), "
                "%llu validated optimistic reads, %llu queue fallbacks\n",
                readers, (unsigned long long)lr.writes, lr.seconds,
                lr.seconds > 0 ? (double)lr.writes / lr.seconds / 1e6 : 0.0,
                (unsigned long long)lr.validated, (unsigned long long)lr.fallbacks);
  }

  std::printf("\n(expected shape: read_mostly speedup approaches min(threads, shards)\n"
              " because senders are only read — optimistic readers never serialize;\n"
              " write_heavy stays at 1x because every session writes one replica and\n"
              " forms a single sequential shard chain; chains take one level per\n"
              " link however many objects run side by side. opt_retries and\n"
              " queue_waits are 0 by the level invariant: the plan never schedules\n"
              " a reader against an in-flight writer.)\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
