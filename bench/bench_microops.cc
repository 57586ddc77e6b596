// Micro-operation benchmarks for the RotatingVector hot paths that the flat
// site index (src/vv/flat_index.h) accelerates: record_update, rotate_after,
// value lookup, erase, and COMPARE.
//
// Two kinds of output:
//   * BM_* wall-clock microbenchmarks — machine-dependent, never gated.
//   * structural rows in BENCH_microops.json — flat-index probe statistics,
//     index footprint and an order checksum after a fixed churn workload.
//     These carry only model-derived integers, so the smoke rows are
//     byte-identical on every machine and serve as the committed baseline
//     for the optrep_report regression gate ("probe" metrics gate on any
//     probe-chain growth; the checksum pins the ≺ order itself).
// A locked_churn row family replays the same churn under the vector's
// embedded optimistic versioned lock (rt/olock.h) — guarded mutations plus a
// validated optimistic readback — and pins the single-threaded lock traffic
// (acquisitions exact, retries/queue waits 0) and that the result is
// bit-identical to the unlocked run.
// A third row family measures the telemetry contract (src/obs/timeline.h):
// with sampling off, a steady-state sync session must touch the allocator
// zero times (timeline_off_allocs, gated at its committed baseline of 0);
// with sampling on, a fixed state-transfer run pins the timeline's sample /
// series counts and exported byte size — all model-derived integers. The
// causal-tracing family (src/obs/causal.h) makes the same two claims:
// causal_off_allocs and causal_on_allocs are both gated at 0 (the tracer's
// ring is sized at construction, so even tracing-on steady state stays off
// the allocator), and a fixed run pins the optrep.causal/v1 dump shape.
// The compare_full row pins the exact rotating-vector comparisons
// (compare_full, same_values) at 0 allocations as well.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "obs/causal.h"
#include "obs/timeline.h"
#include "repl/state_system.h"
#include "rt/olock.h"
#include "workload/trace.h"

// Global allocation counter (same pattern as tests/obs_test.cc): every path
// through operator new bumps it, so the sampling-overhead row can report how
// many heap allocations a measured region performed. Atomic because the
// sweep pool's workers allocate concurrently.
static std::atomic<std::uint64_t> g_alloc_count{0};

// GCC pairs the replaced operators against the built-in malloc/free and warns
// spuriously; replacement operators routing through malloc are well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

using namespace optrep;
using namespace optrep::bench;

namespace {

// FNV-1a over the iteration order, values and flag bits: any change to the
// ≺ list or the element payloads changes the hash.
std::uint64_t order_hash(const vv::RotatingVector& v) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  for (const auto& e : v) {
    mix(e.site.value);
    mix(e.value);
    mix((e.segment ? 2u : 0u) | (e.conflict ? 1u : 0u));
  }
  return h;
}

struct OpsRow {
  std::uint64_t size{0};
  std::uint64_t probe_total{0};
  std::uint64_t probe_max{0};
  std::uint64_t index_bytes{0};
  std::uint64_t order{0};
};

// Deterministic churn: build a linear history, erase every third site
// (exercising backward-shift deletion and segment-bit carry), re-insert a
// subset at the front, then run a few update rounds. The final probe stats
// measure the index the workload actually leaves behind — tombstone-free
// deletion keeps the chains short, which is exactly what the gate pins.
OpsRow churn(std::uint32_t n) {
  vv::RotatingVector v = linear_history(n);
  for (std::uint32_t i = 0; i < n; i += 3) v.erase(SiteId{i});
  for (std::uint32_t i = 0; i < n; i += 6) {
    v.rotate_after(std::nullopt, SiteId{i});
    v.set_element(SiteId{i}, i + 1, false, false);
  }
  for (std::uint32_t round = 0; round < 4; ++round) {
    for (std::uint32_t i = 1; i < n; i += 2) v.record_update(SiteId{i});
  }
  const auto ps = v.index_probe_stats();
  return {v.size(), ps.total, ps.max, ps.bytes, order_hash(v)};
}

// ---- optimistic-lock overhead on the churn workload (gated) ---------------

// The identical churn run with every mutation under the vector's embedded
// versioned lock (rt/olock.h) and a post-churn readback of every site slot
// through a validated optimistic read. Single-threaded, so the lock traffic
// is a pure function of the workload: acquisitions counts the guarded
// mutation blocks exactly, opt_retries and queue_waits are 0 (nobody to
// interfere), every readback validates first try, and the order hash must
// equal the unlocked run's — the lock changes synchronization, never
// results. The committed baseline pins all of it; any retry or hash drift
// fails the report gate.
struct LockedRow {
  OpsRow ops;
  std::uint64_t acquisitions{0};
  std::uint64_t opt_retries{0};
  std::uint64_t queue_waits{0};
  std::uint64_t validated_reads{0};
};

LockedRow locked_churn(std::uint32_t n) {
  vv::RotatingVector v = linear_history(n);
  v.olock().reset_counters();
  for (std::uint32_t i = 0; i < n; i += 3) {
    rt::OLockGuard g(v.olock());
    v.erase(SiteId{i});
  }
  for (std::uint32_t i = 0; i < n; i += 6) {
    rt::OLockGuard g(v.olock());
    v.rotate_after(std::nullopt, SiteId{i});
    v.set_element(SiteId{i}, i + 1, false, false);
  }
  for (std::uint32_t round = 0; round < 4; ++round) {
    rt::OLockGuard g(v.olock());
    for (std::uint32_t i = 1; i < n; i += 2) v.record_update(SiteId{i});
  }
  LockedRow row;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t sink = 0;
    if (rt::optimistic_read(v.olock(), 4, [&] { sink = v.value(SiteId{i}); })) {
      ++row.validated_reads;
    }
    benchmark::DoNotOptimize(sink);
  }
  const auto ps = v.index_probe_stats();
  row.ops = {v.size(), ps.total, ps.max, ps.bytes, order_hash(v)};
  const rt::OLock::Counters c = v.olock().counters();
  row.acquisitions = c.acquisitions;
  row.opt_retries = c.opt_retries;
  row.queue_waits = c.queue_waits;
  return row;
}

// ---- telemetry sampling overhead (gated) ----------------------------------

// Heap allocations performed by one steady-state SRV sync session with all
// sampling off (no timeline, no recorder, no tracer) — the telemetry-disabled
// hot path. The committed baseline is 0; the "timeline" gate rule fails the
// report on any increase, so telemetry can never silently put the per-message
// path back on the allocator. Mirrors obs_test's HotPath setup: warm one
// session to size every retained buffer, then measure the second.
std::uint64_t timeline_off_allocs() {
  constexpr std::uint32_t kSites = 24;
  constexpr std::uint32_t kMissing = 8;
  vv::RotatingVector base;
  for (std::uint32_t i = 0; i < kSites - kMissing; ++i) base.record_update(SiteId{i});
  vv::RotatingVector b = base;
  for (std::uint32_t i = kSites - kMissing; i < kSites; ++i) b.record_update(SiteId{i});

  vv::SyncOptions opt;
  opt.kind = vv::VectorKind::kSrv;
  opt.mode = vv::TransferMode::kPipelined;
  opt.cost = CostModel{.n = kSites, .m = 1 << 16};
  opt.known_relation = vv::Ordering::kBefore;

  sim::EventLoop loop;
  loop.reserve(4 * kSites);
  vv::RotatingVector warm = base;
  warm.reserve(kSites);
  vv::sync_rotating(loop, warm, b, opt);

  vv::RotatingVector a = base;
  a.reserve(kSites);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(vv::sync_rotating(loop, a, b, opt));
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// Same contract for causal tracing (src/obs/causal.h): with no tracer wired
// the per-message path is identical to the telemetry-off build, and with a
// tracer attached the steady state is ring writes only — the tracer's buffer
// is sized once at construction, so a warmed traced session must also touch
// the allocator zero times. Both rows are gated at their committed baseline
// of 0 (the "causal" / "timeline" report rules).
std::uint64_t causal_session_allocs(obs::CausalTracer* causal) {
  constexpr std::uint32_t kSites = 24;
  constexpr std::uint32_t kMissing = 8;
  vv::RotatingVector base;
  for (std::uint32_t i = 0; i < kSites - kMissing; ++i) base.record_update(SiteId{i});
  vv::RotatingVector b = base;
  for (std::uint32_t i = kSites - kMissing; i < kSites; ++i) b.record_update(SiteId{i});

  vv::SyncOptions opt;
  opt.kind = vv::VectorKind::kSrv;
  opt.mode = vv::TransferMode::kPipelined;
  opt.cost = CostModel{.n = kSites, .m = 1 << 16};
  opt.known_relation = vv::Ordering::kBefore;
  opt.causal = causal;
  opt.src_site = SiteId{1};
  opt.dst_site = SiteId{0};

  sim::EventLoop loop;
  loop.reserve(4 * kSites);
  vv::RotatingVector warm = base;
  warm.reserve(kSites);
  vv::sync_rotating(loop, warm, b, opt);

  vv::RotatingVector a = base;
  a.reserve(kSites);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(vv::sync_rotating(loop, a, b, opt));
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// Heap allocations performed by the exact rotating-vector comparisons — the
// scenario engine's exchange decision (compare_full, all four outcomes) and
// StateSystem::replicas_consistent's value equality — on reserved vectors.
// Both walk the vectors in place, so the committed baseline is 0 and the
// "allocs" gate rule fails the report on any increase.
std::uint64_t compare_full_allocs() {
  constexpr std::uint32_t kSites = 24;
  auto make = [] {
    vv::RotatingVector v;
    v.reserve(kSites);
    for (std::uint32_t i = 0; i < kSites; ++i) v.record_update(SiteId{i});
    return v;
  };
  const vv::RotatingVector base = make();
  const vv::RotatingVector equal = make();
  vv::RotatingVector ahead = make();
  ahead.record_update(SiteId{3});
  vv::RotatingVector other = make();
  other.record_update(SiteId{5});

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(vv::compare_full(base, equal));
  benchmark::DoNotOptimize(vv::compare_full(base, ahead));
  benchmark::DoNotOptimize(vv::compare_full(ahead, base));
  benchmark::DoNotOptimize(vv::compare_full(ahead, other));
  benchmark::DoNotOptimize(base.same_values(equal));
  benchmark::DoNotOptimize(base.same_values(ahead));
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// A fixed state-transfer run with causal tracing on: event/span counts and
// the exported optrep.causal/v1 byte size are pure functions of the workload
// — machine-independent integers pinning the dump shape.
struct CausalRow {
  std::uint64_t events{0};
  std::uint64_t spans{0};
  std::uint64_t dropped{0};
  std::uint64_t json_bytes{0};
};

CausalRow causal_on_row() {
  obs::CausalTracer tracer(7);
  repl::StateSystem::Config cfg;
  cfg.n_sites = 8;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.causal = &tracer;
  cfg.cost = CostModel{.n = 8, .m = 1 << 16};
  repl::StateSystem sys(cfg);
  wl::GeneratorConfig g;
  g.n_sites = 8;
  g.n_objects = 1;
  g.steps = 200;
  g.update_prob = 0.5;
  g.seed = 7;
  wl::run_state(sys, wl::generate(g));
  return {tracer.total_recorded(), tracer.spans_opened(), tracer.dropped(),
          obs::causal_to_json(tracer).size()};
}

// A fixed state-transfer run with per-session timeline sampling on: the
// sample/series counts and the exported document's byte size are pure
// functions of the workload, so these rows are byte-identical on every
// machine and pin the optrep.timeline/v1 output shape.
struct SamplingRow {
  std::uint64_t samples{0};
  std::uint64_t series{0};
  std::uint64_t dropped_samples{0};
  std::uint64_t json_bytes{0};
  std::uint64_t divergence_final{0};
};

SamplingRow timeline_on_row() {
  obs::Timeline tl;
  repl::StateSystem::Config cfg;
  cfg.n_sites = 8;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.timeline = &tl;
  cfg.timeline_every = 4;
  cfg.cost = CostModel{.n = 8, .m = 1 << 16};
  repl::StateSystem sys(cfg);
  wl::GeneratorConfig g;
  g.n_sites = 8;
  g.n_objects = 1;
  g.steps = 200;
  g.update_prob = 0.5;
  g.seed = 7;
  wl::run_state(sys, wl::generate(g));
  sys.sample_timeline();
  const std::string json = obs::timeline_to_json(tl);
  const obs::Timeline::Series* div = tl.find("repl.divergence");
  return {tl.samples(), tl.series_count(), tl.dropped_samples(), json.size(),
          div != nullptr && !div->values.empty()
              ? static_cast<std::uint64_t>(div->values.back())
              : std::uint64_t{0}};
}

// ---- wall-clock micro-ops (not gated) -------------------------------------

void BM_RecordUpdateHit(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) v.record_update(SiteId{i++ % n});
  benchmark::DoNotOptimize(v.size());
}
BENCHMARK(BM_RecordUpdateHit)->RangeMultiplier(8)->Range(8, 32768);

void BM_Value(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(v.value(SiteId{i++ % n}));
}
BENCHMARK(BM_Value)->RangeMultiplier(8)->Range(8, 32768);

void BM_RotateAfterFront(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) v.rotate_after(std::nullopt, SiteId{i++ % n});
  benchmark::DoNotOptimize(v.size());
}
BENCHMARK(BM_RotateAfterFront)->RangeMultiplier(8)->Range(8, 4096);

void BM_EraseReinsert(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const SiteId s{i++ % n};
    v.erase(s);
    v.rotate_after(std::nullopt, s);
    v.set_element(s, 1, false, false);
  }
  benchmark::DoNotOptimize(v.size());
}
BENCHMARK(BM_EraseReinsert)->RangeMultiplier(8)->Range(8, 4096);

// Locked-vs-unlocked wall costs of the hot point ops: BM_RecordUpdateLocked
// against BM_RecordUpdateHit prices the writer path (one uncontended MCS
// acquire/release per mutation), BM_ValueOptimistic against BM_Value prices
// a validated optimistic read (two version-word loads around the probe).
void BM_RecordUpdateLocked(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) {
    rt::OLockGuard g(v.olock());
    v.record_update(SiteId{i++ % n});
  }
  benchmark::DoNotOptimize(v.size());
}
BENCHMARK(BM_RecordUpdateLocked)->RangeMultiplier(8)->Range(8, 32768);

void BM_ValueOptimistic(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const vv::RotatingVector v = linear_history(n);
  std::uint32_t i = 0;
  for (auto _ : state) {
    std::uint64_t sink = 0;
    rt::optimistic_read(v.olock(), 4, [&] { sink = v.value(SiteId{i++ % n}); });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_ValueOptimistic)->RangeMultiplier(8)->Range(8, 32768);

void BM_CompareFast(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  vv::RotatingVector b = linear_history(n);
  vv::RotatingVector a = b;
  b.record_update(SiteId{0});
  for (auto _ : state) benchmark::DoNotOptimize(vv::compare_fast(a, b));
}
BENCHMARK(BM_CompareFast)->RangeMultiplier(8)->Range(8, 32768);

}  // namespace

int main(int argc, char** argv) {
  init_bench(&argc, argv);
  std::printf("==== bench_microops: RotatingVector point-op structure ====\n");
  std::printf("(fixed churn workload: linear history, erase 1/3, reinsert 1/6,\n"
              " 4 update rounds; probe stats over the surviving flat index)\n\n");
  std::printf("%-8s | %-8s %-12s %-10s %-12s %-18s\n", "n", "size", "probe_tot",
              "probe_max", "index B", "order hash");
  print_rule(76);
  const std::vector<std::uint32_t> ns =
      smoke() ? std::vector<std::uint32_t>{64, 256}
              : std::vector<std::uint32_t>{64, 256, 1024, 4096, 16384};
  const auto rows =
      sweep(ns, [](std::uint32_t n, std::size_t) { return churn(n); });
  BenchReporter reporter("microops");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OpsRow& r = rows[i];
    std::printf("%-8u | %-8llu %-12llu %-10llu %-12llu %016llx\n", ns[i],
                (unsigned long long)r.size, (unsigned long long)r.probe_total,
                (unsigned long long)r.probe_max, (unsigned long long)r.index_bytes,
                (unsigned long long)r.order);
    obs::JsonWriter w;
    w.begin_object();
    w.field("n", ns[i]);
    w.field("size", r.size);
    w.field("probe_total", r.probe_total);
    w.field("probe_max", r.probe_max);
    w.field("index_bytes", r.index_bytes);
    w.field("order_hash", r.order);
    w.end_object();
    reporter.add_row(w.take());
  }
  std::printf("\n---- optimistic-lock overhead (same churn, guarded writes +\n"
              "     validated optimistic readback; must be result-identical) ----\n");
  std::printf("%-8s | %-12s %-10s %-10s %-10s %-10s\n", "n", "acquisitions",
              "retries", "qwaits", "validated", "order ok");
  print_rule(70);
  const auto locked_rows =
      sweep(ns, [](std::uint32_t n, std::size_t) { return locked_churn(n); });
  for (std::size_t i = 0; i < locked_rows.size(); ++i) {
    const LockedRow& r = locked_rows[i];
    const bool order_ok = r.ops.order == rows[i].order;
    std::printf("%-8u | %-12llu %-10llu %-10llu %-10llu %s\n", ns[i],
                (unsigned long long)r.acquisitions,
                (unsigned long long)r.opt_retries,
                (unsigned long long)r.queue_waits,
                (unsigned long long)r.validated_reads, order_ok ? "yes" : "NO");
    if (!order_ok) {
      std::fprintf(stderr, "FAIL: locked churn diverged from unlocked at n=%u\n",
                   ns[i]);
      return 1;
    }
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "locked_churn");
    w.field("n", ns[i]);
    w.field("olock_acquisitions", r.acquisitions);
    w.field("olock_opt_retries", r.opt_retries);
    w.field("olock_queue_waits", r.queue_waits);
    w.field("validated_reads", r.validated_reads);
    w.field("order_matches_unlocked", std::uint64_t{1});
    w.field("order_hash", r.ops.order);
    w.end_object();
    reporter.add_row(w.take());
  }
  std::printf("\n---- telemetry sampling overhead "
              "(timeline off: allocs; on: document shape) ----\n");
  const std::uint64_t off_allocs = timeline_off_allocs();
  const SamplingRow on = timeline_on_row();
  std::printf("timeline off: %llu heap allocations in a steady-state session\n",
              (unsigned long long)off_allocs);
  std::printf("timeline on:  %llu samples x %llu series, %llu dropped, "
              "%llu JSON bytes, final divergence %llu\n",
              (unsigned long long)on.samples, (unsigned long long)on.series,
              (unsigned long long)on.dropped_samples, (unsigned long long)on.json_bytes,
              (unsigned long long)on.divergence_final);
  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "timeline_off");
    w.field("timeline_off_allocs", off_allocs);
    w.end_object();
    reporter.add_row(w.take());
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "timeline_on");
    w.field("timeline_samples", on.samples);
    w.field("timeline_series", on.series);
    w.field("timeline_dropped_samples", on.dropped_samples);
    w.field("timeline_json_bytes", on.json_bytes);
    w.field("timeline_divergence_final", on.divergence_final);
    w.end_object();
    reporter.add_row(w.take());
  }
  std::printf("\n---- causal tracing overhead (off: allocs; on: allocs + dump shape) ----\n");
  const std::uint64_t causal_off = causal_session_allocs(nullptr);
  obs::CausalTracer bench_tracer(7);
  const std::uint64_t causal_on = causal_session_allocs(&bench_tracer);
  const CausalRow crow = causal_on_row();
  std::printf("causal off: %llu heap allocations in a steady-state session\n",
              (unsigned long long)causal_off);
  std::printf("causal on:  %llu heap allocations; fixed run: %llu events, "
              "%llu spans, %llu dropped, %llu JSON bytes\n",
              (unsigned long long)causal_on, (unsigned long long)crow.events,
              (unsigned long long)crow.spans, (unsigned long long)crow.dropped,
              (unsigned long long)crow.json_bytes);
  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "causal_off");
    w.field("causal_off_allocs", causal_off);
    w.end_object();
    reporter.add_row(w.take());
  }
  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "causal_on");
    w.field("causal_on_allocs", causal_on);
    w.field("causal_events", crow.events);
    w.field("causal_spans", crow.spans);
    w.field("causal_dropped", crow.dropped);
    w.field("causal_json_bytes", crow.json_bytes);
    w.end_object();
    reporter.add_row(w.take());
  }
  std::printf("\n---- exact vector comparison (compare_full + same_values: allocs) ----\n");
  const std::uint64_t cmp_allocs = compare_full_allocs();
  std::printf("compare_full: %llu heap allocations over four outcomes\n",
              (unsigned long long)cmp_allocs);
  {
    obs::JsonWriter w;
    w.begin_object();
    w.field("scenario", "compare_full");
    w.field("compare_full_allocs", cmp_allocs);
    w.end_object();
    reporter.add_row(w.take());
  }
  reporter.flush();
  std::printf("\n(expected shape: probe_total stays near size — load factor <= 0.75 and\n"
              " backward-shift deletion keep chains short; probe_max stays O(1). The\n"
              " order hash pins the exact ≺ order the churn leaves behind.\n"
              " timeline_off_allocs, causal_off_allocs and causal_on_allocs are gated at 0:\n"
              " telemetry must cost nothing when off, and tracing must stay off the\n"
              " allocator even when on. compare_full_allocs is gated at 0 too: exact\n"
              " comparisons walk both vectors in place.)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
