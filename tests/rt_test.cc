// optrep::rt — deterministic parallel runtime tests: every index runs exactly
// once for any thread count, parallel_sweep returns results in config order,
// task_seed splitting is schedule-independent, observability shards merge
// into the same registry a serial run would have produced, and the level
// planner (rt/shard.h) is safe, order-preserving and ASAP.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "rt/shard.h"
#include "rt/sweep.h"
#include "rt/thread_pool.h"

namespace optrep::rt {
namespace {

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.for_each_index(16, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceForAnyThreadCount) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<std::uint32_t>> hits(kCount);
    pool.for_each_index(kCount, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ThreadPool, WorkerIndexIsDenseAndInRange) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 256;
  std::vector<std::atomic<std::uint32_t>> by_worker(8);
  pool.for_each_index_worker(kCount, [&by_worker](std::size_t, unsigned worker) {
    ASSERT_LT(worker, 4u);
    by_worker[worker].fetch_add(1, std::memory_order_relaxed);
  });
  std::uint32_t total = 0;
  for (const auto& w : by_worker) total += w.load();
  EXPECT_EQ(total, kCount);
}

TEST(ThreadPool, ZeroItemsAndBackToBackJobsWork) {
  ThreadPool pool(3);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "no items to run"; });
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.for_each_index(10, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * 45u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<std::uint32_t>> hits(100);
  parallel_for(pool, 10, 90, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1u : 0u) << i;
  }
}

TEST(TaskSeed, IndependentOfScheduleAndDecorrelated) {
  // Pure function of (base, index): no hidden state to leak schedules into.
  EXPECT_EQ(task_seed(42, 7), task_seed(42, 7));
  EXPECT_NE(task_seed(42, 7), task_seed(42, 8));
  EXPECT_NE(task_seed(42, 7), task_seed(43, 7));
  // Streams from adjacent indexes must diverge immediately.
  Rng a(task_seed(1, 0));
  Rng b(task_seed(1, 1));
  EXPECT_NE(a.next(), b.next());
}

TEST(ParallelSweep, ResultsInConfigOrderForAnyThreadCount) {
  const std::vector<std::uint32_t> configs = [] {
    std::vector<std::uint32_t> v(64);
    std::iota(v.begin(), v.end(), 1);
    return v;
  }();
  const auto model = [](std::uint32_t c, std::size_t idx) {
    // Deterministic per-item work using the split seed.
    Rng rng(task_seed(99, idx));
    return static_cast<std::uint64_t>(c) * 1000 + rng.below(1000);
  };
  ThreadPool serial(1);
  const auto expected = parallel_sweep(serial, configs, model);
  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(parallel_sweep(pool, configs, model), expected)
        << "threads=" << threads;
  }
}

TEST(ObsShards, MergedRegistryMatchesSerialRun) {
  const std::size_t kItems = 200;
  // Serial reference: one registry, all items.
  obs::Registry expected;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected.counter("sweep.items").inc();
    expected.histogram("sweep.value").record(i % 17);
  }
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ObsShards shards(pool.threads());
    std::vector<int> configs(kItems, 0);
    parallel_sweep(pool, configs, shards,
                   [](int, std::size_t idx, ObsShards::Shard& shard) {
                     shard.registry.counter("sweep.items").inc();
                     shard.registry.histogram("sweep.value").record(idx % 17);
                     return 0;
                   });
    obs::Registry merged;
    shards.merge_into(&merged, nullptr);
    EXPECT_EQ(merged.counter("sweep.items").value(), kItems);
    EXPECT_EQ(merged.histogram("sweep.value").count(), kItems);
    EXPECT_EQ(merged.histogram("sweep.value").sum(),
              expected.histogram("sweep.value").sum());
    EXPECT_EQ(merged.histogram("sweep.value").max(),
              expected.histogram("sweep.value").max());
  }
}

TEST(ProgressCell, ReadReturnsWhatPublishWrote) {
  ProgressCell cell;
  const auto zero = cell.read();
  EXPECT_EQ(zero[0], 0u);
  EXPECT_EQ(zero[3], 0u);
  cell.publish(3, 40, 500);
  const auto snap = cell.read();
  EXPECT_EQ(snap[0], 3u);
  EXPECT_EQ(snap[1], 40u);
  EXPECT_EQ(snap[2], 500u);
  EXPECT_EQ(snap[3], 3u + 40u + 500u);  // checksum word
}

TEST(ProgressCell, ConcurrentReadersNeverObserveTornSnapshots) {
  // Seqlock torture: a writer publishes related triples whose checksum word
  // ties them together; readers must never see a snapshot where the checksum
  // doesn't match — that would mean a torn (mid-publish) read.
  ProgressCell cell;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = cell.read();
        if (s[0] + s[1] + s[2] != s[3]) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::uint64_t i = 1; i <= 20000; ++i) cell.publish(i, i * 7, i * 131);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  const auto last = cell.read();
  EXPECT_EQ(last[0], 20000u);
  EXPECT_EQ(last[1], 20000u * 7);
  EXPECT_EQ(last[2], 20000u * 131);
}

TEST(ObsShards, HarvestProgressSumsShardCells) {
  ObsShards shards(3);
  shards.shard(0).progress.publish(1, 10, 100);
  shards.shard(2).progress.publish(2, 20, 200);
  const auto total = shards.harvest_progress();
  EXPECT_EQ(total[0], 3u);
  EXPECT_EQ(total[1], 30u);
  EXPECT_EQ(total[2], 300u);
}

TEST(ObsShards, ProfilerAbsorbKeepsSpansAndTotals) {
  ObsShards shards(2);
  shards.profiler(0).record_closed("a", 100, 10, 0, 0);
  shards.profiler(1).record_closed("b", 200, 20, 0, 0);
  prof::Profiler merged(prof::Profiler::kDefaultCapacity);
  shards.merge_into(nullptr, &merged);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.total_recorded(), 2u);
}

// ---- level planner (rt/shard.h) ------------------------------------------

// A random spec over a small key pool so conflicts are dense: every item
// writes one key and, most of the time, reads another (never its own, as in
// the batch engine).
std::vector<WaveItem> random_items(std::uint64_t seed, std::uint32_t n, std::uint32_t n_keys) {
  Rng rng(seed);
  std::vector<WaveItem> items(n);
  for (WaveItem& it : items) {
    it.write_key = 1 + rng.below(n_keys);
    if (rng.chance(0.75)) {
      do {
        it.read_key = 1 + rng.below(n_keys);
      } while (it.read_key == it.write_key);
    }
  }
  return items;
}

// The plan's layout is consistent: `order` is a permutation grouped by
// (level, shard) into runs, every run holds one shard's items of one level
// in spec order, and the waves are the levels 0..max, each nonempty.
void expect_well_formed(const std::vector<WaveItem>& items, const WavePlan& plan) {
  ASSERT_EQ(plan.level.size(), items.size());
  std::vector<std::uint32_t> sorted = plan.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
  const std::uint32_t max_level = *std::max_element(plan.level.begin(), plan.level.end());
  ASSERT_EQ(plan.waves(), max_level + 1u);
  std::uint32_t pos = 0;
  std::uint32_t max_items = 0;
  for (std::size_t w = 0; w < plan.waves(); ++w) {
    ASSERT_LT(plan.wave_runs[w], plan.wave_runs[w + 1]) << "empty level " << w;
    std::unordered_set<std::uint32_t> shards;
    for (std::uint32_t r = plan.wave_runs[w]; r < plan.wave_runs[w + 1]; ++r) {
      const WavePlan::Run& run = plan.runs[r];
      ASSERT_EQ(run.begin, pos);
      ASSERT_LT(run.begin, run.end);
      EXPECT_TRUE(shards.insert(run.shard).second) << "shard split within a level";
      for (std::uint32_t p = run.begin; p < run.end; ++p) {
        const std::uint32_t i = plan.order[p];
        EXPECT_EQ(plan.level[i], w);
        EXPECT_EQ(shard_of(items[i].write_key, plan.n_shards), run.shard);
        if (p > run.begin) {
          EXPECT_LT(plan.order[p - 1], i) << "run not in spec order";
        }
      }
      pos = run.end;
    }
    max_items = std::max(max_items, plan.wave_items(w));
  }
  EXPECT_EQ(pos, items.size());
  EXPECT_EQ(plan.max_wave_items(), max_items);
}

TEST(PlanWaves, RandomSpecsAreSafeOrderedAndAsap) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    const std::uint32_t n_keys = seed % 2 == 0 ? 6 : 40;
    const std::vector<WaveItem> items = random_items(seed, 400, n_keys);
    const WavePlan plan = plan_waves(items, seed % 3 == 0 ? 4 : WavePlan::kDefaultShards);
    expect_well_formed(items, plan);

    // No level holds both a writer and a reader of one key.
    std::vector<std::unordered_set<std::uint64_t>> writes(plan.waves()), reads(plan.waves());
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      writes[plan.level[i]].insert(items[i].write_key);
      if (items[i].read_key != 0) reads[plan.level[i]].insert(items[i].read_key);
    }
    for (std::size_t w = 0; w < plan.waves(); ++w) {
      for (const std::uint64_t k : reads[w]) {
        EXPECT_FALSE(writes[w].contains(k)) << "seed " << seed << " level " << w << " key " << k;
      }
    }

    // Writers of one key run in spec order (execution order = `order`).
    std::unordered_map<std::uint64_t, std::uint32_t> last_writer;
    for (const std::uint32_t i : plan.order) {
      auto [it, fresh] = last_writer.try_emplace(items[i].write_key, i);
      if (!fresh) {
        EXPECT_LT(it->second, i) << "seed " << seed << ": writers reordered";
      }
      it->second = i;
    }

    // ASAP: each item sits on the least level its earlier dependencies allow.
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      std::uint32_t least = 0;
      for (std::uint32_t j = 0; j < i; ++j) {
        if (items[j].write_key == items[i].read_key ||
            (items[j].read_key != 0 && items[j].read_key == items[i].write_key)) {
          least = std::max(least, plan.level[j] + 1);
        }
        if (items[j].write_key == items[i].write_key) least = std::max(least, plan.level[j]);
      }
      EXPECT_EQ(plan.level[i], least) << "seed " << seed << " item " << i;
    }
  }
}

// Executing level by level — runs of one level in an arbitrary order, each
// run in spec order — leaves every key exactly as spec-order execution does.
TEST(PlanWaves, LevelExecutionMatchesSpecOrder) {
  const std::vector<WaveItem> items = random_items(11, 600, 24);
  const auto step = [](std::unordered_map<std::uint64_t, std::uint64_t>& state,
                       const WaveItem& it, std::uint32_t i) {
    const std::uint64_t read = it.read_key != 0 ? state[it.read_key] : 0;
    std::uint64_t& w = state[it.write_key];
    w = mix64(w * 31 + read * 7 + i);
  };
  std::unordered_map<std::uint64_t, std::uint64_t> seq, lev;
  for (std::uint32_t i = 0; i < items.size(); ++i) step(seq, items[i], i);
  const WavePlan plan = plan_waves(items);
  for (std::size_t w = 0; w < plan.waves(); ++w) {
    for (std::uint32_t r = plan.wave_runs[w + 1]; r-- > plan.wave_runs[w];) {
      for (std::uint32_t p = plan.runs[r].begin; p < plan.runs[r].end; ++p) {
        step(lev, items[plan.order[p]], plan.order[p]);
      }
    }
  }
  EXPECT_EQ(seq, lev);
}

// The anti-entropy drive's shape: per object, a forward pass along its host
// list and a back pass, each session reading the previous receiver. A host
// list of length h needs 2·(h−1) levels, however many objects run beside it.
TEST(PlanWaves, HostChainsPlanIntoTwiceTheirLength) {
  const auto key = [](std::uint32_t site, std::uint32_t obj) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{site} << 32) | obj;
  };
  for (const std::uint32_t h : {2u, 3u, 8u, 17u}) {
    std::vector<WaveItem> items;
    for (std::uint32_t o = 0; o < 200; ++o) {
      // Shorter lists beside the longest one must not add levels.
      const std::uint32_t len = o % 4 == 0 ? h : 2 + o % std::max(1u, h - 1);
      for (std::uint32_t k = 0; k + 1 < len; ++k) {
        items.push_back({key((o + k + 1) % 64, o), key((o + k) % 64, o)});
      }
      for (std::uint32_t k = len - 1; k > 0; --k) {
        items.push_back({key((o + k - 1) % 64, o), key((o + k) % 64, o)});
      }
    }
    const WavePlan plan = plan_waves(items);
    expect_well_formed(items, plan);
    EXPECT_EQ(plan.waves(), 2u * (h - 1)) << "host lists of length " << h;
  }
}

TEST(PlanWaves, EmptySpecHasNoWaves) {
  const WavePlan plan = plan_waves({});
  EXPECT_EQ(plan.waves(), 0u);
  EXPECT_EQ(plan.max_wave_items(), 0u);
  EXPECT_TRUE(plan.order.empty());
}

}  // namespace
}  // namespace optrep::rt
