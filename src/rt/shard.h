// Sharded level scheduling for replica-disjoint parallel sessions.
//
// The repl batch engine (repl::StateSystem::run_batch) executes a spec-order
// list of operations, each declaring one write key (the replica it mutates)
// and at most one read key (the replica it reads). This header turns that
// list into a WavePlan:
//
//   - every item is assigned a SHARD by a SplitMix64 hash of its WRITE key,
//     so all writers of the same replica land in the same shard;
//   - every item is assigned the earliest (ASAP) LEVEL its dependencies
//     allow. Scanning in spec order, item i's level is the least L with
//       L >  level of the last earlier writer of i's read key   (read-after-write)
//       L >  level of every earlier reader of i's write key     (write-after-read)
//       L >= level of the last earlier writer of i's write key  (write-after-write)
//     Writers of one key share a shard, so the last rule may put them on the
//     same level: the shard runs them there in spec order.
//
// A level is one pool barrier ("wave"): level l+1 starts only after every
// shard of level l finished, and within a level each shard runs its items in
// spec order on one worker. That execution is EXACTLY equivalent to running
// the items one by one in spec order, for any thread count:
//   - the same level never holds a writer and a reader of one key (rules 1
//     and 2), so no item reads a replica while another item writes it;
//   - an item's read key shows precisely the sequential state: every earlier
//     writer of it sits on a lower level (rule 1, and writer levels never
//     decrease along spec order by rule 3), and every later writer sits on a
//     higher level (rule 2 applied to that writer);
//   - an item's write key is mutated in spec order: earlier writers sit on a
//     lower level or, on the same level, earlier in the same shard run; every
//     earlier reader of it finished on a lower level (rule 2).
// Independent chains therefore overlap: per-object host chains of length h
// (anti-entropy's forward and back passes) need 2·(h−1) levels in all, not
// one barrier per link of every chain. Levels are contiguous from 0: an item
// on level l > 0 depends on an item on level l − 1, directly or through the
// earlier same-level writers of its key.
// The shard count is fixed (kDefaultShards), NOT derived from the thread
// count, so the plan — and with it the execution order within every shard —
// is identical for --threads=1..N; only which worker runs a shard varies.
// The caller commits side effects in spec order after the last level.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace optrep::rt {

// SplitMix64 finalizer (same mix as task_seed in thread_pool.h): decorrelates
// adjacent (site, object) keys so shards load-balance.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::uint32_t shard_of(std::uint64_t write_key, std::uint32_t n_shards) {
  OPTREP_DCHECK(n_shards > 0);
  return static_cast<std::uint32_t>(mix64(write_key) % n_shards);
}

struct WaveItem {
  std::uint64_t write_key{0};  // replica this item mutates (required)
  std::uint64_t read_key{0};   // replica it reads, or 0 for none
};

struct WavePlan {
  // Fixed shard fan-out for replica partitioning. Chosen well above any
  // supported --threads so shard→worker mapping never constrains parallelism,
  // and kept thread-count independent so plans are deterministic.
  static constexpr std::uint32_t kDefaultShards = 64;

  // One shard's items on one level: order[begin, end), in spec order.
  struct Run {
    std::uint32_t shard{0};
    std::uint32_t begin{0};
    std::uint32_t end{0};
  };

  std::uint32_t n_shards{kDefaultShards};
  std::vector<std::uint32_t> level;      // level[i]: the wave item i runs in
  std::vector<std::uint32_t> order;      // item indexes by (level, shard, spec index)
  std::vector<Run> runs;                 // nonempty (level, shard) groups, in order
  std::vector<std::uint32_t> wave_runs;  // wave w: runs[wave_runs[w], wave_runs[w + 1])

  std::size_t waves() const { return wave_runs.empty() ? 0 : wave_runs.size() - 1; }

  std::uint32_t wave_items(std::size_t w) const {
    return runs[wave_runs[w + 1] - 1].end - runs[wave_runs[w]].begin;
  }

  std::uint32_t max_wave_items() const {
    std::uint32_t m = 0;
    for (std::size_t w = 0; w < waves(); ++w) m = std::max(m, wave_items(w));
    return m;
  }
};

// ASAP level assignment (see the file comment for the rules and the
// equivalence argument), then a stable two-pass counting sort of the item
// indexes by (level, shard).
inline WavePlan plan_waves(const std::vector<WaveItem>& items,
                           std::uint32_t n_shards = WavePlan::kDefaultShards) {
  WavePlan plan;
  plan.n_shards = n_shards;
  const auto n = static_cast<std::uint32_t>(items.size());
  if (n == 0) return plan;

  // Per key: 1 + the level of its last writer, and 1 + the highest level of
  // any reader so far (0 = none yet).
  struct KeyState {
    std::uint32_t write_end{0};
    std::uint32_t read_end{0};
  };
  std::unordered_map<std::uint64_t, KeyState> keys;
  keys.reserve(2 * std::size_t{n});
  plan.level.resize(n);
  std::vector<std::uint32_t> shard(n);
  std::uint32_t n_levels = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const WaveItem& it = items[i];
    KeyState* read = it.read_key != 0 ? &keys[it.read_key] : nullptr;
    KeyState& write = keys[it.write_key];
    std::uint32_t l = std::max(write.read_end, write.write_end == 0 ? 0 : write.write_end - 1);
    if (read != nullptr) l = std::max(l, read->write_end);
    write.write_end = l + 1;
    if (read != nullptr) read->read_end = std::max(read->read_end, l + 1);
    plan.level[i] = l;
    shard[i] = shard_of(it.write_key, n_shards);
    n_levels = std::max(n_levels, l + 1);
  }

  // Stable counting sorts: by shard, then by level.
  const auto counting_sort = [n](const std::vector<std::uint32_t>& in,
                                 const std::vector<std::uint32_t>& bucket_of,
                                 std::uint32_t n_buckets) {
    std::vector<std::uint32_t> start(n_buckets + 1, 0);
    for (const std::uint32_t i : in) ++start[bucket_of[i] + 1];
    for (std::uint32_t b = 0; b < n_buckets; ++b) start[b + 1] += start[b];
    std::vector<std::uint32_t> out(n);
    for (const std::uint32_t i : in) out[start[bucket_of[i]]++] = i;
    return out;
  };
  std::vector<std::uint32_t> spec(n);
  for (std::uint32_t i = 0; i < n; ++i) spec[i] = i;
  plan.order = counting_sort(counting_sort(spec, shard, n_shards), plan.level, n_levels);

  plan.wave_runs.reserve(n_levels + 1);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint32_t i = plan.order[p];
    const bool new_level = p == 0 || plan.level[i] != plan.level[plan.order[p - 1]];
    if (new_level) plan.wave_runs.push_back(static_cast<std::uint32_t>(plan.runs.size()));
    if (new_level || shard[i] != plan.runs.back().shard) {
      plan.runs.push_back({shard[i], p, p});
    }
    ++plan.runs.back().end;
  }
  plan.wave_runs.push_back(static_cast<std::uint32_t>(plan.runs.size()));
  OPTREP_DCHECK(plan.waves() == n_levels);
  return plan;
}

}  // namespace optrep::rt
