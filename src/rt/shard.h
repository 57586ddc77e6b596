// Sharded level scheduling for replica-disjoint parallel sessions.
//
// The repl batch engine (repl::StateSystem::run_batch) executes a spec-order
// list of operations, each declaring one write key (the replica it mutates)
// and at most one read key (the replica it reads; syncs have one, updates
// none). This header turns that list into a WavePlan: every item gets a
// SHARD and a LEVEL. A level is one pool barrier ("wave"): level l+1 starts
// only after every shard of level l finished, and within a level each shard
// runs its items in spec order on one worker.
//
// Item j DEPENDS on an earlier item d when
//   - d is the last earlier writer of j's read key   (read-after-write),
//   - d is an earlier reader of j's write key        (write-after-read), or
//   - d is the last earlier writer of j's write key  (write-after-write).
//
// Shards follow chains. Scanning in spec order, j is a CHAIN LINK when its
// read key's last writer w is itself a reader (a sync) and j is the first
// item since w to touch that key: j then joins w's shard. Every other item
// is sharded by a SplitMix64 hash of its write key.
//
// Levels are ASAP: j's level is the least L with L >= level(d) + cost(d)
// for every dependency d, where cost(d) is 0 if d sits in j's shard and
// either j is a chain link or d is a write-after-write dependency, and 1
// otherwise. A shard runs a level's items in spec order, so a dependency
// inside it needs no barrier; a chain link uses that to run on its
// predecessor's level. Other items pay a level for any read dependency
// even inside their shard: only a hash collision put them there, and
// joining the dependency's level would lengthen that shard's run without
// the locality a chain gains. A batch with no chain links (no sync reads a
// replica a sync of the batch wrote) therefore plans as pure write-key
// sharding with strict read dependencies.
//
// That execution is EXACTLY equivalent to running the items one by one in
// spec order, for any thread count. cost(d) >= [shard(d) != shard(j)], so
// levels never decrease along a dependency and rise across shards. Two
// items on one level joined by a path of dependencies therefore have the
// whole path on that level and in one shard, which runs it in spec order;
// items on one level in different shards are joined by no path, so no item
// reads or writes a replica that another shard's item of that level writes.
// Every pair of items that touch one key, at least one of them writing it,
// is joined by such a path (through the key's chain of last writers), so
// every conflicting pair runs in spec order.
//
// Anti-entropy's per-object host chains (a forward pass along the host list
// and a back pass, each session reading the previous receiver) thus run
// whole in their first link's shard on one level, beside every other
// object's chain. Levels are contiguous from 0: an item on level l > 0 has
// a dependency on level l − 1, or one on level l in its own shard whose
// dependencies lead down the same way.
// The shard count is fixed (kDefaultShards), NOT derived from the thread
// count, so the plan — and with it the execution order within every shard —
// is identical for --threads=1..N; only which worker runs a shard varies.
// The caller commits side effects in spec order after the last level.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
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
  std::uint64_t write_key{0};  // replica this item mutates (required, nonzero)
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
  std::vector<std::uint32_t> shard;      // shard[i]: the shard item i runs in
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

// Shard and level assignment (see the file comment for the rules and the
// equivalence argument), then a stable two-pass counting sort of the item
// indexes by (level, shard).
inline WavePlan plan_waves(const std::vector<WaveItem>& items,
                           std::uint32_t n_shards = WavePlan::kDefaultShards) {
  WavePlan plan;
  plan.n_shards = n_shards;
  const auto n = static_cast<std::uint32_t>(items.size());
  if (n == 0) return plan;

  // Per key: its last writer's level + 1 (0 = none yet) and shard, whether
  // that writer was a sync no item has touched the key after (the next
  // reader is its chain link), and the highest level any reader of it sat on
  // + 1 with the shard of that level's readers (kMixed when they span shards).
  constexpr std::uint32_t kMixed = ~std::uint32_t{0};
  struct KeyState {
    std::uint32_t write_end{0};
    std::uint32_t write_shard{0};
    bool linkable{false};
    std::uint32_t read_end{0};
    std::uint32_t read_shard{kMixed};
  };
  // Open-addressed over the nonzero keys, at most two per item, so 4n
  // slots keep the table at most half full.
  std::vector<std::uint64_t> slot_keys(std::bit_ceil(std::size_t{4} * n), 0);
  std::vector<KeyState> slot_states(slot_keys.size());
  const auto state_of = [&, mask = slot_keys.size() - 1](std::uint64_t key) -> KeyState& {
    std::size_t i = mix64(key) & mask;
    while (slot_keys[i] != 0 && slot_keys[i] != key) i = (i + 1) & mask;
    slot_keys[i] = key;
    return slot_states[i];
  };
  plan.level.resize(n);
  plan.shard.resize(n);
  std::uint32_t n_levels = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const WaveItem& it = items[i];
    OPTREP_CHECK_MSG(it.write_key != 0, "plan_waves: an item without a write key");
    KeyState* read = it.read_key != 0 ? &state_of(it.read_key) : nullptr;
    KeyState& write = state_of(it.write_key);
    const bool link = read != nullptr && read->linkable;
    const std::uint32_t s = link ? read->write_shard : shard_of(it.write_key, n_shards);
    // Least level after a dependency that ends at `end` (its level + 1) in
    // shard `from`; `free` when sharing the shard costs no level.
    const auto after = [s](std::uint32_t end, std::uint32_t from, bool free) {
      return end == 0 ? 0 : end - 1 + (from == s && free ? 0 : 1);
    };
    std::uint32_t l = std::max(after(write.write_end, write.write_shard, true),
                               after(write.read_end, write.read_shard, link));
    if (read != nullptr) {
      l = std::max(l, after(read->write_end, read->write_shard, link));
      read->linkable = false;
      if (l + 1 > read->read_end) {
        read->read_end = l + 1;
        read->read_shard = s;
      } else if (l + 1 == read->read_end && read->read_shard != s) {
        read->read_shard = kMixed;
      }
    }
    write.write_end = l + 1;
    write.write_shard = s;
    write.linkable = read != nullptr;
    plan.level[i] = l;
    plan.shard[i] = s;
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
  plan.order = counting_sort(counting_sort(spec, plan.shard, n_shards), plan.level, n_levels);

  plan.wave_runs.reserve(n_levels + 1);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint32_t i = plan.order[p];
    const bool new_level = p == 0 || plan.level[i] != plan.level[plan.order[p - 1]];
    if (new_level) plan.wave_runs.push_back(static_cast<std::uint32_t>(plan.runs.size()));
    if (new_level || plan.shard[i] != plan.runs.back().shard) {
      plan.runs.push_back({plan.shard[i], p, p});
    }
    ++plan.runs.back().end;
  }
  plan.wave_runs.push_back(static_cast<std::uint32_t>(plan.runs.size()));
  OPTREP_DCHECK(plan.waves() == n_levels);
  return plan;
}

}  // namespace optrep::rt
