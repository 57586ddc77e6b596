// FlatSiteIndex: an open-addressed site→slot hash map for RotatingVector.
//
// The site index sits on every point operation of the §3–§4 algorithms —
// value(), rotate_after(), record_update() each do at least one lookup — and
// std::unordered_map pays a pointer chase into a heap node per probe plus a
// node allocation per insert. This index is two parallel flat arrays (SoA:
// 32-bit keys and 32-bit slot indexes) probed linearly over a power-of-two
// table, so a lookup is a multiply, a shift, and a short scan of contiguous
// cache lines, and inserts allocate only on the amortized table doubling.
//
// The arrays are vv::Column (vv/arena.h): heap-backed by default, or carved
// from a per-world Arena after attach_arena() — a million-site world keeps
// its indexes in a handful of slabs instead of two mallocs per replica. An
// arena-backed table that rehashes retires its old arrays in place (still
// mapped) rather than freeing them, which strengthens concurrency rule 1
// below from "never rehash under readers" to "a racing reader reads stale
// mapped cells that validation rejects".
//
// Deletion is tombstone-free: erase() backward-shifts the displaced suffix of
// the probe cluster into the hole (Knuth 6.4 Algorithm R), so long-lived
// vectors with churn (the §7 pruning extension) never degrade into
// tombstone-saturated scans.
//
// The empty marker is a slot value of kNilSlot (0xffffffff). RotatingVector
// caps its slot count below that (it already rejects vectors that large), so
// no stored slot index can collide with the marker and no separate occupancy
// bitmap is needed.
//
// Concurrency (PR 8): the index embeds an rt::OLock and every table-cell and
// size access goes through std::atomic_ref (acquire loads, release stores —
// plain movs on x86), so OPTIMISTIC READERS may race a single writer with
// defined behavior: a reader snapshots olock().read_begin(), probes, then
// read_validate()s; a torn probe (e.g. mid backward-shift) yields a stale or
// bounded-miss answer that validation rejects. Locking is EXTERNAL — the
// structure never locks itself, so single-threaded callers pay nothing.
// Two hard rules for concurrent readers (see docs/PERFORMANCE.md):
//   1. reserve() must have sized the table first: rehash() reallocates the
//      arrays and (heap-backed) would leave a racing reader probing freed
//      memory. Arena-backed tables keep retired arrays mapped, but the
//      reserve discipline still holds — it is what makes probes consistent.
//   2. find() bounds its probe walk at the table capacity. A consistent
//      table terminates every probe at a nil cell far earlier (load ≤ 0.75);
//      only a torn cluster can reach the cap, and that read fails validation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/ids.h"
#include "rt/olock.h"
#include "vv/arena.h"

namespace optrep::vv {

class FlatSiteIndex {
 public:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  FlatSiteIndex() = default;

  // Copies/moves transfer the table but NOT the lock: each instance guards
  // itself with a fresh, unlocked rt::OLock (counters zeroed). Excluded while
  // concurrent readers are active, like every other mutation. Column copy
  // semantics apply: a copy is a heap-backed snapshot, copy-assignment keeps
  // the destination's backing, a moved-from source stays bound to its arena.
  FlatSiteIndex(const FlatSiteIndex& o)
      : keys_(o.keys_), slots_(o.slots_), size_(o.size_), mask_(o.mask_), shift_(o.shift_) {}
  FlatSiteIndex& operator=(const FlatSiteIndex& o) {
    keys_ = o.keys_;
    slots_ = o.slots_;
    size_ = o.size_;
    mask_ = o.mask_;
    shift_ = o.shift_;
    return *this;
  }
  FlatSiteIndex(FlatSiteIndex&& o) noexcept
      : keys_(std::move(o.keys_)),
        slots_(std::move(o.slots_)),
        size_(o.size_),
        mask_(o.mask_),
        shift_(o.shift_) {}
  FlatSiteIndex& operator=(FlatSiteIndex&& o) noexcept {
    keys_ = std::move(o.keys_);
    slots_ = std::move(o.slots_);
    size_ = o.size_;
    mask_ = o.mask_;
    shift_ = o.shift_;
    return *this;
  }

  // Back the table arrays with a per-world arena. Only legal before the
  // first allocation (reserve/insert); see Column::attach_arena.
  void attach_arena(Arena* arena) {
    keys_.attach_arena(arena);
    slots_.attach_arena(arena);
  }

  // Versioned lock guarding this index when used standalone (RotatingVector
  // guards index + slots together with its own lock). Callers lock
  // explicitly; no method below acquires it.
  rt::OLock& olock() const { return olock_; }

  std::size_t size() const { return ld(size_); }
  bool empty() const { return size() == 0; }

  // Slot index of `site`, or kNilSlot when absent. The probe walk is capped
  // at the table capacity: unreachable for a quiescent table (load ≤ 0.75
  // ⇒ every cluster ends at a nil cell), possible only for an optimistic
  // reader racing a writer — which read_validate() then rejects anyway.
  std::uint32_t find(SiteId site) const {
    if (size() == 0) return kNilSlot;
    // shift, mask, slots, keys: the reverse of rehash()'s publication
    // order, so the probe never indexes past the arrays it loaded.
    const unsigned shift = ld(shift_);
    const std::size_t mask = ld(mask_);
    const std::uint32_t* slots = slots_.data_acquire();
    const SiteId* keys = keys_.data_acquire();
    std::size_t i = hash(site, shift);
    for (std::size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
      const std::uint32_t s = ld(slots[i]);
      if (s == kNilSlot) return kNilSlot;
      if (ld(keys[i]) == site) return s;
    }
    return kNilSlot;  // torn cluster under a concurrent writer
  }
  bool contains(SiteId site) const { return find(site) != kNilSlot; }

  // Insert an absent site. `slot` must not equal kNilSlot. The key is
  // published before the cell is marked occupied, so a racing reader that
  // observes the occupied cell also observes its key.
  void insert(SiteId site, std::uint32_t slot) {
    OPTREP_DCHECK(slot != kNilSlot);
    OPTREP_DCHECK(!contains(site));
    if ((ld(size_) + 1) * 4 > capacity() * 3) grow();  // load factor ≤ 0.75
    std::size_t i = home(site);
    while (ld(slots_[i]) != kNilSlot) i = (i + 1) & mask_;
    st(keys_[i], site);
    st(slots_[i], slot);
    st(size_, ld(size_) + 1);
  }

  // Overwrite the slot index of a PRESENT site in place. A pure cell-value
  // store: the probe structure (and probe_stats) are untouched, which is why
  // RotatingVector's slot compaction can relocate slots without perturbing
  // any index-quality baseline number.
  void update(SiteId site, std::uint32_t slot) {
    OPTREP_DCHECK(slot != kNilSlot);
    std::size_t i = home(site);
    for (std::size_t probes = 0; probes <= mask_; ++probes, i = (i + 1) & mask_) {
      OPTREP_CHECK_MSG(ld(slots_[i]) != kNilSlot, "update: site not present");
      if (ld(keys_[i]) == site) {
        st(slots_[i], slot);
        return;
      }
    }
    OPTREP_CHECK_MSG(false, "update: site not present");
  }

  // Remove `site` if present; returns whether it was. Backward-shift: walk
  // the cluster after the hole and move back every entry whose home position
  // does not lie strictly between the hole and it.
  bool erase(SiteId site) {
    if (ld(size_) == 0) return false;
    std::size_t i = home(site);
    for (;; i = (i + 1) & mask_) {
      if (ld(slots_[i]) == kNilSlot) return false;
      if (ld(keys_[i]) == site) break;
    }
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_; ld(slots_[j]) != kNilSlot; j = (j + 1) & mask_) {
      // Distance from j's home to j vs. from the hole to j, both mod table
      // size: if the home is at or before the hole, j may legally move there.
      const std::size_t dist_home = (j - home_of(j)) & mask_;
      const std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home >= dist_hole) {
        st(keys_[hole], ld(keys_[j]));
        st(slots_[hole], ld(slots_[j]));
        hole = j;
      }
    }
    st(slots_[hole], kNilSlot);
    st(size_, ld(size_) - 1);
    return true;
  }

  // Pre-size for `n` sites so steady-state inserts never reallocate (and,
  // with concurrent readers, so they never rehash — rule 1 above).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap <<= 1;
    if (cap > capacity()) rehash(cap);
  }

  // Table footprint in bytes (both arrays, at allocated capacity).
  std::uint64_t memory_bytes() const {
    return keys_.memory_bytes() + slots_.memory_bytes();
  }

  // Index-quality introspection for benches: probe lengths (cells scanned to
  // find each present key, 1 = home hit) and the table footprint. O(capacity);
  // deterministic for a deterministic workload, so suitable as a committed
  // baseline metric.
  struct ProbeStats {
    std::uint64_t total{0};   // Σ probe length over present keys
    std::uint64_t max{0};     // worst single probe length
    std::uint64_t bytes{0};   // table footprint (keys + slots arrays)
  };
  ProbeStats probe_stats() const {
    ProbeStats st;
    st.bytes = capacity() * (sizeof(SiteId) + sizeof(std::uint32_t));
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (ld(slots_[i]) == kNilSlot) continue;
      const std::uint64_t len = ((i - home_of(i)) & mask_) + 1;
      st.total += len;
      if (len > st.max) st.max = len;
    }
    return st;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  // Cell/size accessors: acquire loads and release stores via atomic_ref so
  // an optimistic reader racing the single writer reads defined (if possibly
  // stale) values and the olock validation protocol is sound — see the
  // memory-model note in rt/olock.h. Free on x86; keeps the arrays plainly
  // copyable. C++20 atomic_ref takes a mutable ref, hence the const_cast on
  // the load side (the load itself never writes).
  template <class T>
  static T ld(const T& cell) {
    return std::atomic_ref<T>(const_cast<T&>(cell)).load(std::memory_order_acquire);
  }
  template <class T>
  static void st(T& cell, T v) {
    std::atomic_ref<T>(cell).store(v, std::memory_order_release);
  }

  std::size_t capacity() const { return slots_.size(); }

  // Multiply-shift (Fibonacci) hash of the 32-bit site id, folded onto the
  // table: the high multiplier bits are the best-mixed, so take them via the
  // shift rather than masking the low ones.
  static std::size_t hash(SiteId site, unsigned shift) {
    return (site.value * 0x9e3779b9u) >> shift;
  }
  std::size_t home(SiteId site) const { return hash(site, shift_); }
  std::size_t home_of(std::size_t i) const { return home(ld(keys_[i])); }

  void grow() { rehash(capacity() == 0 ? kMinCapacity : capacity() * 2); }

  void rehash(std::size_t new_cap) {
    // Fill the new arrays off to the side, then publish them: each array
    // pointer is replaced in one store (Column's move-assign never passes
    // through null), then mask_ and shift_ follow with release stores, so a
    // racing reader pairs a mask only with arrays at least that large. The
    // old arrays die here: retired-but-mapped when arena-backed, freed when
    // heap-backed (rule 1 applies).
    Column<SiteId> keys(keys_.arena());
    Column<std::uint32_t> slots(slots_.arena());
    keys.assign(new_cap, SiteId{});
    slots.assign(new_cap, kNilSlot);
    const std::size_t mask = new_cap - 1;
    unsigned shift = 32;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == kNilSlot) continue;
      std::size_t j = hash(keys_[i], shift);
      while (slots[j] != kNilSlot) j = (j + 1) & mask;
      keys[j] = keys_[i];
      slots[j] = slots_[i];
    }
    keys_ = std::move(keys);
    slots_ = std::move(slots);
    st(mask_, mask);
    st(shift_, shift);
  }

  Column<SiteId> keys_;           // valid only where slots_[i] != kNilSlot
  Column<std::uint32_t> slots_;   // kNilSlot marks an empty cell
  std::size_t size_{0};
  std::size_t mask_{0};
  unsigned shift_{32};  // 32 - log2(capacity); capacity 0 ⇒ never probed
  mutable rt::OLock olock_;
};

}  // namespace optrep::vv
