// Rotating vectors: the storage shared by BRV (§3.1), CRV (§3.2) and SRV (§4).
//
// A rotating vector is a version vector paired with a total order ≺ of its
// elements; the element of site i rotates to the front of the order when
// site i updates the replica. CRV adds one conflict bit per element, SRV adds
// a second segment bit. All three use this class; BRV simply never sets the
// bits.
//
// Representation (SoA): parallel columns over 32-bit slot handles — site,
// value, and flag columns for the element fields, prev/next index columns
// encoding ≺ as an intrusive doubly-linked list — plus a flat open-addressed
// site→slot index (vv/flat_index.h). Lookup, rotate and insert are O(1);
// storage is O(n) — exactly the assumptions of §3.3. The columns are
// vv::Column (vv/arena.h): heap-backed by default, or carved from a shared
// per-world Arena after attach_arena(), so a 10^5-site world is a few slabs
// instead of several heap blocks per replica. Sync senders walk site/value
// columns sequentially; the conflict/segment bits live in their own byte
// column so a BRV walk never drags flag bytes through the cache.
//
// Order convention: front() is ⌊v⌋ (the least element, i.e. the most recently
// updated site) and back() is ⌈v⌉. Iteration runs front→back, the order in
// which SYNC* algorithms transmit elements; begin()/end() walk that order
// without materializing anything.
//
// Concurrency (PR 8): the vector embeds an rt::OLock (one lock guards columns,
// list links AND the site index together — they mutate as a unit). Locking is
// EXTERNAL: no method below acquires it, so single-threaded callers pay only
// the relaxed/acquire plain-mov cost of the std::atomic_ref field accessors
// that every shared word (element columns, prev/next links, head_/tail_, index
// cells) is routed through. Concurrent use follows the olock protocol:
//   writer:  rt::OLockGuard g(v.olock()); v.record_update(i);
//   reader:  rt::optimistic_read(v.olock(), tries, [&]{ ...v.value(i)... })
//            — on persistent interference, fall back to an OLockGuard.
// Readers racing a writer observe defined (possibly stale or torn-across-
// fields) values; read_validate() rejects any execution that overlapped a
// writer, so a validated read saw one committed epoch (rt/olock.h note).
// Iterator walks are bounds-safe under races (slot indexes are masked to the
// table, traversal is cycle-bounded by validation) but REQUIRE the capacity
// contract: reserve(n) first — mutations must not reallocate the columns
// while readers hold pointers into them. StateSystem::run_batch reserves
// every touched replica before going parallel. Arena-backed columns keep
// outgrown blocks mapped (Arena never frees), which downgrades a violated
// capacity contract from use-after-free to a stale read that validation
// rejects — the contract itself is unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "rt/olock.h"
#include "vv/arena.h"
#include "vv/flat_index.h"
#include "vv/version_vector.h"

namespace optrep::vv {

// Which of the three paper implementations a vector participates in. Only
// affects wire format and the sync algorithm choice; storage is identical.
enum class VectorKind : std::uint8_t { kBrv, kCrv, kSrv };

constexpr std::string_view to_string(VectorKind k) {
  switch (k) {
    case VectorKind::kBrv: return "BRV";
    case VectorKind::kCrv: return "CRV";
    case VectorKind::kSrv: return "SRV";
  }
  return "?";
}

class RotatingVector {
 public:
  struct Element {
    SiteId site{};
    std::uint64_t value{0};
    bool conflict{false};  // CRV/SRV conflict bit (§3.2)
    bool segment{false};   // SRV segment bit: 1 marks the last element of a segment (§4)

    friend bool operator==(const Element&, const Element&) = default;
  };

  RotatingVector() = default;

  // Copies/moves transfer the contents but NOT the lock: each vector guards
  // itself with a fresh, unlocked rt::OLock (sync_with_recovery's saved-state
  // snapshots and StateSystem replica copies stay plain value types). Column
  // semantics apply: a copy is a heap-backed snapshot regardless of the
  // source's arena; copy-assignment keeps the destination's backing; a
  // moved-from source stays bound to its arena.
  RotatingVector(const RotatingVector& o)
      : site_(o.site_),
        value_(o.value_),
        flags_(o.flags_),
        prev_(o.prev_),
        next_(o.next_),
        index_(o.index_),
        head_(o.head_),
        tail_(o.tail_),
        free_slots_(o.free_slots_) {}
  RotatingVector& operator=(const RotatingVector& o) {
    site_ = o.site_;
    value_ = o.value_;
    flags_ = o.flags_;
    prev_ = o.prev_;
    next_ = o.next_;
    index_ = o.index_;
    head_ = o.head_;
    tail_ = o.tail_;
    free_slots_ = o.free_slots_;
    return *this;
  }
  RotatingVector(RotatingVector&& o) noexcept
      : site_(std::move(o.site_)),
        value_(std::move(o.value_)),
        flags_(std::move(o.flags_)),
        prev_(std::move(o.prev_)),
        next_(std::move(o.next_)),
        index_(std::move(o.index_)),
        head_(o.head_),
        tail_(o.tail_),
        free_slots_(std::move(o.free_slots_)) {}
  RotatingVector& operator=(RotatingVector&& o) noexcept {
    site_ = std::move(o.site_);
    value_ = std::move(o.value_);
    flags_ = std::move(o.flags_);
    prev_ = std::move(o.prev_);
    next_ = std::move(o.next_);
    index_ = std::move(o.index_);
    head_ = o.head_;
    tail_ = o.tail_;
    free_slots_ = std::move(o.free_slots_);
    return *this;
  }

  // The versioned lock guarding this vector (columns + links + site index).
  // External discipline — see the header comment.
  rt::OLock& olock() const { return olock_; }

  // Back every column and the site index with a per-world arena. Only legal
  // on a never-allocated vector; call before reserve().
  void attach_arena(Arena* arena) {
    site_.attach_arena(arena);
    value_.attach_arena(arena);
    flags_.attach_arena(arena);
    prev_.attach_arena(arena);
    next_.attach_arena(arena);
    free_slots_.attach_arena(arena);
    index_.attach_arena(arena);
  }

  // Pre-size columns, free list, and index for `n` sites: afterwards, a
  // vector that never exceeds n elements performs no heap allocation in
  // record_update / rotate_after / set_element / erase — and, equivalently,
  // never invalidates a concurrent optimistic reader's view of the columns.
  void reserve(std::size_t n) {
    site_.reserve(n);
    value_.reserve(n);
    flags_.reserve(n);
    prev_.reserve(n);
    next_.reserve(n);
    free_slots_.reserve(n);
    index_.reserve(n);
  }

  // ---- reads -------------------------------------------------------------

  // v[i]; zero when absent (zero-valued elements are not stored).
  std::uint64_t value(SiteId site) const {
    const std::uint32_t s = index_.find(site);
    return s == kNil ? 0 : ld(value_[s]);
  }
  bool contains(SiteId site) const { return index_.contains(site); }

  bool conflict_bit(SiteId site) const { return (ld(flags_[slot_of(site)]) & kConflictFlag) != 0; }
  bool segment_bit(SiteId site) const { return (ld(flags_[slot_of(site)]) & kSegmentFlag) != 0; }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  // ⌊v⌋ and ⌈v⌉; nullopt when the vector is empty.
  std::optional<Element> front() const {
    const std::uint32_t h = ld(head_);
    if (h == kNil) return std::nullopt;
    return load_elem(h);
  }
  std::optional<Element> back() const {
    const std::uint32_t t = ld(tail_);
    if (t == kNil) return std::nullopt;
    return load_elem(t);
  }

  // Successor of `site` in ≺ (one step toward back()); nullopt at the end.
  std::optional<SiteId> next(SiteId site) const {
    const std::uint32_t n = ld(next_[slot_of(site)]);
    if (n == kNil) return std::nullopt;
    return ld(site_[n]);
  }

  // Iteration in ≺ order, front to back — no materialization; senders walk
  // this directly. Bidirectional: a pipelined sender that speculated ahead
  // rewinds its cursor with operator-- when a HALT or SKIP revokes the
  // untransmitted tail (sim::FrameLink). Mutating the vector invalidates
  // iterators.
  //
  // operator* returns the Element BY VALUE (an atomic field-wise snapshot),
  // not a reference into column storage: an optimistic reader must never hold
  // a plain reference a concurrent writer could mutate under it. operator->
  // therefore yields a value-carrying proxy. (`const Element& e = *it;` still
  // works — lifetime extension — but the binding is to a snapshot.)
  class const_iterator {
   public:
    // A value-snapshot proxy so `it->site` works without a stable address.
    struct arrow_proxy {
      Element e;
      const Element* operator->() const { return &e; }
    };

    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Element;
    using difference_type = std::ptrdiff_t;
    using pointer = arrow_proxy;
    using reference = Element;

    const_iterator() = default;
    Element operator*() const { return owner_->load_elem(s_); }
    arrow_proxy operator->() const { return {owner_->load_elem(s_)}; }
    const_iterator& operator++() {
      s_ = ld(owner_->next_[s_]);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++*this;
      return t;
    }
    const_iterator& operator--() {
      s_ = s_ == kNil ? ld(owner_->tail_) : ld(owner_->prev_[s_]);
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator t = *this;
      --*this;
      return t;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.s_ == b.s_;
    }

   private:
    friend class RotatingVector;
    const_iterator(const RotatingVector* owner, std::uint32_t s) : owner_(owner), s_(s) {}
    const RotatingVector* owner_{nullptr};
    std::uint32_t s_{0xffffffffu};
  };
  const_iterator begin() const { return {this, ld(head_)}; }
  const_iterator end() const { return {this, kNil}; }

  // Elements in ≺ order, front to back, as an owned vector. Prefer
  // begin()/end() on hot paths; this copies every element.
  std::vector<Element> in_order() const;

  // Values only, for oracle cross-checks.
  VersionVector to_version_vector() const;

  // ---- mutations ---------------------------------------------------------

  // Record one local update on `site` (§3.1): increment v[i], clear the
  // conflict bit (§3.2 "reset whenever v[i] is incremented due to a replica
  // update"), and ROTATE(φ, i) so the element becomes ⌊v⌋. The modified
  // ROTATE of §4 carries a set segment bit to the element's predecessor.
  void record_update(SiteId site);

  // ROTATE_v(prev, i) (§3.1 definition, with the §4 segment-bit carry):
  // position element i immediately after `prev`, or at the front when prev is
  // φ (nullopt). Inserts the element (value 0, bits clear) if absent.
  void rotate_after(std::optional<SiteId> prev, SiteId site);

  // Write value and bits of an existing-or-new element without changing its
  // position (receivers call rotate_after first, then set_element).
  void set_element(SiteId site, std::uint64_t value, bool conflict, bool segment);

  void set_conflict_bit(SiteId site, bool bit) { set_flag(slot_of(site), kConflictFlag, bit); }
  void set_segment_bit(SiteId site, bool bit) { set_flag(slot_of(site), kSegmentFlag, bit); }

  // Remove an element entirely (used by the §7 pruning extension for retired
  // sites). The segment-bit carry applies, exactly as for a rotation: the
  // boundary moves to the predecessor. No-op if the site is absent.
  // Sustained erase churn triggers slot compaction — see compact().
  void erase(SiteId site);

  // ---- debugging / figures -------------------------------------------------

  // "<C:3, A:2*, B:1|>" in ≺ order; '*' marks a set conflict bit, '|' a set
  // segment bit (the paper draws a bar above the element / a box boundary).
  std::string to_string() const;

  // Structural equality: same values, same ≺ order, same bits.
  bool identical_to(const RotatingVector& other) const;

  // Value equality ignoring order and bits (what Theorem 3.1 is about): equal
  // non-zero values; a stored zero-valued element reads as absent.
  bool same_values(const VersionVector& oracle) const;
  // The same between two rotating vectors, walked in place. Allocation-free.
  bool same_values(const RotatingVector& other) const;

  // Probe statistics of the site index (see FlatSiteIndex::probe_stats) —
  // deterministic index-quality numbers for bench_microops baselines.
  FlatSiteIndex::ProbeStats index_probe_stats() const { return index_.probe_stats(); }

  // Footprint of this vector's storage at allocated capacity: all five SoA
  // columns, the free list, and the site index. Surfaced per-system as
  // state.vector_memory_bytes / state.index_memory_bytes gauges and in
  // optrep.run/v1 report "memory" sections.
  std::uint64_t memory_bytes() const {
    return site_.memory_bytes() + value_.memory_bytes() + flags_.memory_bytes() +
           prev_.memory_bytes() + next_.memory_bytes() + free_slots_.memory_bytes() +
           index_.memory_bytes();
  }
  std::uint64_t index_memory_bytes() const { return index_.memory_bytes(); }

  // Free-list/occupancy introspection for the compaction regression test:
  // slots currently awaiting reuse, and total column height (live + free).
  std::size_t free_slot_count() const { return free_slots_.size(); }
  std::size_t slot_count() const { return site_.size(); }

 private:
  // Also the FlatSiteIndex empty marker: slot indexes stay below kNil (the
  // "vector too large" check in insert_front), so the index can use it freely.
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static_assert(kNil == FlatSiteIndex::kNilSlot);

  // Flag column bits (one byte per slot).
  static constexpr std::uint8_t kConflictFlag = 1u << 0;
  static constexpr std::uint8_t kSegmentFlag = 1u << 1;

  // Shared-word accessors (same discipline as FlatSiteIndex): acquire loads,
  // release stores, via atomic_ref — so optimistic readers racing the single
  // queued writer read defined values and olock validation is sound.
  template <class T>
  static T ld(const T& cell) {
    return std::atomic_ref<T>(const_cast<T&>(cell)).load(std::memory_order_acquire);
  }
  template <class T>
  static void st(T& cell, T v) {
    std::atomic_ref<T>(cell).store(v, std::memory_order_release);
  }

  // Flag bit read-modify-write: safe as a load + release store because flag
  // mutations only happen under the single queued writer.
  void set_flag(std::uint32_t s, std::uint8_t mask, bool bit) {
    const std::uint8_t f = ld(flags_[s]);
    st(flags_[s], static_cast<std::uint8_t>(bit ? (f | mask) : (f & ~mask)));
  }

  // Field-wise atomic snapshot of a slot's element.
  Element load_elem(std::uint32_t s) const {
    Element e;
    e.site = ld(site_[s]);
    e.value = ld(value_[s]);
    const std::uint8_t f = ld(flags_[s]);
    e.conflict = (f & kConflictFlag) != 0;
    e.segment = (f & kSegmentFlag) != 0;
    return e;
  }

  std::uint32_t slot_of(SiteId site) const {
    const std::uint32_t s = index_.find(site);
    OPTREP_CHECK_MSG(s != kNil, "element not present");
    return s;
  }

  // Insert a fresh zero-valued slot at the front; returns its index.
  std::uint32_t insert_front(SiteId site);
  // Detach slot s from the list, carrying its segment bit to its predecessor
  // (§4: "when the element is rotated, the bit shall be carried on to its
  // predecessor"). Clears the slot's own segment bit.
  void unlink(std::uint32_t s);
  // Attach slot s immediately after slot p (p == kNil → at front).
  void link_after(std::uint32_t p, std::uint32_t s);

  // Reclaim the free list: relocate live tail slots into the holes left by
  // erase() and shrink the columns (capacity — and thus any reader-pinned
  // block — is kept). Triggered by erase() when dead slots outnumber live
  // elements, so column height stays O(live) through pruning churn instead
  // of growing monotonically with every retired site.
  void compact();
  // Move slot `from` to empty slot `to`: copy the element columns, rewire
  // both list neighbors (and head_/tail_), and point the site index at the
  // new slot in place (FlatSiteIndex::update — probe structure unchanged).
  void relocate(std::uint32_t from, std::uint32_t to);

  // SoA columns, all indexed by the same 32-bit slot handle.
  Column<SiteId> site_;
  Column<std::uint64_t> value_;
  Column<std::uint8_t> flags_;   // kConflictFlag | kSegmentFlag
  Column<std::uint32_t> prev_;   // toward front
  Column<std::uint32_t> next_;   // toward back
  FlatSiteIndex index_;
  std::uint32_t head_{kNil};
  std::uint32_t tail_{kNil};
  Column<std::uint32_t> free_slots_;  // reusable after erase()
  mutable rt::OLock olock_;
};

}  // namespace optrep::vv
