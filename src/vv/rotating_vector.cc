#include "vv/rotating_vector.h"

#include <algorithm>

namespace optrep::vv {

// Every read of an element column cell, a list link, or head_/tail_ below
// goes through ld()/st() (acquire/release atomic_ref): mutations run under
// the writer queue of olock_, but optimistic readers may be mid-walk
// concurrently, so all shared words must be accessed atomically for the
// validation protocol to be sound (see rt/olock.h). Single-threaded cost:
// plain movs.

std::vector<RotatingVector::Element> RotatingVector::in_order() const {
  std::vector<Element> out;
  out.reserve(site_.size());
  for (std::uint32_t s = ld(head_); s != kNil; s = ld(next_[s])) {
    out.push_back(load_elem(s));
  }
  return out;
}

VersionVector RotatingVector::to_version_vector() const {
  VersionVector vv;
  for (std::uint32_t s = ld(head_); s != kNil; s = ld(next_[s])) {
    vv.set(ld(site_[s]), ld(value_[s]));
  }
  return vv;
}

void RotatingVector::record_update(SiteId site) {
  rotate_after(std::nullopt, site);
  const std::uint32_t s = slot_of(site);
  st(value_[s], ld(value_[s]) + 1);
  set_flag(s, kConflictFlag, false);
  // The segment bit was already cleared by the carry in rotate_after; the
  // fresh element joins the current prefixing segment at the front.
}

void RotatingVector::rotate_after(std::optional<SiteId> prev, SiteId site) {
  std::uint32_t s = index_.find(site);
  if (s == kNil) s = insert_front(site);
  std::uint32_t p = kNil;
  if (prev.has_value()) {
    p = index_.find(*prev);
    OPTREP_CHECK_MSG(p != kNil, "ROTATE: prev element not present");
  }
  OPTREP_CHECK_MSG(p != s, "ROTATE: element cannot follow itself");
  // Rotating an element onto its current position is a no-op (and must not
  // trigger the segment-bit carry: the element is not leaving its segment).
  if (p == kNil ? ld(head_) == s : ld(prev_[s]) == p) return;
  unlink(s);
  link_after(p, s);
}

void RotatingVector::set_element(SiteId site, std::uint64_t value, bool conflict,
                                 bool segment) {
  std::uint32_t s = index_.find(site);
  if (s == kNil) s = insert_front(site);
  st(value_[s], value);
  std::uint8_t f = 0;
  if (conflict) f |= kConflictFlag;
  if (segment) f |= kSegmentFlag;
  st(flags_[s], f);
}

std::string RotatingVector::to_string() const {
  std::string out = "<";
  bool first = true;
  for (std::uint32_t s = ld(head_); s != kNil; s = ld(next_[s])) {
    if (!first) out += ", ";
    first = false;
    const Element e = load_elem(s);
    out += site_name(e.site) + ":" + std::to_string(e.value);
    if (e.conflict) out += "*";
    if (e.segment) out += "|";
  }
  out += ">";
  return out;
}

bool RotatingVector::identical_to(const RotatingVector& other) const {
  if (size() != other.size()) return false;
  return std::equal(begin(), end(), other.begin());
}

// Both directions, as in the RotatingVector overload: a size check would
// count a stored zero (rotate_after before set_element) that the oracle,
// which holds no zero values, has no entry for.
bool RotatingVector::same_values(const VersionVector& oracle) const {
  for (std::uint32_t s = ld(head_); s != kNil; s = ld(next_[s])) {
    if (ld(value_[s]) != oracle.value(ld(site_[s]))) return false;
  }
  for (const auto& [site, v] : oracle.elements()) {
    if (v != value(site)) return false;
  }
  return true;
}

bool RotatingVector::same_values(const RotatingVector& other) const {
  for (std::uint32_t s = ld(head_); s != kNil; s = ld(next_[s])) {
    if (ld(value_[s]) != other.value(ld(site_[s]))) return false;
  }
  for (std::uint32_t s = ld(other.head_); s != kNil; s = ld(other.next_[s])) {
    if (ld(other.value_[s]) != value(ld(other.site_[s]))) return false;
  }
  return true;
}

void RotatingVector::erase(SiteId site) {
  const std::uint32_t s = index_.find(site);
  if (s == kNil) return;
  unlink(s);  // carries a set segment bit to the predecessor
  st(site_[s], SiteId{});
  st(value_[s], std::uint64_t{0});
  st(flags_[s], std::uint8_t{0});
  free_slots_.push_back(s);
  index_.erase(site);
  // Reclaim dead slots once they outnumber live elements: without this, a
  // pruning workload that retires sites forever grows the free list (and the
  // column height) monotonically. The floor of 8 keeps small vectors from
  // compacting on every other erase.
  if (free_slots_.size() >= 8 && free_slots_.size() > index_.size()) compact();
}

std::uint32_t RotatingVector::insert_front(SiteId site) {
  const std::uint32_t h = ld(head_);
  std::uint32_t s;
  if (!free_slots_.empty()) {
    // Recycled slots may still be visited by an in-flight optimistic walk,
    // so refill them field-wise (atomically), not by whole-struct assignment.
    s = free_slots_.back();
    free_slots_.pop_back();
    st(site_[s], site);
    st(value_[s], std::uint64_t{0});
    st(flags_[s], std::uint8_t{0});
    st(prev_[s], kNil);
    st(next_[s], h);
  } else {
    s = static_cast<std::uint32_t>(site_.size());
    OPTREP_CHECK_MSG(s != kNil, "vector too large");
    // May reallocate: excluded while concurrent readers are active by the
    // reserve() capacity contract (header comment).
    site_.push_back(site);
    value_.push_back(0);
    flags_.push_back(0);
    prev_.push_back(kNil);
    next_.push_back(h);
  }
  if (h != kNil) st(prev_[h], s);
  st(head_, s);
  if (ld(tail_) == kNil) st(tail_, s);
  index_.insert(site, s);
  return s;
}

void RotatingVector::unlink(std::uint32_t s) {
  // §4 segment-bit maintenance: the rotated-out element was the last of its
  // segment, so the boundary moves to the element before it (if any).
  const std::uint32_t prev = ld(prev_[s]);
  const std::uint32_t next = ld(next_[s]);
  if ((ld(flags_[s]) & kSegmentFlag) != 0) {
    if (prev != kNil) set_flag(prev, kSegmentFlag, true);
    set_flag(s, kSegmentFlag, false);
  }
  if (prev != kNil) {
    st(next_[prev], next);
  } else {
    st(head_, next);
  }
  if (next != kNil) {
    st(prev_[next], prev);
  } else {
    st(tail_, prev);
  }
  st(prev_[s], kNil);
  st(next_[s], kNil);
}

void RotatingVector::link_after(std::uint32_t p, std::uint32_t s) {
  if (p == kNil) {
    const std::uint32_t h = ld(head_);
    st(prev_[s], kNil);
    st(next_[s], h);
    if (h != kNil) st(prev_[h], s);
    st(head_, s);
    if (ld(tail_) == kNil) st(tail_, s);
  } else {
    const std::uint32_t an = ld(next_[p]);
    st(prev_[s], p);
    st(next_[s], an);
    if (an != kNil) st(prev_[an], s);
    st(next_[p], s);
    if (ld(tail_) == p) st(tail_, s);
  }
}

void RotatingVector::compact() {
  // Holes (free-list entries) ascending; live tail slots will fill the holes
  // below the post-compaction height. In-place sort: no allocation, so the
  // zero-alloc steady state survives pruning churn.
  std::sort(free_slots_.data(), free_slots_.data() + free_slots_.size());
  const std::size_t holes = free_slots_.size();
  const std::size_t new_size = site_.size() - holes;
  // Walk holes from the bottom and live slots from the top; `top` consumes
  // tail holes (sorted descending from the back) so `from` only lands on
  // live slots. Hole/live counts below and above new_size match exactly.
  std::size_t top = holes;
  std::uint32_t from = static_cast<std::uint32_t>(site_.size());
  for (std::size_t h = 0; h < holes && free_slots_[h] < new_size; ++h) {
    for (--from; top > 0 && free_slots_[top - 1] == from; --from) --top;
    relocate(from, free_slots_[h]);
  }
  // Shrink keeps capacity (and any block a racing reader is pinned to):
  // Column::resize never reallocates downward.
  site_.resize(new_size);
  value_.resize(new_size);
  flags_.resize(new_size);
  prev_.resize(new_size);
  next_.resize(new_size);
  free_slots_.clear();
}

void RotatingVector::relocate(std::uint32_t from, std::uint32_t to) {
  const SiteId site = ld(site_[from]);
  st(site_[to], site);
  st(value_[to], ld(value_[from]));
  st(flags_[to], ld(flags_[from]));
  const std::uint32_t p = ld(prev_[from]);
  const std::uint32_t n = ld(next_[from]);
  st(prev_[to], p);
  st(next_[to], n);
  if (p != kNil) st(next_[p], to); else st(head_, to);
  if (n != kNil) st(prev_[n], to); else st(tail_, to);
  index_.update(site, to);
}

}  // namespace optrep::vv
