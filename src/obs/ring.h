// The one bounded event store behind every obs recorder: a fixed-capacity
// ring that retains the last N entries. Tracer (retain last N),
// FlightRecorder (retain last N, frozen at the first trigger), CausalTracer
// and prof::Profiler all keep their events here.
//
// The buffer is sized once at construction and push() overwrites the oldest
// entry when full, so the ring never allocates after construction. Truncation
// is always visible: dropped() == total_recorded() - size().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace optrep::obs {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : buf_(capacity) {
    OPTREP_CHECK_MSG(capacity > 0, "ring capacity must be positive");
  }

  // One slot store; when full, the slot written is the oldest entry's.
  void push(const T& v) {
    if (size_ < buf_.size()) {
      buf_[size_++] = v;  // not wrapped yet, so head_ is still 0
    } else {
      buf_[head_] = v;
      head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    }
    ++total_;
  }

  // Counts `n` entries recorded elsewhere and never retained here (a merged
  // shard's own drops), so they show in dropped().
  void count_unretained(std::uint64_t n) { total_ += n; }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }  // retained entries
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - size_; }

  // i-th oldest retained entry, i ∈ [0, size()).
  const T& operator[](std::size_t i) const {
    OPTREP_DCHECK(i < size_);
    const std::size_t slot = head_ + i;
    return buf_[slot < buf_.size() ? slot : slot - buf_.size()];
  }

  void clear() { head_ = size_ = total_ = 0; }

 private:
  std::vector<T> buf_;  // sized once; never reallocated
  std::size_t head_{0};
  std::size_t size_{0};
  std::uint64_t total_{0};
};

}  // namespace optrep::obs
