// Protocol flight recorder: a fixed ring of the last K protocol events per
// run, frozen at the first anomaly and dumped as a reproducible post-mortem.
//
// Sessions feed every wire message (and every injected fault, via the
// sim::FaultInjector observer) into the ring as the same obs::TraceEvent they
// hand the Tracer; record() is a ring write with no heap allocation. When a
// Table 2 bound violation, a typed decode error, or retry exhaustion fires,
// trigger() copies the live ring into a second ring of the same capacity —
// the K events *leading up to* the anomaly — so later traffic cannot
// overwrite the evidence; the copy allocates nothing either. dump_json()
// exports the frozen ring (or the live ring when nothing ever triggered) as
// an optrep.flight/v1 document (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/ring.h"
#include "obs/trace.h"

namespace optrep::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;
  static constexpr std::size_t kReasonCapacity = 32;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : live_(capacity), frozen_(capacity) {
    reason_.reserve(kReasonCapacity);
  }

  // Ring write; never allocates.
  void record(const TraceEvent& e) { live_.push(e); }

  // Reproducibility context for the dump header: the run's fault-injection
  // seed (set once by the system wiring the recorder) and the retry attempt
  // currently executing (kept current by vv::sync_with_recovery). Both are
  // captured into the frozen header at trigger time, so a dump names the
  // exact --fault-seed / attempt to replay from the command line.
  void set_fault_seed(std::uint64_t seed) { fault_seed_ = seed; }
  void note_attempt(std::uint32_t attempt) { attempt_ = attempt; }

  // First trigger freezes the ring and keeps the reason; later triggers only
  // count (the first anomaly is the one worth replaying — everything after
  // it happened in an already-anomalous run).
  void trigger(std::string_view reason, double at) {
    ++trigger_count_;
    if (triggered_) return;
    triggered_ = true;
    reason_.assign(reason);  // no allocation up to kReasonCapacity chars
    triggered_at_ = at;
    trigger_attempt_ = attempt_;
    frozen_ = live_;  // equal capacities: a slot-wise copy, no reallocation
  }

  bool triggered() const { return triggered_; }
  std::uint64_t trigger_count() const { return trigger_count_; }
  const std::string& reason() const { return reason_; }
  double triggered_at() const { return triggered_at_; }
  std::uint64_t fault_seed() const { return fault_seed_; }
  std::uint32_t trigger_attempt() const { return trigger_attempt_; }
  // Sequence number of the triggering anomaly: records seen when it fired.
  std::uint64_t trigger_seq() const { return triggered_ ? frozen_.total_recorded() : 0; }

  std::size_t capacity() const { return live_.capacity(); }
  std::size_t size() const { return live_.size(); }
  std::uint64_t total_recorded() const { return live_.total_recorded(); }
  std::uint64_t dropped() const { return live_.dropped(); }
  // i-th live record, oldest first.
  const TraceEvent& event(std::size_t i) const { return live_[i]; }

  // The records a dump exports: the frozen ring after a trigger, the live
  // ring otherwise.
  const Ring<TraceEvent>& dumped() const { return triggered_ ? frozen_ : live_; }
  std::size_t dump_size() const { return dumped().size(); }
  const TraceEvent& dump_event(std::size_t i) const { return dumped()[i]; }
  std::uint64_t dump_total_recorded() const { return dumped().total_recorded(); }

  void clear() {
    live_.clear();
    frozen_.clear();
    triggered_ = false;
    trigger_count_ = 0;
    reason_.clear();
    triggered_at_ = 0;
    trigger_attempt_ = 0;
  }

 private:
  Ring<TraceEvent> live_;
  Ring<TraceEvent> frozen_;  // live_ as it stood at the first trigger
  bool triggered_{false};
  std::uint64_t trigger_count_{0};
  std::string reason_;
  double triggered_at_{0};
  std::uint64_t fault_seed_{0};
  std::uint32_t attempt_{0};          // retry attempt currently executing
  std::uint32_t trigger_attempt_{0};  // ...frozen at trigger time
};

// One optrep.flight/v1 document: trigger header plus one record per line,
// oldest first.
std::string flight_to_json(const FlightRecorder& r);

}  // namespace optrep::obs
