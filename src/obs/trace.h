// Structured protocol tracing: typed events, ring-buffer bounded.
//
// A Tracer records fixed-size TraceEvents — one per protocol occurrence worth
// auditing (element sent/applied/redundant, SKIP issued/honored, HALT, ack,
// session begin/end) — stamped with simulated time and a session id. It is
// the retain-last-N policy over obs::Ring (obs/ring.h): when the ring fills,
// the oldest event is overwritten and dropped() advances, so truncation is
// always visible in exported artifacts (see obs/export.h).
//
// TraceEvent is the one wire-event record: the flight recorder
// (obs/flight_recorder.h) keeps the same record, with `fault` set on the
// events fault injection touched. Tracer::record is allocation-free.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.h"
#include "obs/ring.h"
#include "sim/event_loop.h"

namespace optrep::obs {

enum class TraceEventType : std::uint8_t {
  kSessionBegin,    // a synchronization session started
  kElemSent,        // sender put one vector element on the wire
  kElemApplied,     // receiver wrote a new value (counts toward |Δ|)
  kElemRedundant,   // receiver processed a known element pre-halt (|Γ|)
  kElemStraggler,   // known element ignored while a skip was pending
  kSkipIssued,      // SRV receiver requested a segment skip
  kSkipHonored,     // SRV sender elided a segment (observed γ)
  kHalt,            // negative/stop response or end-of-vector marker
  kAck,             // stop-and-wait acknowledgement
  kProbe,           // COMPARE probe element
  kVerdict,         // COMPARE domination bit
  kSessionEnd,      // session reached quiescence; `bits` carries total bits
};

std::string_view to_string(TraceEventType t);

// What fault injection did to the message an event describes. kNone for
// ordinary wire events; kDecodeError marks a corruption the typed codec
// itself rejected (the subset of kCorrupted the checksum model need not
// catch).
enum class FlightFault : std::uint8_t {
  kNone,
  kDropped,
  kDuplicated,
  kReordered,
  kCorrupted,
  kDecodeError,
};

std::string_view to_string(FlightFault f);

struct TraceEvent {
  sim::Time at{0};           // simulated time of the occurrence
  std::uint64_t session{0};  // session id (0 = outside any session)
  TraceEventType type{TraceEventType::kElemSent};
  bool forward{true};        // pertains to the sender→receiver direction
  FlightFault fault{FlightFault::kNone};  // flight recorder: injected fault
  SiteId site{};             // element site, when applicable
  std::uint64_t value{0};    // element value / SKIP segment index
  std::uint64_t bits{0};     // model bits charged (wire events), else 0
};
static_assert(sizeof(TraceEvent) == 40, "fault must fit in TraceEvent's padding");

// The retain-last-N policy: a Ring<TraceEvent> under the recorder names.
class Tracer : public Ring<TraceEvent> {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit Tracer(std::size_t capacity = kDefaultCapacity) : Ring(capacity) {}

  // No allocation: overwrites the oldest retained event when full and
  // advances dropped().
  void record(const TraceEvent& e) { push(e); }
  // i-th oldest retained event, i ∈ [0, size()).
  const TraceEvent& event(std::size_t i) const { return (*this)[i]; }
};

}  // namespace optrep::obs
