// The session engine both endpoints of the sync server run: one sync session
// of the wire_stream.h protocol as a sans-I/O state machine. The host feeds
// it decoded StreamDecoder items and link-free pumps; it answers with bytes
// in its outgoing buffer and a typed Outcome. Sockets, HELLO validation,
// write tickets, the commit itself and fault injection stay in the hosts
// (net::Server, net::SyncClient).
//
// Data role. The data sender is the client on a push or COMPARE session and
// the server on a pull; the other endpoint is the data receiver. It is the
// only place the two endpoints differ once the opening record (HELLO from
// the client, ACCEPT from the server) is out.
//
// Lifecycle. Both ends send their COMPARE probe with the opening record and
// answer the peer's probe with a verdict (Alg 1); once each holds the other's
// verdict it knows the relation of its vector to the peer's. The transfer
// runs when the receiver's relation needs it: a strict predecessor always
// syncs, ‖ syncs under SYNCC/SYNCS and degrades to a no-op under SYNCB, and
// a COMPARE session never transfers. The data sender then runs its element
// core (Alg 2–4) or nothing, and sends END. The data receiver answers END
// with DONE: kNoop when nothing moved, or — after a transfer — it first
// applies the §2.2 update to its clone (a reconciled concurrent sync records
// one local update at own_site) and returns Outcome::kCommit; the host
// commits work() and answers commit(status), which sends DONE. The commit is
// the only point where a session touches a live replica, so a session cut
// before it is a no-op on both ends. A control record outside these rules
// (ACCEPT to a server, HELLO or the magic mid-session, END or DONE in the
// wrong phase) is Outcome::kBreach: the host drops the connection.
//
// Fault gate. A client fault plan names an outgoing record (the opening
// record is 1); the engine marks where that record starts in the outgoing
// buffer and sendable() stops there, so the peer sees exactly the records
// before it. The host then cuts the connection or stalls and open_gate()s.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "net/wire_stream.h"
#include "vv/order.h"
#include "vv/protocol/compare_core.h"
#include "vv/protocol/receiver_core.h"
#include "vv/protocol/sender_core.h"
#include "vv/rotating_vector.h"

namespace optrep::net {

// Pipelined sender batch: element sends per pump dispatch.
inline constexpr std::uint32_t kDefaultBurst = 32;
// The sender pump pauses while this many bytes wait to be written.
inline constexpr std::size_t kWriteWatermark = 256 * 1024;

class WireSession {
 public:
  enum class Role : std::uint8_t { kServer, kClient };

  enum class Phase : std::uint8_t {
    kIdle,         // no session (or the last one ended)
    kAwaitAccept,  // client: HELLO and probe sent
    kCompare,      // awaiting the peer's probe and verdict
    kSend,         // data sender: pumping the element core
    kRecv,         // data receiver: feeding the element core
    kAwaitEnd,     // data receiver with nothing to receive
    kCommit,       // data receiver: END arrived, the host is committing
    kAwaitDone,    // data sender: END sent
  };

  enum class Outcome : std::uint8_t {
    kContinue,
    kCommit,  // commit work(), then call commit(status)
    kDone,    // the session ended: see done() (and accept() on a client)
    kBreach,  // protocol breach: drop the connection
  };

  struct Params {
    SessionKind kind{SessionKind::kCompare};
    bool pull{false};
    bool stop_and_wait{false};
    std::uint32_t replica{0};      // named in the client's HELLO
    SiteId own_site{0};            // where the §2.2 update is recorded
    std::uint32_t gate_record{0};  // hold the stream before this record; 0 = never
  };

  WireSession(Role role, std::uint32_t burst) : role_(role), burst_(burst) {}
  WireSession(const WireSession&) = delete;  // the cores point into work_
  WireSession& operator=(const WireSession&) = delete;

  // The session's private clone: the host fills it before begin() and
  // commits it on Outcome::kCommit.
  vv::RotatingVector& work() { return work_; }

  // Start a session: the opening record (client HELLO, server ACCEPT kOk)
  // and the COMPARE probe.
  void begin(const Params& p);
  // Server: refuse a HELLO with a non-kOk status (no session starts).
  void reject(AcceptStatus s) { put_accept(out_, s); }

  Outcome on_item(const StreamDecoder::Item& item);
  // Runs a pending sender pump while the buffer is under the watermark.
  // True when it stopped at the watermark with elements left to send.
  bool pump();
  bool wants_pump() const {
    return phase_ == Phase::kSend && pump_pending_ && buffered() < kWriteWatermark;
  }
  // Answer Outcome::kCommit: send DONE(s) and end the session.
  void commit(DoneStatus s);

  Phase phase() const { return phase_; }
  bool active() const { return phase_ != Phase::kIdle; }
  const char* breach_reason() const { return breach_; }

  // Session results, valid after the phase they are decided in.
  vv::Ordering relation() const { return relation_; }  // own vector vs the peer's
  bool transfer() const { return transfer_; }
  AcceptStatus accept() const { return accept_; }
  DoneStatus done() const { return done_; }
  std::uint64_t elems_sent() const { return snd_ ? snd_->elems_sent() : 0; }
  std::uint64_t elems_applied() const;
  std::uint64_t records_out() const { return records_; }

  // Outgoing bytes. sendable() ends at the fault gate, buffered() does not.
  std::span<const std::uint8_t> sendable() const {
    return {out_.data() + out_pos_, std::min(gate_pos_, out_.size()) - out_pos_};
  }
  std::size_t buffered() const { return out_.size() - out_pos_; }
  void consume(std::size_t n);
  bool at_gate() const { return gate_pos_ == out_pos_; }
  void open_gate() { gate_pos_ = kNoGate; }

 private:
  // The receiver core of the session's sync algorithm.
  using Receiver = std::variant<vv::protocol::BasicReceiverCore,
                                vv::protocol::ConflictReceiverCore,
                                vv::protocol::SkipReceiverCore>;

  static constexpr std::size_t kNoGate = static_cast<std::size_t>(-1);

  void on_msg(const vv::VvMsg& m);
  void compare_done();
  Outcome on_end();
  void step_sender(const vv::protocol::Event& ev);
  void step_receiver(const vv::protocol::Event& ev);
  void emit(const vv::protocol::Actions& acts);
  void send_end();
  void send_done(DoneStatus s);
  void next_record();
  Outcome breach(const char* what);

  const Role role_;
  const std::uint32_t burst_;

  // Per session (reset by begin()).
  Phase phase_{Phase::kIdle};
  SessionKind kind_{SessionKind::kCompare};
  bool stop_and_wait_{false};
  bool data_sender_{false};
  SiteId own_site_{0};
  bool probe_seen_{false};
  bool initially_concurrent_{false};
  bool pump_pending_{false};
  vv::Ordering relation_{vv::Ordering::kEqual};
  bool transfer_{false};
  AcceptStatus accept_{AcceptStatus::kOk};
  DoneStatus done_{DoneStatus::kNoop};
  const char* breach_{""};
  std::uint64_t records_{0};
  std::uint32_t gate_record_{0};

  vv::RotatingVector work_;
  std::optional<vv::protocol::CompareCore> cmp_;
  std::optional<vv::protocol::ElementSenderCore> snd_;
  std::optional<Receiver> rx_;
  vv::protocol::Actions acts_;  // reused across dispatches

  // Outgoing buffer; it outlives sessions (a DONE may still be queued when
  // the next HELLO is served).
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_{0};
  std::size_t gate_pos_{kNoGate};
  vv::FrameDeltaState chain_{};
};

}  // namespace optrep::net
