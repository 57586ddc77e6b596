// Synchronous sync-protocol client: one TCP connection driving sequential
// sessions against an optrep_serve instance.
//
// Each session runs the same engine as the server (net::WireSession, see
// wire_session.h for the lifecycle): the client is the data sender on a push
// or COMPARE and the data receiver on a pull. This host owns the rest: the
// HELLO parameters, a poll()-duplex non-blocking pump (a pipelined pull can
// never write-write deadlock against the server), the session deadline,
// `Options::io_chunk`, which caps every read/write syscall (io_chunk = 1
// feeds the server one byte at a time, exercising the codec's kTruncated
// resume on every boundary), the fault plan, and the copy-back of a
// committed pull.
//
// Fault injection is record-granular: outgoing records are numbered from
// HELLO = 1 (probe = 2, verdict = 3, then transfer records), and a FaultPlan
// either kills the connection immediately before record k or stalls that
// record by a fixed delay. The gate sits in the engine's outgoing buffer:
// records 1..k-1 reach the wire, then the connection is cut (or the stall
// runs). Kill points and record numbers are functions of the caller's RNG
// only, which is what makes a load run's summary reproducible. A killed
// pull commits nothing locally — like the server, the client receives into
// a session-private clone, and copies it back only once its DONE record is
// on the wire.
#pragma once

#include <cstdint>
#include <string>

#include "net/socket.h"
#include "net/wire_stream.h"
#include "vv/order.h"
#include "vv/rotating_vector.h"

namespace optrep::net {

class SyncClient {
 public:
  struct Options {
    std::string host{"127.0.0.1"};
    std::uint16_t port{0};
    std::size_t io_chunk{65536};  // max bytes per read/write syscall (>= 1)
    int timeout_ms{10000};        // overall per-session deadline
  };

  struct FaultPlan {
    enum class Kind : std::uint8_t { kNone, kKill, kStall };
    Kind kind{Kind::kNone};
    std::uint32_t before_record{0};  // outgoing record number, HELLO = 1
    std::uint32_t stall_ms{0};
  };

  struct SessionSpec {
    SessionKind kind{SessionKind::kCompare};
    bool pull{false};
    bool stop_and_wait{false};
    std::uint32_t replica{0};
    // The client's replica vector. Read on a push; replaced at commit time
    // on a clean pull. Never touched by a killed or failed session.
    vv::RotatingVector* mine{nullptr};
    SiteId own_site{0};  // recorded after reconciling a concurrent pull
    FaultPlan fault{};
  };

  struct SessionResult {
    bool ok{false};      // ran to a clean END/DONE exchange
    bool killed{false};  // the fault plan cut the connection
    bool stalled{false};
    AcceptStatus accept{AcceptStatus::kOk};
    DoneStatus done{DoneStatus::kNoop};
    vv::Ordering relation{vv::Ordering::kEqual};  // our vector vs the server's
    bool transfer{false};
    std::uint64_t elems_sent{0};
    std::uint64_t elems_applied{0};
    std::uint64_t records_out{0};
    std::uint64_t bytes_tx{0};
    std::uint64_t bytes_rx{0};
    std::string error;  // set when !ok && !killed
  };

  explicit SyncClient(const Options& opt) : opt_(opt) {}

  // Connect and send the connection magic. False + *err on failure.
  bool connect(std::string* err);
  void close() { fd_.reset(); }
  bool connected() const { return fd_.valid(); }

  SessionResult run_session(const SessionSpec& spec);

 private:
  Options opt_;
  Fd fd_;
  StreamDecoder in_;
};

}  // namespace optrep::net
