#include "net/client.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "net/wire_session.h"

namespace optrep::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

bool SyncClient::connect(std::string* err) {
  fd_ = connect_tcp(opt_.host, opt_.port, err);
  if (!fd_.valid()) return false;
  std::size_t off = 0;  // blocking magic write, then the socket goes async
  while (off < sizeof kMagic) {
    const ssize_t n = ::write(fd_.get(), kMagic + off, sizeof kMagic - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (err) *err = "failed to send connection magic";
    fd_.reset();
    return false;
  }
  set_nonblocking(fd_.get(), true);
  in_ = StreamDecoder{};
  return true;
}

SyncClient::SessionResult SyncClient::run_session(const SessionSpec& spec) {
  OPTREP_CHECK_MSG(spec.mine != nullptr, "run_session needs the client vector");
  SessionResult res;
  if (!fd_.valid()) {
    res.error = "not connected";
    return res;
  }
  const auto fail = [&](const char* what) {
    res.error = what;
    fd_.reset();
    return res;
  };

  // HELLO and our COMPARE probe leave in one batch.
  WireSession s(WireSession::Role::kClient, kDefaultBurst);
  s.work() = *spec.mine;
  const bool faulty = spec.fault.kind != FaultPlan::Kind::kNone;
  s.begin(WireSession::Params{
      .kind = spec.kind,
      .pull = spec.pull,
      .stop_and_wait = spec.stop_and_wait,
      .replica = spec.replica,
      .own_site = spec.own_site,
      .gate_record = faulty ? spec.fault.before_record : 0,
  });

  const auto deadline = Clock::now() + std::chrono::milliseconds(opt_.timeout_ms);
  const std::size_t chunk = opt_.io_chunk == 0 ? 1 : opt_.io_chunk;
  std::vector<std::uint8_t> rbuf(std::min<std::size_t>(chunk, 65536));
  bool over = false;      // the session ended (or the server refused it)
  bool received = false;  // we committed a pull into s.work()

  while (!(over && s.buffered() == 0)) {
    if (s.at_gate()) {
      // The fault plan's record: the wire carries every record before it.
      if (spec.fault.kind == FaultPlan::Kind::kKill) {
        res.killed = true;  // abrupt disconnect: the partial session is a no-op
        res.records_out = spec.fault.before_record;
        fd_.reset();
        return res;
      }
      res.stalled = true;  // the server sees a genuinely slow client, not a batch
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.fault.stall_ms));
      s.open_gate();
    }
    s.pump();

    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return fail("session timeout");
    struct pollfd p {};
    p.fd = fd_.get();
    p.events = static_cast<short>(POLLIN | (s.sendable().empty() ? 0 : POLLOUT));
    const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return fail("poll failed");
    }
    if (rc == 0) continue;  // re-check the deadline

    if ((p.revents & POLLOUT) != 0 && !s.sendable().empty()) {
      const std::size_t len = std::min(chunk, s.sendable().size());
      const ssize_t n = ::write(fd_.get(), s.sendable().data(), len);
      if (n > 0) {
        s.consume(static_cast<std::size_t>(n));
        res.bytes_tx += static_cast<std::uint64_t>(n);
      } else if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return fail("write failed");
      }
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t n = ::read(fd_.get(), rbuf.data(), rbuf.size());
      if (n == 0) {
        if (over) break;  // e.g. the refused-ACCEPT close
        return fail("server closed connection");
      }
      if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return fail("read failed");
      }
      if (n > 0) {
        res.bytes_rx += static_cast<std::uint64_t>(n);
        in_.append(rbuf.data(), static_cast<std::size_t>(n));
      }
      while (!over) {
        const StreamDecoder::Item item = in_.next();
        if (item.type == StreamDecoder::ItemType::kNeedMore) break;
        switch (s.on_item(item)) {
          case WireSession::Outcome::kContinue:
            break;
          case WireSession::Outcome::kBreach:
            return fail(s.breach_reason());
          case WireSession::Outcome::kCommit:
            // Copied back below, once the DONE record is on the wire: a kill
            // before it leaves *spec.mine untouched.
            s.commit(DoneStatus::kCommitted);
            received = true;
            [[fallthrough]];
          case WireSession::Outcome::kDone:
            over = true;
            break;
        }
      }
    }
  }

  res.accept = s.accept();
  if (res.accept != AcceptStatus::kOk) {
    fd_.reset();  // the server is closing this connection
  }
  res.ok = res.accept == AcceptStatus::kOk;
  if (received) *spec.mine = s.work();
  res.done = s.done();
  res.relation = s.relation();
  res.transfer = s.transfer();
  res.elems_sent = s.elems_sent();
  res.elems_applied = s.elems_applied();
  res.records_out = s.records_out();
  return res;
}

}  // namespace optrep::net
