#include "net/wire_session.h"

#include "common/check.h"

namespace optrep::net {

namespace {

using vv::protocol::Action;
using vv::protocol::Event;

// Does the element transfer run at all? `receiver_rel` is the data
// receiver's COMPARE verdict (its vector vs the sender's). kEqual / kAfter
// mean the receiver already covers the sender.
bool transfer_needed(vv::Ordering receiver_rel, vv::VectorKind kind) {
  return receiver_rel == vv::Ordering::kBefore ||
         (receiver_rel == vv::Ordering::kConcurrent && kind != vv::VectorKind::kBrv);
}

// TCP binding of ElementSenderCore: unframed (nothing on a socket is
// revocable — a TailView is always zero), bursty pipelining (one pump
// dispatch emits `burst` committed sends, then parks a continuation the host
// fires once the write buffer is under kWriteWatermark), or lockstep
// stop-and-wait for the ablation mode.
vv::protocol::ElementSenderCore::Config sender_config(vv::VectorKind kind,
                                                      bool stop_and_wait, std::uint32_t burst) {
  vv::protocol::ElementSenderCore::Config cfg;
  cfg.skip_enabled = kind == vv::VectorKind::kSrv;
  cfg.pipelined = !stop_and_wait;
  cfg.framed = false;
  cfg.burst = stop_and_wait ? 1 : burst;
  return cfg;
}

}  // namespace

void WireSession::begin(const Params& p) {
  kind_ = p.kind;
  stop_and_wait_ = p.stop_and_wait;
  // COMPARE has no data direction of its own: the client plays the sender.
  const bool pull = p.pull && p.kind != SessionKind::kCompare;
  data_sender_ = (role_ == Role::kClient) != pull;
  own_site_ = p.own_site;
  probe_seen_ = false;
  initially_concurrent_ = false;
  pump_pending_ = false;
  relation_ = vv::Ordering::kEqual;
  transfer_ = false;
  accept_ = AcceptStatus::kOk;
  done_ = DoneStatus::kNoop;
  breach_ = "";
  records_ = 0;
  gate_record_ = p.gate_record;
  gate_pos_ = kNoGate;
  snd_.reset();
  rx_.reset();

  // The opening record resets the peer's delta chain.
  chain_ = {};
  next_record();
  if (role_ == Role::kClient) {
    const auto flags = static_cast<std::uint8_t>(
        (p.pull ? kHelloFlagPull : 0) | (p.stop_and_wait ? kHelloFlagStopAndWait : 0));
    put_hello(out_, p.kind, flags, p.replica);
    phase_ = Phase::kAwaitAccept;
  } else {
    put_accept(out_, AcceptStatus::kOk);
    phase_ = Phase::kCompare;
  }
  cmp_.emplace(&work_);
  acts_.clear();
  cmp_->step(Event::start(), acts_);  // our COMPARE probe
  emit(acts_);
}

WireSession::Outcome WireSession::on_item(const StreamDecoder::Item& item) {
  using IT = StreamDecoder::ItemType;
  switch (item.type) {
    case IT::kNeedMore:
      return Outcome::kContinue;
    case IT::kMsg:
      on_msg(item.msg);
      return Outcome::kContinue;
    case IT::kAccept:
      if (phase_ != Phase::kAwaitAccept) return breach("unexpected ACCEPT");
      accept_ = static_cast<AcceptStatus>(item.status);
      if (accept_ != AcceptStatus::kOk) {  // the server closes after the status
        phase_ = Phase::kIdle;
        return Outcome::kDone;
      }
      phase_ = Phase::kCompare;
      return Outcome::kContinue;
    case IT::kEnd:
      return on_end();
    case IT::kDone:
      if (phase_ != Phase::kAwaitDone) return breach("unexpected DONE");
      done_ = static_cast<DoneStatus>(item.status);
      phase_ = Phase::kIdle;
      return Outcome::kDone;
    case IT::kHello:
    case IT::kMagic:
      return breach("unexpected control record");
    case IT::kError:
      break;
  }
  return breach("stream decode error");
}

void WireSession::on_msg(const vv::VvMsg& m) {
  switch (phase_) {
    case Phase::kCompare:
      acts_.clear();
      cmp_->step(Event::msg_arrival(m), acts_);
      emit(acts_);  // the verdict answering their probe
      if (m.kind == vv::VvMsg::Kind::kProbe) probe_seen_ = true;
      // Complete = we answered their probe AND hold their verdict on ours.
      if (probe_seen_ && cmp_->complete()) compare_done();
      return;
    case Phase::kRecv:
      step_receiver(Event::msg_arrival(m));  // stop-and-wait ACKs, SYNCS SKIPs
      return;
    case Phase::kSend:
      step_sender(Event::msg_arrival(m));
      return;
    default:
      return;  // stray message: tolerated (protocol robustness contract)
  }
}

void WireSession::compare_done() {
  relation_ = cmp_->decide();
  const vv::Ordering receiver_rel = data_sender_ ? vv::flip(relation_) : relation_;
  const vv::VectorKind vk = vector_kind_of(kind_);
  transfer_ = kind_ != SessionKind::kCompare && transfer_needed(receiver_rel, vk);
  if (data_sender_) {
    if (!transfer_) {
      send_end();
      return;
    }
    snd_.emplace(sender_config(vk, stop_and_wait_, burst_), &work_);
    phase_ = Phase::kSend;
    step_sender(Event::start());
    return;
  }
  if (!transfer_) {  // =, covered, BRV ‖ degrade, or COMPARE
    phase_ = Phase::kAwaitEnd;
    return;
  }
  initially_concurrent_ = receiver_rel == vv::Ordering::kConcurrent;
  const bool pipelined = !stop_and_wait_;
  switch (vk) {
    case vv::VectorKind::kBrv:
      rx_.emplace(std::in_place_type<vv::protocol::BasicReceiverCore>, pipelined, &work_);
      break;
    case vv::VectorKind::kCrv:
      rx_.emplace(std::in_place_type<vv::protocol::ConflictReceiverCore>, pipelined, &work_,
                  initially_concurrent_);
      break;
    case vv::VectorKind::kSrv:
      rx_.emplace(std::in_place_type<vv::protocol::SkipReceiverCore>, pipelined, &work_,
                  initially_concurrent_);
      break;
  }
  phase_ = Phase::kRecv;
  step_receiver(Event::start());
}

WireSession::Outcome WireSession::on_end() {
  switch (phase_) {
    case Phase::kRecv:
      // The commit point: everything before this is a receiver no-op.
      if (initially_concurrent_) work_.record_update(own_site_);
      phase_ = Phase::kCommit;
      return Outcome::kCommit;
    case Phase::kAwaitEnd:
      send_done(DoneStatus::kNoop);
      return Outcome::kDone;
    default:
      return breach("unexpected END");
  }
}

void WireSession::commit(DoneStatus s) {
  OPTREP_CHECK_MSG(phase_ == Phase::kCommit, "commit() outside Outcome::kCommit");
  send_done(s);
}

bool WireSession::pump() {
  while (wants_pump()) {
    pump_pending_ = false;
    step_sender(Event::link_free());
  }
  return phase_ == Phase::kSend && pump_pending_;
}

std::uint64_t WireSession::elems_applied() const {
  if (!rx_) return 0;
  return std::visit([](const auto& c) { return c.counters().applied; }, *rx_);
}

void WireSession::consume(std::size_t n) {
  out_pos_ += n;
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
}

void WireSession::step_sender(const Event& ev) {
  acts_.clear();
  snd_->step(ev, acts_);
  emit(acts_);
  if (snd_->done()) {
    pump_pending_ = false;
    send_end();
  }
}

void WireSession::step_receiver(const Event& ev) {
  acts_.clear();
  std::visit([&](auto& c) { c.step(ev, acts_); }, *rx_);
  emit(acts_);
}

// Over TCP nothing is revocable (TailViews are always zero), so a revocable
// send is a plain send and the speculation actions are no-ops; what remains
// is sends and the pump-continuation request.
void WireSession::emit(const vv::protocol::Actions& acts) {
  for (const auto& a : acts) {
    switch (a.type) {
      case Action::Type::kSend:
      case Action::Type::kSendRevocable:
        next_record();
        vv::frame_encode_msg(out_, a.msg, &chain_);
        break;
      case Action::Type::kPumpWhenFree:
        pump_pending_ = true;
        break;
      default:
        break;  // speculation bookkeeping, finish marker, tracing
    }
  }
}

void WireSession::send_end() {
  next_record();
  put_end(out_);
  phase_ = Phase::kAwaitDone;
}

void WireSession::send_done(DoneStatus s) {
  next_record();
  put_done(out_, s);
  done_ = s;
  phase_ = Phase::kIdle;
}

void WireSession::next_record() {
  if (++records_ == gate_record_) gate_pos_ = out_.size();
}

// The phase stays where the breach found it: the host drops the connection,
// and a server counts a breach mid-session as an aborted session.
WireSession::Outcome WireSession::breach(const char* what) {
  breach_ = what;
  return Outcome::kBreach;
}

}  // namespace optrep::net
