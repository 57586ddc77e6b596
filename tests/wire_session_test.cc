// The sync server's session engine (src/net/wire_session.h) with no sockets:
// a client-role and a server-role WireSession joined by in-memory byte
// queues, with a ReplicaStore behind the server role. Bytes cross either one
// at a time (every record split across deliveries) or as whole buffers.
//
// The oracle cases run seeded compare/push/pull scripts for every sync kind
// in both flow-control modes and require the end states to match
// vv::sync_rotating on shadow vectors — byte-identical in stop-and-wait,
// value-identical when pipelined (what ServeOracle checks over TCP). The
// breach matrix drives each role into each phase and hands it every control
// record that phase must refuse: each one has to end the session as a
// breach, with nothing committed on either end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/replica_store.h"
#include "net/wire_session.h"
#include "sim/event_loop.h"
#include "vv/compare.h"
#include "vv/session.h"

namespace optrep::net {
namespace {

using Outcome = WireSession::Outcome;
using Phase = WireSession::Phase;
using Role = WireSession::Role;
using vv::Ordering;
using vv::RotatingVector;
using vv::VectorKind;

constexpr std::size_t kWhole = static_cast<std::size_t>(-1);
const SiteId kClientSite{100};

// One client and one server engine over in-memory queues. The harness plays
// both hosts: the server side begins a session when a HELLO arrives (on a
// snapshot of the store) and commits into the store; the client side copies
// a committed pull back into *mine.
class Link {
 public:
  Link(VectorKind kind, std::uint32_t replicas, std::uint32_t prefill, std::size_t chunk)
      : store_(ReplicaStore::Config{.replicas = replicas,
                                    .kind = kind,
                                    .site_capacity = 1024,
                                    .seed = 42,
                                    .prefill_updates = prefill}),
        chunk_(chunk) {}

  ReplicaStore& store() { return store_; }
  WireSession& engine(Role r) { return r == Role::kServer ? server_ : client_; }
  int commits() const { return commits_; }

  void start(const WireSession::Params& p, RotatingVector* mine) {
    mine_ = mine;
    client_over_ = false;
    server_over_ = false;
    client_.work() = *mine;
    client_.begin(p);
  }

  // Moves up to `chunk` bytes each way and dispatches what arrived. False
  // once nothing is left to move.
  bool step() {
    client_.pump();
    server_.pump();
    const bool up = move(client_, server_in_);
    const bool down = move(server_, client_in_);
    dispatch_server();
    dispatch_client();
    return up || down;
  }

  // Runs the session to its end on both sides.
  void run() {
    while (step()) {
    }
    ASSERT_TRUE(client_over_ && server_over_) << "session stalled";
    ASSERT_FALSE(client_.active());
    ASSERT_FALSE(server_.active());
  }

  // Steps until `role` reaches `phase`; false if the session never does.
  bool run_until(Role role, Phase phase) {
    for (int guard = 0; guard < 1'000'000; ++guard) {
      if (engine(role).phase() == phase) return true;
      if (!step()) return engine(role).phase() == phase;
    }
    return false;
  }

 private:
  bool move(WireSession& from, StreamDecoder& to) {
    const auto bytes = from.sendable();
    if (bytes.empty()) return false;
    const std::size_t n = bytes.size() < chunk_ ? bytes.size() : chunk_;
    to.append(bytes.data(), n);
    from.consume(n);
    return true;
  }

  void dispatch_server() {
    for (;;) {
      const StreamDecoder::Item item = server_in_.next();
      if (item.type == StreamDecoder::ItemType::kNeedMore) return;
      if (item.type == StreamDecoder::ItemType::kHello && !server_.active()) {
        hello_ = WireSession::Params{
            .kind = item.kind,
            .pull = (item.flags & kHelloFlagPull) != 0,
            .stop_and_wait = (item.flags & kHelloFlagStopAndWait) != 0,
            .replica = item.replica,
            .own_site = store_.own_site(item.replica),
        };
        store_.snapshot(item.replica, &server_.work());
        server_.begin(hello_);
        continue;
      }
      switch (server_.on_item(item)) {
        case Outcome::kContinue:
          break;
        case Outcome::kBreach:
          ADD_FAILURE() << "server breach: " << server_.breach_reason();
          return;
        case Outcome::kCommit:
          ASSERT_TRUE(store_.commit(hello_.replica, server_.work()));
          ++commits_;
          server_.commit(DoneStatus::kCommitted);
          [[fallthrough]];
        case Outcome::kDone:
          server_over_ = true;
          break;
      }
    }
  }

  void dispatch_client() {
    while (!client_over_) {
      const StreamDecoder::Item item = client_in_.next();
      if (item.type == StreamDecoder::ItemType::kNeedMore) return;
      switch (client_.on_item(item)) {
        case Outcome::kContinue:
          break;
        case Outcome::kBreach:
          ADD_FAILURE() << "client breach: " << client_.breach_reason();
          return;
        case Outcome::kCommit:
          client_.commit(DoneStatus::kCommitted);
          *mine_ = client_.work();
          ++commits_;
          [[fallthrough]];
        case Outcome::kDone:
          client_over_ = true;
          break;
      }
    }
  }

  ReplicaStore store_;
  std::size_t chunk_;
  WireSession client_{Role::kClient, kDefaultBurst};
  WireSession server_{Role::kServer, kDefaultBurst};
  StreamDecoder client_in_;
  StreamDecoder server_in_;
  WireSession::Params hello_;
  RotatingVector* mine_{nullptr};
  bool client_over_{false};
  bool server_over_{false};
  int commits_{0};
};

SessionKind sync_kind(VectorKind k) { return session_kind_of(k); }

bool transfer_needed(Ordering receiver_rel, VectorKind kind) {
  return receiver_rel == Ordering::kBefore ||
         (receiver_rel == Ordering::kConcurrent && kind != VectorKind::kBrv);
}

// COMPARE decides the receiver's relation, a needed transfer runs the
// simulator session, and a reconciled concurrent sync ends with the §2.2
// local update. Returns the receiver's relation to the sender.
Ordering oracle_sync(RotatingVector& recv, const RotatingVector& send, VectorKind kind,
                     SiteId own, bool stop_and_wait) {
  const Ordering rel = vv::compare_fast(recv, send);
  if (!transfer_needed(rel, kind)) return rel;
  vv::SyncOptions opt;
  opt.kind = kind;
  opt.mode = stop_and_wait ? vv::TransferMode::kStopAndWait : vv::TransferMode::kPipelined;
  opt.known_relation = rel;
  sim::EventLoop loop;
  vv::sync_rotating(loop, recv, send, opt);
  if (rel == Ordering::kConcurrent) recv.record_update(own);
  return rel;
}

struct OracleCase {
  VectorKind kind;
  bool stop_and_wait;
  std::size_t chunk;
};

std::string describe(const OracleCase& c) {
  std::string name = c.kind == VectorKind::kBrv   ? "BRV"
                     : c.kind == VectorKind::kCrv ? "CRV"
                                                  : "SRV";
  name += c.stop_and_wait ? "StopAndWait" : "Pipelined";
  name += c.chunk == 1 ? "Bytewise" : "Whole";
  return name;
}

std::string case_name(const testing::TestParamInfo<OracleCase>& info) {
  return describe(info.param);
}

// gtest would otherwise list each case with the raw bytes of OracleCase,
// whose padding differs from run to run.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << describe(c); }

class WireSessionOracle : public testing::TestWithParam<OracleCase> {};

// Steps rotate compare → push → pull against a seeded replica, with seeded
// local updates before each. CRV and SRV run four prefilled replicas and a
// client that writes before every step, so concurrent syncs (and their §2.2
// update) are common. SYNCB cannot reconcile ‖, so BRV runs a single-writer
// world instead: one empty replica, and only the upcoming data sender writes
// (the client before a push, the replica before a pull).
TEST_P(WireSessionOracle, EndStatesMatchSimulator) {
  const OracleCase c = GetParam();
  const bool single_writer = c.kind == VectorKind::kBrv;
  const std::uint32_t replicas = single_writer ? 1 : 4;
  constexpr int kSteps = 90;
  Link link(c.kind, replicas, /*prefill=*/single_writer ? 0 : 6, c.chunk);

  std::vector<RotatingVector> shadow(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) shadow[r] = link.store().replica_unsafe(r);
  RotatingVector mine;
  RotatingVector shadow_mine;

  Rng rng(0x5e55101ULL);
  int transfers[3] = {0, 0, 0};
  for (int step = 0; step < kSteps; ++step) {
    const int action = step % 3;  // 0 compare, 1 push, 2 pull
    const auto r = static_cast<std::uint32_t>(rng.below(replicas));
    for (std::uint64_t u = rng.below(3); u > 0; --u) {
      if (single_writer && action == 2) {
        link.store().replica_unsafe(r).record_update(link.store().own_site(r));
        shadow[r].record_update(link.store().own_site(r));
      } else if (!single_writer || action == 1) {
        mine.record_update(kClientSite);
        shadow_mine.record_update(kClientSite);
      }
    }
    link.start(WireSession::Params{.kind = action == 0 ? SessionKind::kCompare
                                                        : sync_kind(c.kind),
                                   .pull = action == 2,
                                   .stop_and_wait = c.stop_and_wait,
                                   .replica = r,
                                   .own_site = kClientSite},
               &mine);
    link.run();
    if (testing::Test::HasFatalFailure()) return;
    const WireSession& cl = link.engine(Role::kClient);

    if (action == 0) {
      EXPECT_EQ(cl.relation(), vv::compare_fast(shadow_mine, shadow[r])) << "step " << step;
      EXPECT_FALSE(cl.transfer());
      EXPECT_EQ(cl.done(), DoneStatus::kNoop);
    } else if (action == 1) {
      const Ordering rel = oracle_sync(shadow[r], shadow_mine, c.kind,
                                       link.store().own_site(r), c.stop_and_wait);
      EXPECT_EQ(cl.relation(), vv::flip(rel)) << "step " << step;
      EXPECT_EQ(cl.transfer(), transfer_needed(rel, c.kind)) << "step " << step;
      EXPECT_EQ(cl.done(), cl.transfer() ? DoneStatus::kCommitted : DoneStatus::kNoop);
    } else {
      const Ordering rel = oracle_sync(shadow_mine, shadow[r], c.kind, kClientSite,
                                       c.stop_and_wait);
      EXPECT_EQ(cl.relation(), rel) << "step " << step;
      EXPECT_EQ(cl.transfer(), transfer_needed(rel, c.kind)) << "step " << step;
    }
    transfers[action] += cl.transfer() ? 1 : 0;
  }
  // The script must exercise real element transfers in both directions.
  EXPECT_GT(transfers[1], 0);
  EXPECT_GT(transfers[2], 0);

  for (std::uint32_t r = 0; r < replicas; ++r) {
    const RotatingVector& got = link.store().replica_unsafe(r);
    if (c.stop_and_wait) {
      EXPECT_TRUE(got.identical_to(shadow[r]))
          << "replica " << r << "\n got " << got.to_string() << "\nwant "
          << shadow[r].to_string();
    } else {
      EXPECT_TRUE(got.same_values(shadow[r].to_version_vector()))
          << "replica " << r << "\n got " << got.to_string() << "\nwant "
          << shadow[r].to_string();
    }
  }
  if (c.stop_and_wait) {
    EXPECT_TRUE(mine.identical_to(shadow_mine))
        << " got " << mine.to_string() << "\nwant " << shadow_mine.to_string();
  } else {
    EXPECT_TRUE(mine.same_values(shadow_mine.to_version_vector()))
        << " got " << mine.to_string() << "\nwant " << shadow_mine.to_string();
  }
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> out;
  for (VectorKind k : {VectorKind::kBrv, VectorKind::kCrv, VectorKind::kSrv}) {
    for (bool saw : {true, false}) {
      for (std::size_t chunk : {std::size_t{1}, kWhole}) out.push_back({k, saw, chunk});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(KindsModesChunks, WireSessionOracle,
                         testing::ValuesIn(oracle_cases()), case_name);

// ---- breach matrix ---------------------------------------------------------

enum class Shape : std::uint8_t { kCompare, kPushTransfer, kPullTransfer, kPullNoop };

// A session shape that passes through the phase, with the vectors set up so
// the transfer (if any) runs in stop-and-wait over several records.
struct Reach {
  Role role;
  Phase phase;
  Shape shape;
};

StreamDecoder::Item control(StreamDecoder::ItemType t) {
  StreamDecoder::Item item;
  item.type = t;
  return item;
}

// Every control record and the phases (per role) that must refuse it.
bool refuses(Role role, Phase phase, StreamDecoder::ItemType t) {
  using IT = StreamDecoder::ItemType;
  switch (t) {
    case IT::kAccept:
      return role == Role::kServer || phase != Phase::kAwaitAccept;
    case IT::kEnd:
      return phase != Phase::kRecv && phase != Phase::kAwaitEnd;
    case IT::kDone:
      return phase != Phase::kAwaitDone;
    default:  // HELLO or the magic mid-session
      return true;
  }
}

TEST(WireSessionBreach, OutOfPhaseControlRecordsBreachWithoutCommit) {
  using IT = StreamDecoder::ItemType;
  const Reach reaches[] = {
      {Role::kServer, Phase::kCompare, Shape::kPushTransfer},
      {Role::kServer, Phase::kRecv, Shape::kPushTransfer},
      {Role::kServer, Phase::kAwaitEnd, Shape::kCompare},
      {Role::kServer, Phase::kSend, Shape::kPullTransfer},
      {Role::kServer, Phase::kAwaitDone, Shape::kPullTransfer},
      {Role::kClient, Phase::kAwaitAccept, Shape::kPullTransfer},
      {Role::kClient, Phase::kCompare, Shape::kPullTransfer},
      {Role::kClient, Phase::kRecv, Shape::kPullTransfer},
      {Role::kClient, Phase::kAwaitEnd, Shape::kPullNoop},
      {Role::kClient, Phase::kSend, Shape::kPushTransfer},
      {Role::kClient, Phase::kAwaitDone, Shape::kCompare},
  };
  const IT records[] = {IT::kAccept, IT::kHello, IT::kMagic, IT::kEnd, IT::kDone};

  int checked = 0;
  for (const Reach& reach : reaches) {
    for (const IT record : records) {
      if (!refuses(reach.role, reach.phase, record)) continue;
      SCOPED_TRACE(testing::Message()
                   << "role " << static_cast<int>(reach.role) << " phase "
                   << static_cast<int>(reach.phase) << " record " << static_cast<int>(record));
      Link link(VectorKind::kSrv, /*replicas=*/1, /*prefill=*/0, /*chunk=*/1);
      // Replica 0 holds sites 1..6; the client is behind, ahead, or equal.
      RotatingVector& replica = link.store().replica_unsafe(0);
      for (std::uint32_t s = 1; s <= 6; ++s) replica.record_update(SiteId{s});
      RotatingVector mine;
      if (reach.shape == Shape::kPushTransfer || reach.shape == Shape::kPullNoop) {
        mine = link.store().replica_unsafe(0);
        if (reach.shape == Shape::kPushTransfer) {
          for (std::uint32_t s = 10; s < 16; ++s) mine.record_update(SiteId{s});
        }
      }
      const RotatingVector replica_before = link.store().replica_unsafe(0);
      const RotatingVector mine_before = mine;

      link.start(WireSession::Params{
                     .kind = reach.shape == Shape::kCompare ? SessionKind::kCompare
                                                            : SessionKind::kSyncS,
                     .pull = reach.shape == Shape::kPullTransfer ||
                             reach.shape == Shape::kPullNoop,
                     .stop_and_wait = true,
                     .own_site = kClientSite},
                 &mine);
      ASSERT_TRUE(link.run_until(reach.role, reach.phase));

      EXPECT_EQ(link.engine(reach.role).on_item(control(record)), Outcome::kBreach);
      EXPECT_STRNE(link.engine(reach.role).breach_reason(), "");
      EXPECT_EQ(link.commits(), 0);
      EXPECT_TRUE(link.store().replica_unsafe(0).identical_to(replica_before));
      EXPECT_TRUE(mine.identical_to(mine_before));
      ++checked;
    }
  }
  EXPECT_EQ(checked, 48);  // 22 server cases, 26 client cases
}

// An engine with no session refuses END, DONE and ACCEPT; a stray element
// message is tolerated (the robustness contract of the protocol cores).
TEST(WireSessionBreach, IdleEngineRefusesControlRecords) {
  using IT = StreamDecoder::ItemType;
  for (const Role role : {Role::kServer, Role::kClient}) {
    WireSession s(role, kDefaultBurst);
    EXPECT_EQ(s.on_item(control(IT::kMsg)), Outcome::kContinue);
    for (const IT t : {IT::kEnd, IT::kDone, IT::kAccept, IT::kError}) {
      EXPECT_EQ(s.on_item(control(t)), Outcome::kBreach);
      EXPECT_FALSE(s.active());
    }
  }
}

// The fault gate holds back exactly the named record and everything after
// it; opening it releases the rest unchanged.
TEST(WireSessionGate, HoldsTheStreamBeforeTheNamedRecord) {
  RotatingVector v;
  v.record_update(SiteId{3});
  WireSession open(Role::kClient, kDefaultBurst);
  open.work() = v;
  open.begin({.kind = SessionKind::kSyncS, .replica = 2});
  const std::vector<std::uint8_t> all(open.sendable().begin(), open.sendable().end());
  ASSERT_EQ(open.records_out(), 2u);  // HELLO + probe

  WireSession gated(Role::kClient, kDefaultBurst);
  gated.work() = v;
  gated.begin({.kind = SessionKind::kSyncS, .replica = 2, .gate_record = 2});
  EXPECT_EQ(gated.sendable().size(), 6u);  // the HELLO alone
  EXPECT_FALSE(gated.at_gate());
  gated.consume(6);
  EXPECT_TRUE(gated.at_gate());
  EXPECT_TRUE(gated.sendable().empty());
  EXPECT_EQ(gated.buffered(), all.size() - 6);
  gated.open_gate();
  const auto rest = gated.sendable();
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), all.begin() + 6));
}

}  // namespace
}  // namespace optrep::net
