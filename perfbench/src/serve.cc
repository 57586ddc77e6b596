// serve-mixed: an in-process net::Server (SRV, one worker, 16 replicas,
// prefill 8) on loopback, driven by three client connections, each a thread
// with its own SyncClient and replica vector. Session mix per client: COMPARE
// 0.2; of the sync sessions, pull 0.4 and push 0.6; target replica shared
// (uniform) with probability 0.5, else the client's own; up to 8 local
// updates before each session. Draws follow net::LoadGen's per-client order.
//
// First, rounds of a fixed number of sessions on one connection, each followed
// by an anti-entropy sweep: with one client the server's state, and so every
// byte on the wire, is a function of the seed (wire_bytes_per_session, and
// wire_bytes_total, the bytes of every sweep).
// Then rounds interleave the timed phases:
//   closed loop, 3 connections, a share of --seconds (CPU time of the
//     process per session: session_cpu_ref), then one anti-entropy sweep
//     over the wire that converges the replicas;
//   a few times: a fixed number of sessions on one connection, each timed
//     (p50_ref; the p99 goes to the detail record), then a sweep
//     (converge_cpu_ref, its CPU time);
//   open loop, a share of --seconds, at a fixed rate well below capacity:
//     latency from each session's due time and generator lateness, for the
//     detail record.
// Traced runs repeat the 3-connection closed loop with a span per session,
// then time ReplicaStore and frame codec calls on the run's final state.
// Every thread of the run shares one vCPU (see run_serve_mixed).
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <span>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "rt/thread_pool.h"
#include "sim/event_loop.h"
#include "vv/frame_codec.h"
#include "vv/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using optrep::Rng;
using optrep::SiteId;
using optrep::net::DoneStatus;
using optrep::net::SessionKind;
using optrep::net::SyncClient;
using optrep::vv::RotatingVector;

constexpr std::uint32_t kReplicas = 16;
constexpr std::uint32_t kPrefill = 8;
constexpr std::size_t kSiteCapacity = 1024;
constexpr unsigned kConns = 3;
constexpr double kCompareFrac = 0.2;
constexpr double kPullFrac = 0.4;
constexpr double kSharedFrac = 0.5;
constexpr std::uint32_t kMaxDelta = 8;

// Session latency (p50, p99) is timed on one connection in closed
// loop: no queue of other clients' sessions, and no due time a slowed host
// could push the schedule past. Each run of kSessionsPerSweep sessions is
// summarized on its own, and the figures are the median over those runs:
// interference from outside the process (a descheduled vCPU, a busy
// neighbour) stalls a stretch of sessions, which moves the tail of the runs
// it hits and not the median over runs.
constexpr int kRounds = 8;
constexpr int kSweepsPerRound = 3;
constexpr std::uint64_t kSessionsPerSweep = 1500;
// The deterministic phase on the fresh store, before anything is timed.
constexpr int kDeterministicRounds = 10;
constexpr std::uint64_t kDeterministicSessions = 2000;  // per round
// Open loop: the offered rate, a share of the 3-connection closed loop's
// 10k-35k sessions/s, and the windows its latency is summarized in.
constexpr double kNominalRate = 5000;
constexpr double kNominalWindowS = 0.25;
// Shares of --seconds per round: the 3-connection closed loop, the open loop.
constexpr double kClosedShare = 0.05;
constexpr double kNominalShare = 0.025;

// Per-connection counters.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t completed{0};
  std::uint64_t errors{0};
  std::uint64_t push_transfers{0};
  std::uint64_t pull_transfers{0};
  std::uint64_t commits{0};
  std::uint64_t bytes{0};
  std::string first_error;

  void add(const Tally& o) {
    attempted += o.attempted;
    completed += o.completed;
    errors += o.errors;
    push_transfers += o.push_transfers;
    pull_transfers += o.pull_transfers;
    commits += o.commits;
    bytes += o.bytes;
    if (first_error.empty()) first_error = o.first_error;
  }
};

// One open-loop session, as the client saw it.
struct OpenSample {
  double due_s{0};    // due time, from the start of the step
  double lat_us{0};   // end - due
  double late_us{0};  // start - due
  bool ok{false};
  bool idle{false};  // the client was free at the due time: late_us is generator lateness
};

struct Client {
  Client(std::uint16_t port, unsigned k, std::uint64_t seed)
      : cl(options(port)), own{kReplicas + k}, rng(optrep::rt::task_seed(seed, k)), log(k + 1) {
    mine.reserve(kSiteCapacity);
  }
  static SyncClient::Options options(std::uint16_t port) {
    SyncClient::Options o;
    o.port = port;
    return o;
  }

  SyncClient cl;
  RotatingVector mine;
  SiteId own;
  Rng rng;
  Tally tally;
  SpanLog log;
  std::uint64_t sessions{0};  // request ids of this client's spans
  // Open-loop samples of the current step, sized once after set-up.
  std::vector<OpenSample> open;
};

struct SessionResult {
  bool ok{false};
  bool write{false};  // a push: the only session kind that writes a replica
};

// One session of the mix on client c. With `log`, the session is a span.
SessionResult run_mixed_session(Client& c, SpanLog* log) {
  const double kind_u = c.rng.uniform();
  const double pull_u = c.rng.uniform();
  const double shared_u = c.rng.uniform();
  const std::uint64_t replica_u = c.rng.below(kReplicas);
  const std::uint64_t delta = c.rng.below(std::uint64_t{kMaxDelta} + 1);

  SyncClient::SessionSpec spec;
  const bool is_compare = kind_u < kCompareFrac;
  spec.kind = is_compare ? SessionKind::kCompare : SessionKind::kSyncS;
  spec.pull = !is_compare && pull_u < kPullFrac;
  spec.replica = shared_u < kSharedFrac ? static_cast<std::uint32_t>(replica_u)
                                        : (c.own.value - kReplicas) % kReplicas;
  spec.mine = &c.mine;
  spec.own_site = c.own;
  for (std::uint64_t d = 0; d < delta; ++d) c.mine.record_update(c.own);

  Tally& t = c.tally;
  SessionResult out;
  out.write = !is_compare && !spec.pull;
  ++t.attempted;
  std::string err;
  if (!c.cl.connected() && !c.cl.connect(&err)) {
    ++t.errors;
    if (t.first_error.empty()) t.first_error = "reconnect: " + err;
    return out;
  }
  const std::uint32_t span =
      log != nullptr ? log->begin("net.session", 0, (std::uint64_t{c.own.value} << 40) | ++c.sessions)
                     : 0;
  const SyncClient::SessionResult res = c.cl.run_session(spec);
  if (log != nullptr) log->end(span);
  t.bytes += res.bytes_tx + res.bytes_rx;
  if (!res.ok) {
    ++t.errors;
    if (t.first_error.empty()) t.first_error = res.error.empty() ? "session failed" : res.error;
    c.cl.close();
    return out;
  }
  ++t.completed;
  if (res.transfer) ++(spec.pull ? t.pull_transfers : t.push_transfers);
  if (out.write && res.done == DoneStatus::kCommitted) ++t.commits;
  out.ok = true;
  return out;
}

void run_on_clients(std::vector<std::unique_ptr<Client>>& clients, unsigned n,
                    const std::function<void(Client&)>& fn) {
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < n; ++k) threads.emplace_back([&, k] { fn(*clients[k]); });
  for (auto& t : threads) t.join();
}

// Closed loop: n clients issue sessions back to back until the deadline.
struct ClosedResult {
  std::uint64_t completed{0};
  std::uint64_t bytes{0};
  double wall_s{0};
  double client_cpu_s{0};
  double process_cpu_s{0};  // every thread of the process: server and clients
  ThreadCpu server{};
  double rate() const { return static_cast<double>(completed) / wall_s; }
  double rate_per_cpu_s() const { return static_cast<double>(completed) / process_cpu_s; }
};

ClosedResult closed_loop(std::vector<std::unique_ptr<Client>>& clients, unsigned n,
                         double seconds, bool traced,
                         const std::vector<int>& server_tids) {
  std::vector<std::uint64_t> done(n, 0), bytes(n, 0);
  std::vector<double> cpu(n, 0);
  ClosedResult r;
  const ThreadCpu s0 = sum_thread_cpu(server_tids);
  const std::int64_t p0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  run_on_clients(clients, n, [&](Client& c) {
    const unsigned k = c.own.value - kReplicas;
    const std::uint64_t c0 = c.tally.completed;
    const std::uint64_t b0 = c.tally.bytes;
    ThreadCpu cpu0;
    read_thread_cpu(current_tid(), &cpu0);
    while (now_ns() < deadline) run_mixed_session(c, traced ? &c.log : nullptr);
    ThreadCpu cpu1;
    read_thread_cpu(current_tid(), &cpu1);
    done[k] = c.tally.completed - c0;
    bytes[k] = c.tally.bytes - b0;
    cpu[k] = static_cast<double>(cpu1.cpu_ns - cpu0.cpu_ns) * 1e-9;
  });
  r.wall_s = seconds_since(t0);
  r.process_cpu_s = static_cast<double>(process_cpu_ns() - p0) * 1e-9;
  r.server = sum_thread_cpu(server_tids) - s0;
  for (unsigned k = 0; k < n; ++k) {
    r.completed += done[k];
    r.bytes += bytes[k];
    r.client_cpu_s += cpu[k];
  }
  return r;
}

// `n` sessions back to back on one client; false when one failed. With
// `lat_us`, each session's latency is appended to it.
bool fixed_sessions(Client& c, std::uint64_t n, std::vector<double>* lat_us = nullptr) {
  const std::uint64_t errors = c.tally.errors;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    run_mixed_session(c, nullptr);
    if (lat_us != nullptr) lat_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return c.tally.errors == errors;
}

// Open loop: session i of the step is due at t0 + i/rate, dealt round-robin
// to the clients; a client runs its due sessions in order. Latency counts
// from the due time, so a slow session delays the ones queued behind it.

// The samples of one step, in the clients' buffers (valid until the next step).
struct OpenResult {
  std::vector<std::span<const OpenSample>> parts;
  double seconds{0};  // length of the schedule
  double wall_s{0};

  template <class Fn>
  void each(Fn&& fn) const {
    for (const auto& part : parts) {
      for (const OpenSample& s : part) fn(s);
    }
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    each([&](const OpenSample& s) { n += s.ok ? 0 : 1; });
    return n;
  }
  // Latencies of completed sessions due in [from_s, to_s).
  std::vector<double> latencies(double from_s = 0, double to_s = 1e300) const {
    std::vector<double> out;
    each([&](const OpenSample& s) {
      if (s.ok && s.due_s >= from_s && s.due_s < to_s) out.push_back(s.lat_us);
    });
    return out;
  }
  std::vector<double> generator_late_us() const {
    std::vector<double> out;
    each([&](const OpenSample& s) {
      if (s.idle) out.push_back(s.late_us);
    });
    return out;
  }
  // Latency of each `window_s` window of the schedule (by due time).
  std::vector<Dist> windows(double window_s) const {
    std::vector<Dist> out;
    for (double from = 0; from + window_s <= seconds + 1e-9; from += window_s) {
      out.push_back(summarize(latencies(from, from + window_s)));
    }
    return out;
  }
};

OpenResult open_loop(std::vector<std::unique_ptr<Client>>& clients, double rate, double seconds,
                     bool traced) {
  const auto per_client = static_cast<std::size_t>(rate * seconds / kConns);
  OpenResult r;
  r.seconds = seconds;
  const std::int64_t t0 = now_ns() + 2'000'000;  // everyone starts on the same schedule
  run_on_clients(clients, kConns, [&](Client& c) {
    // Precise wake-ups without spinning, which would take the CPU the server
    // shares with the clients: the kernel's default 50 µs timer slack off.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const unsigned k = c.own.value - kReplicas;
    OPTREP_CHECK_MSG(per_client <= c.open.size(), "open-loop sample buffer too small");
    std::int64_t free_at = 0;
    for (std::size_t i = 0; i < per_client; ++i) {
      const auto due =
          t0 + static_cast<std::int64_t>(static_cast<double>(i * kConns + k) / rate * 1e9);
      std::int64_t now = now_ns();
      while (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      OpenSample& s = c.open[i];
      s.idle = free_at <= due;
      s.due_s = static_cast<double>(due - t0) * 1e-9;
      s.late_us = static_cast<double>(now - due) * 1e-3;
      const SessionResult res = run_mixed_session(c, traced ? &c.log : nullptr);
      free_at = now_ns();
      s.ok = res.ok;
      s.lat_us = static_cast<double>(free_at - due) * 1e-3;
    }
  });
  r.wall_s = seconds_since(t0);
  for (const auto& c : clients) r.parts.emplace_back(c->open.data(), per_client);
  return r;
}

// Anti-entropy over the wire: a sweeper client pulls every replica (joining
// them, reconciling concurrent ones), then pushes the join back to each.
// Afterwards every replica equals the sweeper's vector; a COMPARE per replica
// checks it. Returns false when a session failed or a replica differs.
struct SweepResult {
  bool ok{true};
  double seconds{0};
  double cpu_s{0};  // process CPU time: the sweeper and the server
  std::uint64_t bytes{0};
};

SweepResult converge_sweep(Client& c, RotatingVector& sweeper, SiteId sweeper_site) {
  SweepResult r;
  const auto session = [&](SessionKind kind, bool pull, std::uint32_t replica,
                           optrep::vv::Ordering* rel) {
    SyncClient::SessionSpec spec;
    spec.kind = kind;
    spec.pull = pull;
    spec.replica = replica;
    spec.mine = &sweeper;
    spec.own_site = sweeper_site;
    ++c.tally.attempted;
    const SyncClient::SessionResult res = c.cl.run_session(spec);
    r.bytes += res.bytes_tx + res.bytes_rx;
    if (!res.ok) {
      ++c.tally.errors;
      if (c.tally.first_error.empty()) c.tally.first_error = "sweep: " + res.error;
      r.ok = false;
      return;
    }
    ++c.tally.completed;
    if (!pull && kind != SessionKind::kCompare && res.done == DoneStatus::kCommitted) {
      ++c.tally.commits;
    }
    if (rel != nullptr) *rel = res.relation;
  };
  const std::int64_t t0 = now_ns();
  const std::int64_t p0 = process_cpu_ns();
  for (std::uint32_t rep = 0; rep < kReplicas; ++rep) session(SessionKind::kSyncS, true, rep, nullptr);
  for (std::uint32_t rep = 0; rep < kReplicas; ++rep) session(SessionKind::kSyncS, false, rep, nullptr);
  r.cpu_s = static_cast<double>(process_cpu_ns() - p0) * 1e-9;
  r.seconds = seconds_since(t0);
  const std::uint64_t sweep_bytes = r.bytes;
  for (std::uint32_t rep = 0; rep < kReplicas; ++rep) {
    optrep::vv::Ordering rel = optrep::vv::Ordering::kConcurrent;
    session(SessionKind::kCompare, false, rep, &rel);
    if (rel != optrep::vv::Ordering::kEqual) r.ok = false;
  }
  r.bytes = sweep_bytes;
  return r;
}

// Server start (store construction with prefill, bind, worker launch) plus
// the three client connects.
struct Rig {
  std::unique_ptr<optrep::net::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int> server_tids;
  double setup_s{0};
  std::string error;
};

Rig build_rig(std::uint64_t seed, std::size_t open_capacity) {
  Rig rig;
  optrep::net::ServerConfig cfg;
  cfg.workers = 1;
  cfg.store.replicas = kReplicas;
  cfg.store.kind = optrep::vv::VectorKind::kSrv;
  cfg.store.site_capacity = kSiteCapacity;
  cfg.store.seed = seed;
  cfg.store.prefill_updates = kPrefill;
  const std::vector<int> before = thread_ids();
  const std::int64_t t0 = now_ns();
  rig.server = std::make_unique<optrep::net::Server>(cfg);
  if (!rig.server->start(&rig.error)) return rig;
  for (unsigned k = 0; k < kConns; ++k) {
    rig.clients.push_back(std::make_unique<Client>(rig.server->port(), k, seed));
    if (!rig.clients.back()->cl.connect(&rig.error)) return rig;
  }
  rig.setup_s = seconds_since(t0);
  rig.server_tids = new_threads(before, thread_ids());
  for (auto& c : rig.clients) c->open.resize(open_capacity);
  return rig;
}

// ReplicaStore probes on the quiesced store of the run: snapshot every
// replica in turn; commit each replica's own content under its write ticket.
struct StoreProbe {
  Dist snapshot_us;
  Dist commit_us;
};

StoreProbe probe_store(optrep::net::ReplicaStore& store, double budget_s, SpanLog& log) {
  std::vector<double> snap, commit;
  RotatingVector v;
  v.reserve(kSiteCapacity);
  const std::uint32_t root = log.begin("store.probe", 0, 0);
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; seconds_since(t0) < budget_s || snap.size() < 5000; ++i) {
    const auto r = static_cast<std::uint32_t>(i % kReplicas);
    std::uint32_t s = log.begin("store.snapshot", root, i);
    store.snapshot(r, &v);
    snap.push_back(log.end(s) * 1e6);
    if (!store.acquire_write(r, {0, i + 1})) break;
    s = log.begin("store.commit", root, i);
    const bool ok = store.commit(r, v);
    commit.push_back(log.end(s) * 1e6);
    store.release_write(r);
    if (!ok) break;
  }
  log.end(root);
  return {summarize(snap), summarize(commit)};
}

// Frame codec probe: messages captured with SyncOptions taps from SRV
// sessions between the run's own vectors (client vectors against server
// replicas), then encoded and stream-decoded as the wire path does.
struct CodecProbe {
  double encode_ns_per_msg{0};
  double decode_ns_per_msg{0};
  std::size_t msgs{0};
  bool ok{true};
};

CodecProbe probe_codec(const optrep::net::ReplicaStore& store,
                       const std::vector<std::unique_ptr<Client>>& clients, double budget_s,
                       SpanLog& log) {
  std::vector<std::vector<optrep::vv::VvMsg>> sessions;
  for (const auto& c : clients) {
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      std::vector<optrep::vv::VvMsg> msgs;
      optrep::vv::SyncOptions so;
      so.kind = optrep::vv::VectorKind::kSrv;
      so.add_tap([&](bool, const optrep::vv::VvMsg& m) { msgs.push_back(m); });
      RotatingVector receiver = store.replica_unsafe(r);
      optrep::sim::EventLoop loop;
      optrep::vv::sync_rotating(loop, receiver, c->mine, so);
      sessions.push_back(std::move(msgs));
    }
  }
  CodecProbe p;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;
  for (const auto& s : sessions) {
    optrep::vv::FrameDeltaState st;
    for (const auto& m : s) optrep::vv::frame_encode_msg(bytes, m, &st);
    ends.push_back(bytes.size());
    p.msgs += s.size();
  }
  const std::uint32_t root = log.begin("codec.probe", 0, 0);
  std::vector<std::uint8_t> out;
  out.reserve(bytes.size());
  std::vector<optrep::vv::VvMsg> decoded;
  decoded.reserve(p.msgs);
  std::uint64_t reps = 0;
  double enc_s = 0, dec_s = 0;
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < budget_s || reps < 20) {
    ++reps;
    out.clear();
    std::uint32_t s = log.begin("vv.frame_encode", root, reps);
    for (const auto& sess : sessions) {
      optrep::vv::FrameDeltaState st;  // the wire resets the chain per session
      for (const auto& m : sess) optrep::vv::frame_encode_msg(out, m, &st);
    }
    enc_s += log.end(s);
    decoded.clear();
    s = log.begin("vv.frame_decode", root, reps);
    std::size_t pos = 0;
    for (const std::size_t end : ends) {
      optrep::vv::FrameDeltaState st;
      if (optrep::vv::frame_decode_stream(out.data(), end, &pos, &st, &decoded) !=
          optrep::vv::FrameDecodeError::kNone) {
        p.ok = false;
      }
    }
    dec_s += log.end(s);
    if (decoded.size() != p.msgs || out != bytes) p.ok = false;
  }
  log.end(root);
  const double n = static_cast<double>(reps) * static_cast<double>(p.msgs);
  p.encode_ns_per_msg = enc_s * 1e9 / n;
  p.decode_ns_per_msg = dec_s * 1e9 / n;
  return p;
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& r) {
  const double S = opt.seconds;

  // Every thread of the run on one vCPU (threads inherit the affinity): the
  // hand-offs between a client and the server are context switches on that
  // CPU, never a wake-up that waits for the hypervisor to run another vCPU.
  // On a shared host those wake-ups set both the tail and the CPU cost of a
  // session.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  const int cpu = sched_getcpu();
  CPU_SET(cpu >= 0 ? cpu : 0, &one_cpu);
  r.check(sched_setaffinity(0, sizeof one_cpu, &one_cpu) == 0, "cannot pin the run to one CPU");

  // Set-up, repeated; the last rig is the one measured.
  const auto open_capacity =
      static_cast<std::size_t>(kNominalRate * kNominalShare * S / kConns + 1);
  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < 101; ++i) {
    if (rig.server) rig.server->stop();
    rig = build_rig(opt.seed, open_capacity);
    r.check(rig.error.empty(), "setup: " + rig.error);
    if (!r.correct()) return;
    setup_s.push_back(rig.setup_s);
  }
  r.check(rig.server_tids.size() == 1, "expected exactly one server thread");
  auto& clients = rig.clients;
  RotatingVector sweeper;
  sweeper.reserve(kSiteCapacity);
  const SiteId sweeper_site{kReplicas + kConns};

  // The deterministic phase: one client on the fresh store, and sweeps.
  std::uint64_t det_session_bytes = 0, det_sweep_bytes = 0;
  for (int i = 0; i < kDeterministicRounds; ++i) {
    const std::uint64_t bytes0 = clients[0]->tally.bytes;
    r.check(fixed_sessions(*clients[0], kDeterministicSessions),
            "deterministic phase: a session failed");
    det_session_bytes += clients[0]->tally.bytes - bytes0;
    const SweepResult sw = converge_sweep(*clients[0], sweeper, sweeper_site);
    r.check(sw.ok, "converge sweep: replicas not equal after the sweep");
    det_sweep_bytes += sw.bytes;
  }

  // Rounds interleave every phase, so a burst of interference on the host
  // lands in one round of each figure rather than in all of one; every
  // figure is the median over rounds (or over windows). Each timed sample
  // is divided by the host reference measured around it (HostReference).
  HostReference ref;
  r.check(ref.ok(), "host reference: no loopback connection");
  std::vector<double> rate_cpu, rate_wall, sweep_cpu, sweep_wall, p50, p99, lat_us, ref_ns;
  std::vector<double> session_cpu_ref, p50_ref, converge_ref;
  ClosedResult all3, traced3;
  std::vector<double> nominal_p99, nominal_all, gen_late;
  for (int i = 0; i < kRounds; ++i) {
    ClosedResult c;
    const double ref_c = ref.around(
        [&] { c = closed_loop(clients, kConns, kClosedShare * S, false, rig.server_tids); });
    ref_ns.push_back(ref_c);
    session_cpu_ref.push_back(c.process_cpu_s * 1e9 / static_cast<double>(c.completed) / ref_c);
    rate_cpu.push_back(c.rate_per_cpu_s());
    rate_wall.push_back(c.rate());
    all3.completed += c.completed;
    all3.wall_s += c.wall_s;
    all3.client_cpu_s += c.client_cpu_s;
    all3.server += c.server;
    r.check(converge_sweep(*clients[0], sweeper, sweeper_site).ok,
            "converge sweep: replicas not equal after the sweep");
    if (opt.trace) {
      const ClosedResult t =
          closed_loop(clients, kConns, kClosedShare * S, true, rig.server_tids);
      traced3.completed += t.completed;
      traced3.wall_s += t.wall_s;
      continue;
    }
    for (int k = 0; k < kSweepsPerRound; ++k) {
      lat_us.clear();
      bool sessions_ok = false;
      SweepResult sw;
      const double ref_k = ref.around([&] {
        sessions_ok = fixed_sessions(*clients[0], kSessionsPerSweep, &lat_us);
        sw = converge_sweep(*clients[0], sweeper, sweeper_site);
      });
      r.check(sessions_ok, "one-connection phase: a session failed");
      r.check(sw.ok, "converge sweep: replicas not equal after the sweep");
      const Dist d = summarize(lat_us);
      p50.push_back(d.median);
      p99.push_back(d.tail);
      p50_ref.push_back(d.median * 1e3 / ref_k);
      sweep_cpu.push_back(sw.cpu_s);
      sweep_wall.push_back(sw.seconds);
      converge_ref.push_back(sw.cpu_s * 1e9 / ref_k);
    }
    const OpenResult nominal = open_loop(clients, kNominalRate, kNominalShare * S, false);
    for (const Dist& d : nominal.windows(kNominalWindowS)) nominal_p99.push_back(d.tail);
    const std::vector<double> l = nominal.latencies();
    nominal_all.insert(nominal_all.end(), l.begin(), l.end());
    const std::vector<double> g = nominal.generator_late_us();
    gen_late.insert(gen_late.end(), g.begin(), g.end());
    r.check(nominal.failed() == 0, "nominal open loop: failed sessions");
  }
  if (opt.trace) {
    const OpenResult nominal = open_loop(clients, kNominalRate, kNominalShare * S, true);
    gen_late = nominal.generator_late_us();
  }

  rig.server->stop();
  const optrep::net::ServerStats ss = rig.server->stats();
  Tally t;
  for (const auto& c : clients) t.add(c->tally);

  // Correctness: no failure anywhere, and both ends agree on what happened.
  r.attempted = t.attempted;
  r.failed = t.errors + ss.sessions_aborted;
  r.check(t.errors == 0, "client errors: " + std::to_string(t.errors) + " (" + t.first_error + ")");
  r.check(ss.sessions_aborted == 0, "server aborted sessions");
  r.check(ss.decode_errors == 0, "server decode errors");
  r.check(ss.bad_hellos == 0 && ss.capacity_rejects == 0, "server rejected sessions");
  r.check(ss.sessions_completed == t.completed,
          "server completed " + std::to_string(ss.sessions_completed) + " sessions, clients " +
              std::to_string(t.completed));
  r.check(ss.commits == t.commits, "server committed " + std::to_string(ss.commits) +
                                       ", clients saw " + std::to_string(t.commits));
  // No empty workload: pushes and pulls moved elements, commits and write
  // parks happened.
  const optrep::net::ReplicaStore::Counters sc = rig.server->store().counters();
  r.check(t.push_transfers > 0 && t.pull_transfers > 0, "no push or no pull transfer ran");
  r.check(ss.commits > 0, "no commit");
  r.check(sc.write_parks > 0, "no write session parked behind another");

  const optrep::rt::OLock::Counters oc = rig.server->store().olock_counters();
  const double srv_sessions = static_cast<double>(ss.sessions_completed);
  r.note("server", "{\"sessions_completed\":" + std::to_string(ss.sessions_completed) +
                       ",\"commits\":" + std::to_string(ss.commits) +
                       ",\"parked\":" + std::to_string(ss.parked) +
                       ",\"write_parks\":" + std::to_string(sc.write_parks) + "}");

  if (!opt.trace) {
    r.e2e("setup_s", median_of(setup_s), "s");
    r.e2e("session_cpu_ref", median_of(session_cpu_ref), "ref_rtt");
    r.e2e("p50_ref", median_of(p50_ref), "ref_rtt");
    r.e2e("converge_cpu_ref", median_of(converge_ref), "ref_rtt");
    r.e2e("wire_bytes_per_session",
          static_cast<double>(det_session_bytes) /
              static_cast<double>(kDeterministicRounds * kDeterministicSessions),
          "B");
    r.e2e("wire_bytes_total", static_cast<double>(det_sweep_bytes), "B");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    r.note("ref_rtt_ns", median_of(ref_ns));
    r.note("sessions_per_cpu_s", median_of(rate_cpu));
    r.note("closed_sessions_per_s", median_of(rate_wall));
    r.note("converge_cpu_s", median_of(sweep_cpu));
    r.note("converge_wall_s", median_of(sweep_wall));
    r.note("p50_us", median_of(p50));
    r.note("p99_us", median_of(p99));
    r.note("latency_runs", static_cast<double>(p99.size()));
    r.note_dist("nominal_latency_us", summarize(nominal_all));
    r.note("nominal_window_p99_us", median_of(nominal_p99));
    r.note_dist("gen_late_us", summarize(gen_late));
    r.note("nominal_rate", kNominalRate);
    return;
  }

  // Per-layer figures. Server CPU is over the untraced 3-connection loops.
  const double sessions3 = static_cast<double>(all3.completed);
  r.layer("net.server_cpu_us_per_session", static_cast<double>(all3.server.cpu_ns) * 1e-3 / sessions3,
          "us");
  r.layer("net.server_busy_share", static_cast<double>(all3.server.cpu_ns) * 1e-9 / all3.wall_s,
          "ratio");
  r.layer("net.server_sys_share", all3.server.sys_share(), "ratio");
  r.layer("net.server_ctx_switches_per_session",
          static_cast<double>(all3.server.ctx_switches) / sessions3, "ratio");
  r.layer("net.backpressure_pauses", static_cast<double>(ss.backpressure_pauses), "count");
  r.layer("net.sessions_aborted", static_cast<double>(ss.sessions_aborted), "count");
  r.layer("net.decode_errors", static_cast<double>(ss.decode_errors), "count");
  r.layer("net.client_cpu_us_per_session", all3.client_cpu_s * 1e6 / sessions3, "us");
  r.layer_dist("net.gen_late_us", summarize(gen_late), "us");
  std::vector<const SpanLog*> logs;
  std::vector<double> session_us;
  for (const auto& c : clients) {
    logs.push_back(&c->log);
    const std::vector<double> d = span_durations_us(c->log.spans(), "net.session");
    session_us.insert(session_us.end(), d.begin(), d.end());
  }
  r.layer_dist("net.session_us", summarize(session_us), "us");

  SpanLog probe_log(kConns + 1);
  const StoreProbe sp = probe_store(rig.server->store(), 0.03 * S, probe_log);
  r.check(sp.commit_us.n > 0, "store probe: commit rejected");
  r.layer_dist("store.snapshot_us", sp.snapshot_us, "us");
  r.layer("store.snapshot_retry_ratio",
          static_cast<double>(sc.snapshot_retries) / static_cast<double>(sc.snapshots), "ratio");
  r.layer("store.snapshot_fallbacks", static_cast<double>(sc.snapshot_fallbacks), "count");
  r.layer_dist("store.commit_us", sp.commit_us, "us");
  r.layer("store.write_park_ratio",
          static_cast<double>(sc.write_parks) / static_cast<double>(ss.push_sessions), "ratio");
  r.layer("olock.opt_retries_per_ksession", static_cast<double>(oc.opt_retries) * 1e3 / srv_sessions,
          "ratio");
  r.layer("olock.queue_waits_per_ksession", static_cast<double>(oc.queue_waits) * 1e3 / srv_sessions,
          "ratio");
  const CodecProbe cp = probe_codec(rig.server->store(), clients, 0.03 * S, probe_log);
  r.check(cp.ok && cp.msgs > 0, "codec probe: decode did not reproduce the captured messages");
  r.layer("vv.frame_encode_ns_per_msg", cp.encode_ns_per_msg, "ns");
  r.layer("vv.frame_decode_ns_per_msg", cp.decode_ns_per_msg, "ns");
  r.layer("obs.trace_overhead", all3.rate() / traced3.rate(), "ratio");
  r.layer("obs.trace_base_us_per_session", 1e6 / all3.rate(), "us");
  r.note("codec_msgs", static_cast<double>(cp.msgs));
  logs.push_back(&probe_log);
  if (!opt.span_out.empty()) {
    r.check(write_spans(opt.span_out, opt.workload, logs), "cannot write " + opt.span_out);
  }
}

}  // namespace perfbench
