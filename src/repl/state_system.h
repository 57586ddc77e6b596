// A complete state-transfer optimistic replication system (§2.1) built on
// rotating vectors: sites host replicas of objects, updates mutate payloads
// and rotate vectors, and synchronization sessions run the paper's protocols
// over the simulated network.
//
// The harness continuously cross-checks the rotating-vector implementation
// against two oracles:
//   - a traditional VersionVector carried next to every replica (values must
//     match after every operation), and
//   - the ground-truth causal history (the set of update ids a replica has
//     absorbed), against which conflict detection is validated.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cost_model.h"
#include "common/ids.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "rt/olock.h"
#include "rt/shard.h"
#include "rt/thread_pool.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "vv/compare.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"

namespace optrep::repl {

// §1/§2.1: manual resolution excludes conflicting replicas from the system
// (BRV-class systems); automatic resolution reconciles them (CRV/SRV-class).
enum class ResolutionPolicy : std::uint8_t { kManual, kAutomatic };

// Replica content: a set of entries (think lines of a replicated file or
// records of a log). The automatic resolver is set union — a deterministic
// merge both sides agree on.
struct Payload {
  std::set<std::string> entries;

  void merge(const Payload& other) { entries.insert(other.entries.begin(), other.entries.end()); }
  bool operator==(const Payload&) const = default;
};

struct StateReplica {
  vv::RotatingVector vector;
  Payload data;
  bool conflicted{false};  // manual policy: excluded until resolved

  // Oracles (not part of the protocol state).
  vv::VersionVector oracle_vector;
  std::unordered_set<UpdateId> oracle_history;
};

// What a synchronization session did.
struct SyncOutcome {
  vv::Ordering relation{vv::Ordering::kEqual};
  enum class Action : std::uint8_t {
    kNone,         // already consistent
    kPulled,       // receiver overwritten by sender
    kPushedBack,   // receiver dominated; nothing pulled
    kReconciled,   // automatic conflict resolution ran
    kConflictHeld, // manual policy: replicas excluded, no transfer
    kSkipped,      // replica missing/excluded
    kFailed,       // fault injection: retry budget exhausted, no merge applied
  } action{Action::kNone};
  vv::SyncReport report;  // traffic of the vector exchange (zeroed for kNone paths)
  // Object content shipped by this session (Σ entry sizes on pull/reconcile
  // paths). Folded into Totals::payload_bytes by the accounting tail.
  std::uint64_t payload_bytes{0};
};

class StateSystem {
 public:
  struct Config {
    std::uint32_t n_sites{4};
    vv::VectorKind kind{vv::VectorKind::kSrv};
    ResolutionPolicy policy{ResolutionPolicy::kAutomatic};
    vv::TransferMode mode{vv::TransferMode::kIdeal};
    sim::NetConfig net{};
    CostModel cost{};
    // Cross-check against the traditional-vector and causal-history oracles.
    // Forced off when net.faults is enabled: a failed (non-converged) session
    // leaves the receiver's vector partially joined, which the oracles — built
    // around complete at-rest merges — cannot model.
    bool check_oracle{true};
    // Optional structured tracing: every session's protocol events land
    // here, tagged with a per-system session id (see src/obs/trace.h).
    obs::Tracer* tracer{nullptr};
    // Time-series telemetry (obs/timeline.h): with `timeline` set the system
    // samples its metric registry — including the repl.divergence convergence
    // probe — either every `timeline_every` completed sync sessions (axis
    // "sessions", the default) or, when timeline_every_s > 0, at every
    // timeline_every_s seconds of simulated time via the event loop's
    // time-advance sampler (axis "time_s").
    obs::Timeline* timeline{nullptr};
    std::uint32_t timeline_every{16};
    double timeline_every_s{0};
    // Optional flight recorder (obs/flight_recorder.h): wired into every
    // session's wire tap and fault observer; a Table 2 bound violation
    // triggers (freezes) it here, decode errors and retry exhaustion trigger
    // it inside the vv layer.
    obs::FlightRecorder* recorder{nullptr};
    // Causal propagation tracing (obs/causal.h): every local update opens a
    // trace (kOrigin), every sync session stamps send/recv/fault/apply edges
    // onto a per-attempt span tree, every pull records which update ids the
    // receiver learned (kDeliver, attributed to the session's root span), and
    // the system closes a trace (kConverge) the moment every current host of
    // the object covers the update. The delivery identities come from the
    // causal-history oracle, which is maintained on all converged paths even
    // under fault injection (only the *checks* are disabled there).
    obs::CausalTracer* causal{nullptr};
  };

  explicit StateSystem(Config cfg);

  const Config& config() const { return cfg_; }

  // Create the object on `site` with an initial entry; counts as the first
  // update (the paper's replication graphs begin with an update, Figure 1).
  void create_object(SiteId site, ObjectId obj, std::string entry);

  // Local update: requires a (non-excluded) replica of obj at site.
  void update(SiteId site, ObjectId obj, std::string entry);

  // Synchronize dst's replica with src's (dst pulls; src is the sender).
  // Creates dst's replica if absent. Returns what happened plus traffic.
  SyncOutcome sync(SiteId dst, SiteId src, ObjectId obj);

  // ---- sharded parallel batch execution ----------------------------------
  //
  // run_batch executes a spec-order list of operations with replica-disjoint
  // sessions running concurrently. Each operation declares the replica it
  // writes (site, obj) and, for syncs, the replica it reads (peer, obj).
  // rt::plan_waves gives every operation a shard of a fixed 64-shard
  // partition and its earliest dependency level: a sync that reads the
  // replica the previous sync wrote joins that sync's shard and level, so
  // an anti-entropy host chain runs whole in one shard, and every other
  // operation is sharded by its write key. Each level's shards run in
  // parallel, one pool barrier per level, each shard's operations in spec
  // order; every session's outcome is written in place into the returned
  // vector, and its side effects — totals, causal events, oracle convergence
  // bookkeeping — are committed sequentially in spec order after the last
  // level. The plan guarantees the execution is EXACTLY equivalent to
  // running the operations one by one (see rt/shard.h), so results are
  // byte-identical for any thread count. Before the first level, every
  // touched replica of object o is reserved for the sites of o it can come
  // to hold (the sites in o's touched replicas plus the batch's write sites
  // of o), so no vector reallocates under a concurrent optimistic reader.
  //
  // Requirements (checked): automatic resolution (manual mutates the sender,
  // which would break wave read-sharing), and no tracer / flight recorder /
  // timeline (all three are sequential per-session-order instruments; causal
  // tracing IS supported via per-session scratch rings absorbed in spec
  // order). Fault injection is supported and deterministic: each session's
  // fault stream derives from the configured seed salted with the event's
  // position in the sequence of every batch this system has run, so faulty
  // batches are byte-identical for any thread count, and a session repeated
  // by a later batch (the next anti-entropy round) draws fresh faults.
  // The stream differs from the sequential engine's, though — sequential
  // sessions decorrelate via the shared loop's cumulative event count, a
  // quantity only defined under in-order execution — so under ACTIVE faults
  // run_batch matches the sequential driver in protocol outcomes (eventual
  // consistency, final replica contents) but not in per-session traffic.
  // Fault-free batches are exactly byte-equivalent.
  struct BatchEvent {
    enum class Type : std::uint8_t { kCreate, kUpdate, kSync };
    Type type{Type::kSync};
    SiteId site{};   // replica written: update/create target, or sync receiver
    SiteId peer{};   // kSync only: the sender (read, never written)
    ObjectId obj{};
    std::string entry;  // kCreate/kUpdate payload
  };
  struct BatchStats {
    std::uint64_t waves{0};  // dependency levels = pool barriers
    std::uint64_t max_wave_items{0};
    rt::OLock::Counters olock{};  // lock traffic attributable to this batch
  };
  // Returns one outcome per event, in spec order; kCreate/kUpdate slots hold
  // a default (kNone) outcome. `pool` supplies the workers; with one thread
  // the engine runs inline through the identical level schedule.
  std::vector<SyncOutcome> run_batch(const std::vector<BatchEvent>& events,
                                     rt::ThreadPool& pool,
                                     BatchStats* stats = nullptr);

  // Total optimistic-lock traffic observed by run_batch so far (exported as
  // rt.olock.* counters once a batch has run).
  const rt::OLock::Counters& olock_totals() const { return olock_totals_; }

  bool has_replica(SiteId site, ObjectId obj) const;
  const StateReplica& replica(SiteId site, ObjectId obj) const;

  // All sites hosting obj agree on payload and metadata values.
  bool replicas_consistent(ObjectId obj) const;

  // Aggregated traffic over all sync sessions so far.
  struct Totals {
    std::uint64_t sessions{0};
    std::uint64_t bits{0};
    std::uint64_t bytes{0};
    std::uint64_t msgs{0};
    // Frame batching (net.frame_budget): coalesced wire frames and their
    // delta-varint byte totals; frames == msgs when framing is off.
    std::uint64_t frames{0};
    std::uint64_t framed_bytes{0};
    // Object content shipped: state transfer moves the whole payload on
    // every pull/reconciliation (§6 contrasts this with operation transfer).
    std::uint64_t payload_bytes{0};
    std::uint64_t elems_sent{0};
    std::uint64_t elems_applied{0};    // Σ|Δ| across sessions
    std::uint64_t elems_redundant{0};  // Σ|Γ|
    std::uint64_t skips{0};            // observed γ (honored segment skips)
    std::uint64_t conflicts_detected{0};
    std::uint64_t reconciliations{0};
    // Fault injection (net.faults): session re-runs, sessions that never
    // converged within the retry budget, injected message faults, and the
    // model-bit traffic attributable to recovery attempts.
    std::uint64_t retries{0};
    std::uint64_t sync_failures{0};
    std::uint64_t faults_injected{0};
    std::uint64_t recovery_bits{0};
    // Sessions whose measured traffic exceeded the Table 2 upper bound for
    // the configured kind (expected 0 in kIdeal mode; pipelined runs may
    // overshoot by β, §3.1 — either way it is never silent).
    std::uint64_t bound_violations{0};
  };
  const Totals& totals() const { return totals_; }

  // Fleet-level metrics: per-session aggregates from the vv layer ("vv.*")
  // plus system counters/histograms ("state.*") and simulator gauges
  // ("sim.*"). Exported via obs::metrics_to_json.
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }

  // Simulated clock shared by all sessions.
  sim::Time now() const { return loop_.now(); }

  // The sites holding a replica of obj, in site order.
  std::vector<SiteId> hosts_of(ObjectId obj) const;

  // Residual divergence: distance of the fleet from the converged state.
  // Counts, over every (replica, site) pair, vector entries strictly below
  // the per-object element-wise supremum, plus one per excluded (conflicted)
  // replica. Zero iff every replica holds the element-wise max and none is
  // excluded. Order-independent sum — deterministic across map iteration
  // orders. Emitted as the `repl.divergence` gauge in timeline samples.
  std::uint64_t divergence() const;

  // Storage footprint of the fleet's rotating-vector metadata at allocated
  // capacity (SoA columns + free list + site index, see vv/arena.h). O(replicas);
  // sampled into state.replicas / state.vector_memory_bytes /
  // state.index_memory_bytes gauges with every timeline sample and exported
  // in the optrep.run/v1 "memory" object.
  struct MemoryStats {
    std::uint64_t replicas{0};
    std::uint64_t vector_bytes{0};  // Σ RotatingVector::memory_bytes (index included)
    std::uint64_t index_bytes{0};   // Σ site-index share alone
  };
  MemoryStats memory_stats() const;

  // Record one timeline sample now (no-op without cfg.timeline). The
  // session-count axis samples automatically every timeline_every sessions;
  // call this to flush a final sample at the end of a run. Samples taken at
  // an already-sampled session count are suppressed.
  void sample_timeline();

 private:
  // Deferred causal side effects of one parallel session: emitted at commit
  // time, in spec order, against the shared tracer and the shadow histories.
  struct SessionEffects {
    std::vector<UpdateId> fresh;  // update ids the receiver learned
    bool has_origin{false};       // local update / reconciliation update ran
    UpdateId origin{};
  };

  StateReplica& replica_mut(SiteId site, ObjectId obj);
  void apply_update(StateReplica& r, SiteId site, ObjectId obj, std::string entry);
  // The protocol core of sync(): COMPARE, oracle cross-check, the session
  // switch, and all receiver-state mutation. Pure over its arguments —
  // `loop`, `metrics` and `causal` are the legacy members for sequential
  // calls and per-session/per-shard instances for parallel ones. With
  // `fx == nullptr` causal events are emitted inline to `causal` (legacy;
  // none when it is null too); otherwise they are recorded into *fx for
  // spec-order commit. A nonzero `fault_salt`
  // re-seeds the session's fault stream with sim::fault_stream_seed — the
  // batch engine passes the event's position across all its batches so
  // sessions on fresh local event loops stay decorrelated (the sequential
  // engine decorrelates via the shared loop's cumulative event count, which
  // parallel sessions cannot observe without serializing; see run_batch's
  // doc for the consequence).
  SyncOutcome sync_pair(StateReplica& receiver, StateReplica& sender,
                        SiteId dst, SiteId src, ObjectId obj,
                        sim::EventLoop& loop, obs::Registry* metrics,
                        obs::CausalTracer* causal, std::uint64_t session_no,
                        SessionEffects* fx, std::uint64_t fault_salt = 0);
  // The accounting tail of sync(): totals and the Table 2 bound check.
  void finish_session(const SyncOutcome& out);
  // Causal tracing helpers (no-ops when cfg_.causal is null): update ids the
  // receiver is about to learn, in deterministic (site, seq) order; emit the
  // kDeliver edges for them; close any trace every host now covers.
  std::vector<UpdateId> causal_fresh(const StateReplica& sender,
                                     const StateReplica& receiver,
                                     const obs::CausalTracer* causal) const;
  void causal_converge_check(ObjectId obj, const UpdateId& u);
  void check_replica(const StateReplica& r) const;
  void publish_metrics();
  void sample_timeline_at(double x);
  static void time_sample_thunk(void* ctx, sim::Time t);

  Config cfg_;
  sim::EventLoop loop_;
  // Object-major replica store: each object's replicas keyed by host site.
  // Map nodes never move, so replica addresses stay valid as replicas are
  // added (run_batch's prepared pointers and optimistic readers rely on it),
  // and an object's hosts come out in site order.
  std::unordered_map<ObjectId, std::map<SiteId, StateReplica>> objects_;
  Totals totals_;
  obs::Registry metrics_;
  std::uint64_t sampled_at_sessions_{~std::uint64_t{0}};
  rt::OLock::Counters olock_totals_{};
  bool batch_ran_{false};
  std::uint64_t batch_items_{0};  // events of all earlier batches (fault salt base)
};

}  // namespace optrep::repl
