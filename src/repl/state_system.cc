#include "repl/state_system.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "obs/export.h"
#include "obs/prof.h"
#include "sim/fault_link.h"

namespace optrep::repl {

StateSystem::StateSystem(Config cfg) : cfg_(cfg) {
  OPTREP_CHECK_MSG(cfg_.kind != vv::VectorKind::kBrv ||
                       cfg_.policy == ResolutionPolicy::kManual,
                   "BRV supports no conflict reconciliation (§3.1); use manual "
                   "resolution or CRV/SRV");
  // Lossy-network runs: a sync that exhausts its retry budget leaves the
  // receiver's vector partially joined, a state the at-rest oracles cannot
  // describe — history containment no longer matches the vector order.
  if (cfg_.net.faults.enabled()) cfg_.check_oracle = false;
  if (cfg_.recorder != nullptr) cfg_.recorder->set_fault_seed(cfg_.net.faults.seed);
  if (cfg_.timeline != nullptr) {
    if (cfg_.timeline_every_s > 0) {
      cfg_.timeline->set_axis("time_s");
      loop_.set_time_sampler(cfg_.timeline_every_s, this, &StateSystem::time_sample_thunk);
    } else {
      cfg_.timeline->set_axis("sessions");
    }
  }
}

void StateSystem::create_object(SiteId site, ObjectId obj, std::string entry) {
  OPTREP_CHECK_MSG(!has_replica(site, obj), "object already exists on site");
  StateReplica& r = objects_[obj][site];
  apply_update(r, site, obj, std::move(entry));
}

void StateSystem::update(SiteId site, ObjectId obj, std::string entry) {
  OPTREP_SPAN("state.update");
  StateReplica& r = replica_mut(site, obj);
  OPTREP_CHECK_MSG(!r.conflicted, "update on an excluded (conflicted) replica");
  apply_update(r, site, obj, std::move(entry));
}

SyncOutcome StateSystem::sync(SiteId dst, SiteId src, ObjectId obj) {
  OPTREP_SPAN("state.sync");
  OPTREP_CHECK_MSG(dst != src, "a site cannot synchronize with itself");
  SyncOutcome out;
  if (!has_replica(src, obj)) {
    out.action = SyncOutcome::Action::kSkipped;
    return out;
  }
  auto& hosts = objects_[obj];
  StateReplica& sender = hosts[src];
  if (sender.conflicted) {
    out.action = SyncOutcome::Action::kSkipped;
    return out;
  }
  StateReplica& receiver = hosts[dst];  // created empty if absent
  out = sync_pair(receiver, sender, dst, src, obj, loop_, &metrics_,
                  cfg_.causal, totals_.sessions + 1, nullptr);
  finish_session(out);
  publish_metrics();
  if (cfg_.timeline != nullptr && cfg_.timeline_every_s == 0 &&
      cfg_.timeline_every > 0 && totals_.sessions % cfg_.timeline_every == 0) {
    sample_timeline();
  }
  return out;
}

SyncOutcome StateSystem::sync_pair(StateReplica& receiver, StateReplica& sender,
                                   SiteId dst, SiteId src, ObjectId obj,
                                   sim::EventLoop& loop, obs::Registry* metrics,
                                   obs::CausalTracer* causal,
                                   std::uint64_t session_no,
                                   SessionEffects* fx, std::uint64_t fault_salt) {
  SyncOutcome out;
  // COMPARE runs first (O(1) traffic); the session charges its bits. Under
  // fault injection a previously failed sync may have left the receiver
  // partially joined — outside the at-rest states compare_fast assumes — so
  // the lossy path pays for the exact comparison.
  const vv::Ordering rel = cfg_.net.faults.enabled()
                               ? vv::compare_full(receiver.vector, sender.vector)
                               : vv::compare_fast(receiver.vector, sender.vector);
  out.relation = rel;

  if (cfg_.check_oracle) {
    // Ground truth: causal relation by history containment.
    const auto& ha = receiver.oracle_history;
    const auto& hb = sender.oracle_history;
    const bool a_in_b = std::all_of(ha.begin(), ha.end(),
                                    [&](const UpdateId& u) { return hb.contains(u); });
    const bool b_in_a = std::all_of(hb.begin(), hb.end(),
                                    [&](const UpdateId& u) { return ha.contains(u); });
    vv::Ordering truth = vv::Ordering::kConcurrent;
    if (a_in_b && b_in_a) truth = vv::Ordering::kEqual;
    else if (a_in_b) truth = vv::Ordering::kBefore;
    else if (b_in_a) truth = vv::Ordering::kAfter;
    OPTREP_CHECK_MSG(rel == truth, "COMPARE disagrees with ground-truth causality");
  }

  vv::SyncOptions opt;
  opt.kind = cfg_.kind;
  opt.mode = cfg_.mode;
  opt.net = cfg_.net;
  if (fault_salt != 0 && opt.net.faults.enabled()) {
    // Batch sessions run on fresh local loops, so the wiring-level salt (the
    // loop's executed-event count) restarts at zero for every session; mix
    // the caller's salt in here so sessions do not replay one fault prefix.
    opt.net.faults.seed = sim::fault_stream_seed(opt.net.faults.seed, fault_salt);
  }
  opt.cost = cfg_.cost;
  opt.known_relation = rel;
  opt.tracer = cfg_.tracer;
  opt.trace_session = session_no;
  opt.metrics = metrics;
  opt.recorder = cfg_.recorder;
  opt.causal = causal;
  opt.src_site = src;
  opt.dst_site = dst;

  switch (rel) {
    case vv::Ordering::kEqual:
    case vv::Ordering::kAfter:
      // Nothing to pull. (A real system might push back; traces model that
      // as a separate sync in the other direction.)
      out.action = (rel == vv::Ordering::kEqual) ? SyncOutcome::Action::kNone
                                                 : SyncOutcome::Action::kPushedBack;
      // Charge the COMPARE probes.
      out.report.initial_relation = rel;
      out.report.bits_fwd = vv::compare_cost_bits(cfg_.cost) / 2;
      out.report.bits_rev = vv::compare_cost_bits(cfg_.cost) / 2;
      break;

    case vv::Ordering::kBefore: {
      out.report = vv::sync_with_recovery(loop, receiver.vector, sender.vector, opt);
      out.report.bits_fwd += vv::compare_cost_bits(cfg_.cost) / 2;
      out.report.bits_rev += vv::compare_cost_bits(cfg_.cost) / 2;
      if (!out.report.converged) {
        // Retry budget exhausted: sync_with_recovery left the vector as it
        // was, so the failed sync is a complete no-op — metadata never
        // claims content that was not transferred.
        out.action = SyncOutcome::Action::kFailed;
        break;
      }
      for (const auto& e : sender.data.entries) out.payload_bytes += e.size();
      std::vector<UpdateId> fresh = causal_fresh(sender, receiver, causal);
      receiver.data = sender.data;  // state transfer overwrites the replica
      receiver.oracle_vector.join(sender.oracle_vector);
      receiver.oracle_history.insert(sender.oracle_history.begin(),
                                     sender.oracle_history.end());
      if (fx != nullptr) {
        fx->fresh = std::move(fresh);
      } else {
        for (const UpdateId& u : fresh) {
          causal->deliver(loop.now(), obj, u.site, u.seq, out.report.causal_span,
                          src, dst);
          causal_converge_check(obj, u);
        }
      }
      out.action = SyncOutcome::Action::kPulled;
      break;
    }

    case vv::Ordering::kConcurrent: {
      if (cfg_.policy == ResolutionPolicy::kManual) {
        // §2.1: both replicas leave the system until resolved manually.
        receiver.conflicted = true;
        sender.conflicted = true;
        out.action = SyncOutcome::Action::kConflictHeld;
        out.report.initial_relation = rel;
        out.report.bits_fwd = vv::compare_cost_bits(cfg_.cost) / 2;
        out.report.bits_rev = vv::compare_cost_bits(cfg_.cost) / 2;
        break;
      }
      // Automatic reconciliation: vector sync, payload merge, then the
      // mandated local update on the receiving site ([11 §C], §2.2).
      out.report = vv::sync_with_recovery(loop, receiver.vector, sender.vector, opt);
      out.report.bits_fwd += vv::compare_cost_bits(cfg_.cost) / 2;
      out.report.bits_rev += vv::compare_cost_bits(cfg_.cost) / 2;
      if (!out.report.converged) {
        out.action = SyncOutcome::Action::kFailed;
        break;
      }
      for (const auto& e : sender.data.entries) out.payload_bytes += e.size();
      std::vector<UpdateId> fresh = causal_fresh(sender, receiver, causal);
      receiver.data.merge(sender.data);
      receiver.oracle_vector.join(sender.oracle_vector);
      receiver.oracle_history.insert(sender.oracle_history.begin(),
                                     sender.oracle_history.end());
      if (fx != nullptr) {
        fx->fresh = std::move(fresh);
      } else {
        for (const UpdateId& u : fresh) {
          causal->deliver(loop.now(), obj, u.site, u.seq, out.report.causal_span,
                          src, dst);
          causal_converge_check(obj, u);
        }
      }
      if (cfg_.check_oracle) check_replica(receiver);
      // The separate post-reconciliation update (metadata only: the merged
      // payload is the new version's content).
      receiver.vector.record_update(dst);
      receiver.oracle_vector.increment(dst);
      receiver.oracle_history.insert(UpdateId{dst, receiver.oracle_vector.value(dst)});
      const UpdateId u{dst, receiver.oracle_vector.value(dst)};
      if (fx != nullptr) {
        fx->has_origin = true;
        fx->origin = u;
      } else if (causal != nullptr) {
        causal->origin(loop.now(), obj, dst, u.seq);
        causal_converge_check(obj, u);
      }
      out.action = SyncOutcome::Action::kReconciled;
      break;
    }
  }

  if (cfg_.check_oracle) check_replica(receiver);
  return out;
}

void StateSystem::finish_session(const SyncOutcome& out) {
  totals_.sessions += 1;
  totals_.bits += out.report.total_bits();
  totals_.bytes += out.report.total_bytes();
  totals_.msgs += out.report.msgs_fwd + out.report.msgs_rev;
  totals_.frames += out.report.total_frames();
  totals_.framed_bytes += out.report.total_framed_bytes();
  totals_.payload_bytes += out.payload_bytes;
  totals_.elems_sent += out.report.elems_sent;
  totals_.elems_applied += out.report.elems_applied;
  totals_.elems_redundant += out.report.elems_redundant;
  totals_.skips += out.report.segments_skipped;
  totals_.retries += out.report.retries;
  totals_.faults_injected += out.report.total_faults();
  totals_.recovery_bits += out.report.recovery_bits;
  if (out.relation == vv::Ordering::kConcurrent) ++totals_.conflicts_detected;
  if (out.action == SyncOutcome::Action::kReconciled) ++totals_.reconciliations;
  if (!out.report.converged) ++totals_.sync_failures;
  // Table 2 bounds a single fault-free session; retried traffic is accounted
  // separately (recovery_bits), so the bound check only runs lossless.
  if (!cfg_.net.faults.enabled() &&
      !obs::within_table2_bound(cfg_.cost, cfg_.kind, out.report)) {
    ++totals_.bound_violations;
    metrics_.counter("obs.bound_violations").inc();
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->trigger("table2_bound_violation", loop_.now());
    }
  }
}

namespace {

// One batch event's replicas, resolved before the compute phase.
struct Prepared {
  StateReplica* receiver{nullptr};
  StateReplica* sender{nullptr};  // kSync only
};

// A replica the batch reads or writes, with its capacity and lock counters
// as they stood before the compute phase.
struct Touched {
  StateReplica* replica{nullptr};
  std::uint64_t vector_bytes{0};
  std::uint64_t index_bytes{0};
  rt::OLock::Counters olock{};
};

// Pins the capacity of every replica the batch touches, before any session
// runs: concurrent optimistic readers tolerate slot recycling but not
// element-array relocation (see vv::RotatingVector::reserve). A touched
// replica of object o only ever holds sites of U_o, the sites in o's touched
// replicas plus every site the batch writes o at: an update or a
// reconciliation adds only the writing site, and a join copies in only a
// sender's sites. So each is reserved for |U_o| sites, not for n_sites.
std::vector<Touched> reserve_touched(const std::vector<StateSystem::BatchEvent>& events,
                                     const std::vector<Prepared>& prep) {
  struct Ref {
    std::uint64_t key{0};  // (object, site) of the replica
    StateReplica* replica{nullptr};
    bool written{false};
  };
  std::vector<Ref> refs;
  refs.reserve(2 * events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const StateSystem::BatchEvent& ev = events[i];
    const std::uint64_t obj = std::uint64_t{ev.obj.value} << 32;
    refs.push_back({obj | ev.site.value, prep[i].receiver, true});
    if (prep[i].sender != nullptr) refs.push_back({obj | ev.peer.value, prep[i].sender, false});
  }
  std::sort(refs.begin(), refs.end(),
            [](const Ref& a, const Ref& b) { return a.key < b.key; });

  std::vector<Touched> touched;
  std::vector<std::uint32_t> sites;  // U_o of the current object
  for (std::size_t begin = 0, end = 0; begin < refs.size(); begin = end) {
    const std::uint64_t obj = refs[begin].key >> 32;
    const std::size_t first = touched.size();
    sites.clear();
    for (end = begin; end < refs.size() && refs[end].key >> 32 == obj; ++end) {
      const Ref& ref = refs[end];
      if (ref.written) sites.push_back(static_cast<std::uint32_t>(ref.key));
      if (end > begin && ref.key == refs[end - 1].key) continue;  // same replica
      touched.push_back({ref.replica});
      for (const auto& e : ref.replica->vector) sites.push_back(e.site.value);
    }
    std::sort(sites.begin(), sites.end());
    const auto bound = static_cast<std::size_t>(
        std::unique(sites.begin(), sites.end()) - sites.begin());
    for (std::size_t t = first; t < touched.size(); ++t) {
      vv::RotatingVector& v = touched[t].replica->vector;
      v.reserve(bound);
      touched[t].vector_bytes = v.memory_bytes();
      touched[t].index_bytes = v.index_memory_bytes();
      touched[t].olock = v.olock().counters();
    }
  }
  return touched;
}

}  // namespace

std::vector<SyncOutcome> StateSystem::run_batch(const std::vector<BatchEvent>& events,
                                                rt::ThreadPool& pool,
                                                BatchStats* stats) {
  OPTREP_SPAN("state.run_batch");
  OPTREP_CHECK_MSG(cfg_.policy == ResolutionPolicy::kAutomatic,
                   "run_batch requires automatic resolution: a manual conflict "
                   "hold mutates the sender, which wave read-sharing forbids");
  OPTREP_CHECK_MSG(cfg_.tracer == nullptr && cfg_.recorder == nullptr &&
                       cfg_.timeline == nullptr,
                   "run_batch: tracer/recorder/timeline are sequential "
                   "per-session instruments; use the sequential driver");
  batch_ran_ = true;

  // Replica key: high bit keeps every key nonzero (0 is plan_waves' "no read"
  // sentinel and site 0 / object 0 would otherwise collide with it).
  const auto key = [](SiteId s, ObjectId o) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{s.value} << 32) |
           std::uint64_t{o.value};
  };

  // Shadow convergence state for causal tracing: host set and causal history
  // per replica, advanced at each event's spec-order COMMIT — exactly when a
  // sequential execution would advance the real state — so kConverge fires at
  // the same events it would sequentially. Snapshotted before prepare creates
  // the batch's receiver replicas (a replica becomes a host only when its
  // creating event commits).
  std::unordered_map<std::uint64_t, std::unordered_set<UpdateId>> shadow;
  std::unordered_map<ObjectId, std::vector<std::uint64_t>> hosts_by_obj;
  if (cfg_.causal != nullptr) {
    for (const auto& [o, hosts] : objects_) {
      for (const auto& [site, r] : hosts) {
        shadow.emplace(key(site, o), r.oracle_history);
        hosts_by_obj[o].push_back(key(site, o));
      }
    }
  }
  auto ensure_host = [&](SiteId site, ObjectId o) -> std::unordered_set<UpdateId>& {
    const std::uint64_t k = key(site, o);
    auto [it, inserted] = shadow.try_emplace(k);
    if (inserted) hosts_by_obj[o].push_back(k);
    return it->second;
  };
  auto converge_check = [&](ObjectId o, const UpdateId& u, double at) {
    for (const std::uint64_t k : hosts_by_obj[o]) {
      if (!shadow[k].contains(u)) return;
    }
    cfg_.causal->converge(at, o, u.site, u.seq);
  };

  // Prepare (spec order): validate presence against the evolving map —
  // objects_ itself tracks which replicas exist "so far" because creations
  // happen here, in order — create every receiver replica, resolve replica
  // addresses (map nodes never move) and derive the wave items.
  std::vector<Prepared> prep(events.size());
  std::vector<rt::WaveItem> items;
  items.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const BatchEvent& ev = events[i];
    auto& hosts = objects_[ev.obj];
    switch (ev.type) {
      case BatchEvent::Type::kCreate:
        OPTREP_CHECK_MSG(!hosts.contains(ev.site), "object already exists on site");
        break;
      case BatchEvent::Type::kUpdate:
        OPTREP_CHECK_MSG(hosts.contains(ev.site),
                         "update without a replica: the driver injects the "
                         "creator sync first (see wl::run_state_parallel)");
        break;
      case BatchEvent::Type::kSync: {
        OPTREP_CHECK_MSG(ev.site != ev.peer, "a site cannot synchronize with itself");
        const auto sender = hosts.find(ev.peer);
        OPTREP_CHECK_MSG(sender != hosts.end(),
                         "sync from an absent sender: the driver filters (and "
                         "counts) such skips");
        prep[i].sender = &sender->second;
        break;
      }
    }
    prep[i].receiver = &hosts[ev.site];  // created empty if absent
    items.push_back({key(ev.site, ev.obj),
                     ev.type == BatchEvent::Type::kSync ? key(ev.peer, ev.obj)
                                                        : std::uint64_t{0}});
  }

  const std::vector<Touched> touched = reserve_touched(events, prep);

  // Scratch causal rings are sized for one whole session: ≤ 7 attempts
  // (default retry budget), each bounded by a few wire/apply events per site.
  const std::size_t scratch_cap =
      std::size_t{7} * (std::size_t{8} * cfg_.n_sites + 64);
  const std::uint64_t causal_seed =
      cfg_.causal != nullptr ? cfg_.causal->run_seed() : 0;

  // Outcomes land in place in the returned vector; the causal-only state of
  // each session lives beside it, and only when causal tracing is on.
  struct CausalSide {
    SessionEffects fx;
    double end_time{0};
    std::unique_ptr<obs::CausalTracer> scratch;
  };
  std::vector<SyncOutcome> outs(events.size());
  std::vector<CausalSide> side(cfg_.causal != nullptr ? events.size() : 0);
  const rt::WavePlan plan = rt::plan_waves(items);
  // Per-shard metric registries: a shard's sessions run sequentially, so no
  // locking; merged into metrics_ in shard order after the last wave (counter
  // and histogram merges add, so final counts equal a sequential run's).
  std::vector<obs::Registry> shard_metrics(plan.n_shards);

  const auto compute_one = [&](std::size_t i, std::size_t shard) {
    const BatchEvent& ev = events[i];
    CausalSide* cs = side.empty() ? nullptr : &side[i];
    StateReplica& r = *prep[i].receiver;
    if (ev.type != BatchEvent::Type::kSync) {
      rt::OLockGuard g(r.vector.olock());
      OPTREP_CHECK_MSG(!r.conflicted, "update on an excluded (conflicted) replica");
      r.data.entries.insert(ev.entry);
      r.vector.record_update(ev.site);
      r.oracle_vector.increment(ev.site);
      const UpdateId u{ev.site, r.oracle_vector.value(ev.site)};
      r.oracle_history.insert(u);
      if (cs != nullptr) {
        cs->fx.has_origin = true;
        cs->fx.origin = u;
      }
      if (cfg_.check_oracle) check_replica(r);
      return;
    }
    StateReplica& sender = *prep[i].sender;
    if (cs != nullptr) {
      cs->scratch = std::make_unique<obs::CausalTracer>(causal_seed, scratch_cap);
    }
    sim::EventLoop loop;
    // The level plan promises no writer touches the sender while this
    // session reads it; assert that with an optimistic read spanning the
    // session.
    const std::uint64_t snap = sender.vector.olock().read_begin();
    {
      rt::OLockGuard g(r.vector.olock());
      outs[i] = sync_pair(r, sender, ev.site, ev.peer, ev.obj, loop,
                          &shard_metrics[shard], cs != nullptr ? cs->scratch.get() : nullptr,
                          static_cast<std::uint64_t>(i) + 1, cs != nullptr ? &cs->fx : nullptr,
                          /*fault_salt=*/batch_items_ + i + 1);
    }
    OPTREP_CHECK_MSG(sender.vector.olock().read_validate(snap),
                     "wave invariant violated: a sender was mutated during a "
                     "parallel session");
    if (cs != nullptr) cs->end_time = loop.now();
  };

  // Compute: one pool barrier per level; a level's (shard, items) runs are
  // the pool's work items.
  for (std::size_t w = 0; w < plan.waves(); ++w) {
    const std::uint32_t first = plan.wave_runs[w];
    pool.for_each_index(plan.wave_runs[w + 1] - first, [&](std::size_t j) {
      const rt::WavePlan::Run& run = plan.runs[first + j];
      for (std::uint32_t p = run.begin; p < run.end; ++p) {
        compute_one(plan.order[p], run.shard);
      }
    });
  }
  // Every touched replica must still hold the capacity reserve_touched gave
  // it: one that grew was relocated under the level's optimistic readers, so
  // a bound too tight aborts here in every build. The same pass sums the
  // batch's lock traffic.
  rt::OLock::Counters delta;
  for (const Touched& t : touched) {
    const vv::RotatingVector& v = t.replica->vector;
    OPTREP_CHECK_MSG(v.memory_bytes() == t.vector_bytes &&
                         v.index_memory_bytes() == t.index_bytes,
                     "run_batch: a replica outgrew its reservation during the "
                     "compute phase");
    const rt::OLock::Counters c = v.olock().counters();
    delta.acquisitions += c.acquisitions - t.olock.acquisitions;
    delta.opt_retries += c.opt_retries - t.olock.opt_retries;
    delta.queue_waits += c.queue_waits - t.olock.queue_waits;
  }

  // Commit in spec order: session accounting, then causal emission against
  // the shared tracer — scratch ring first (span ids rebased by absorb), then
  // the deliver/origin and convergence events the sequential path would emit
  // inline.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const BatchEvent& ev = events[i];
    if (ev.type == BatchEvent::Type::kSync) finish_session(outs[i]);
    if (side.empty()) continue;
    CausalSide& res = side[i];
    ensure_host(ev.site, ev.obj);
    std::uint64_t span = 0;
    if (res.scratch != nullptr) {
      const std::uint64_t offset = cfg_.causal->spans_opened();
      cfg_.causal->absorb(*res.scratch);
      res.scratch.reset();
      span = outs[i].report.causal_span == 0 ? 0 : outs[i].report.causal_span + offset;
    }
    {
      auto& hist = shadow[key(ev.site, ev.obj)];
      for (const UpdateId& u : res.fx.fresh) hist.insert(u);
    }
    for (const UpdateId& u : res.fx.fresh) {
      cfg_.causal->deliver(res.end_time, ev.obj, u.site, u.seq, span, ev.peer,
                           ev.site);
      converge_check(ev.obj, u, res.end_time);
    }
    if (res.fx.has_origin) {
      shadow[key(ev.site, ev.obj)].insert(res.fx.origin);
      cfg_.causal->origin(res.end_time, ev.obj, res.fx.origin.site,
                          res.fx.origin.seq);
      converge_check(ev.obj, res.fx.origin, res.end_time);
    }
  }

  for (const obs::Registry& reg : shard_metrics) metrics_.merge_from(reg);
  olock_totals_.acquisitions += delta.acquisitions;
  olock_totals_.opt_retries += delta.opt_retries;
  olock_totals_.queue_waits += delta.queue_waits;
  batch_items_ += events.size();
  publish_metrics();
  if (stats != nullptr) {
    stats->waves = plan.waves();
    stats->max_wave_items = plan.max_wave_items();
    stats->olock = delta;
  }
  return outs;
}

std::uint64_t StateSystem::divergence() const {
  std::uint64_t d = 0;
  std::unordered_map<SiteId, std::uint64_t> sup;
  for (const auto& [obj, hosts] : objects_) {
    // The object's element-wise supremum over every replica's vector.
    sup.clear();
    for (const auto& [site, r] : hosts) {
      for (const auto& e : r.vector) {
        auto& v = sup[e.site];
        if (e.value > v) v = e.value;
      }
    }
    for (const auto& [site, r] : hosts) {
      for (const auto& [sid, v] : sup) {
        if (r.vector.value(sid) < v) ++d;
      }
      if (r.conflicted) ++d;
    }
  }
  return d;
}

StateSystem::MemoryStats StateSystem::memory_stats() const {
  MemoryStats m;
  for (const auto& [obj, hosts] : objects_) {
    for (const auto& [site, r] : hosts) {
      ++m.replicas;
      m.vector_bytes += r.vector.memory_bytes();
      m.index_bytes += r.vector.index_memory_bytes();
    }
  }
  return m;
}

void StateSystem::sample_timeline() {
  if (cfg_.timeline == nullptr) return;
  if (totals_.sessions == sampled_at_sessions_) return;
  sampled_at_sessions_ = totals_.sessions;
  sample_timeline_at(cfg_.timeline_every_s > 0 ? loop_.now()
                                               : static_cast<double>(totals_.sessions));
}

void StateSystem::sample_timeline_at(double x) {
  metrics_.gauge("repl.divergence").set(static_cast<std::int64_t>(divergence()));
  const MemoryStats mem = memory_stats();
  metrics_.gauge("state.replicas").set(static_cast<std::int64_t>(mem.replicas));
  metrics_.gauge("state.vector_memory_bytes").set(static_cast<std::int64_t>(mem.vector_bytes));
  metrics_.gauge("state.index_memory_bytes").set(static_cast<std::int64_t>(mem.index_bytes));
  publish_metrics();
  cfg_.timeline->begin_sample(x);
  cfg_.timeline->sample_registry(metrics_);
}

void StateSystem::time_sample_thunk(void* ctx, sim::Time t) {
  static_cast<StateSystem*>(ctx)->sample_timeline_at(t);
}

void StateSystem::publish_metrics() {
  metrics_.counter("state.sessions").set(totals_.sessions);
  metrics_.counter("state.frames").set(totals_.frames);
  metrics_.counter("state.framed_bytes").set(totals_.framed_bytes);
  metrics_.counter("state.payload_bytes").set(totals_.payload_bytes);
  metrics_.counter("state.conflicts_detected").set(totals_.conflicts_detected);
  metrics_.counter("state.reconciliations").set(totals_.reconciliations);
  if (cfg_.net.faults.enabled()) {
    metrics_.counter("state.retries").set(totals_.retries);
    metrics_.counter("state.sync_failures").set(totals_.sync_failures);
    metrics_.counter("state.faults_injected").set(totals_.faults_injected);
    metrics_.counter("state.recovery_bits").set(totals_.recovery_bits);
  }
  if (batch_ran_) {
    metrics_.counter("rt.olock.acquisitions").set(olock_totals_.acquisitions);
    metrics_.counter("rt.olock.opt_retries").set(olock_totals_.opt_retries);
    metrics_.counter("rt.olock.queue_waits").set(olock_totals_.queue_waits);
  }
  metrics_.gauge("sim.queue_depth").set(static_cast<std::int64_t>(loop_.queue_depth()));
  metrics_.gauge("sim.max_queue_depth").set(static_cast<std::int64_t>(loop_.max_queue_depth()));
  metrics_.gauge("sim.executed_events").set(static_cast<std::int64_t>(loop_.executed_events()));
  metrics_.gauge("sim.cancelled_events").set(static_cast<std::int64_t>(loop_.cancelled_events()));
}

bool StateSystem::has_replica(SiteId site, ObjectId obj) const {
  auto oit = objects_.find(obj);
  return oit != objects_.end() && oit->second.contains(site);
}

const StateReplica& StateSystem::replica(SiteId site, ObjectId obj) const {
  auto oit = objects_.find(obj);
  OPTREP_CHECK_MSG(oit != objects_.end(), "object has no replicas");
  auto rit = oit->second.find(site);
  OPTREP_CHECK_MSG(rit != oit->second.end(), "no replica of object on site");
  return rit->second;
}

StateReplica& StateSystem::replica_mut(SiteId site, ObjectId obj) {
  return const_cast<StateReplica&>(std::as_const(*this).replica(site, obj));
}

bool StateSystem::replicas_consistent(ObjectId obj) const {
  auto oit = objects_.find(obj);
  if (oit == objects_.end() || oit->second.empty()) return true;
  const StateReplica& first = oit->second.begin()->second;
  return std::all_of(std::next(oit->second.begin()), oit->second.end(), [&](const auto& host) {
    return host.second.data == first.data && host.second.vector.same_values(first.vector);
  });
}

std::vector<SiteId> StateSystem::hosts_of(ObjectId obj) const {
  std::vector<SiteId> out;
  auto oit = objects_.find(obj);
  if (oit == objects_.end()) return out;
  out.reserve(oit->second.size());
  for (const auto& [site, r] : oit->second) out.push_back(site);
  return out;
}

void StateSystem::apply_update(StateReplica& r, SiteId site, ObjectId obj,
                               std::string entry) {
  r.data.entries.insert(std::move(entry));
  r.vector.record_update(site);
  r.oracle_vector.increment(site);
  const UpdateId u{site, r.oracle_vector.value(site)};
  r.oracle_history.insert(u);
  // Note: the oracle history uses the replica's own per-site counter, which
  // equals the global per-site sequence because a site's updates are serial
  // on its single replica of the object.
  if (cfg_.causal != nullptr) {
    cfg_.causal->origin(loop_.now(), obj, site, u.seq);
    // A single-host object converges the instant it is updated.
    causal_converge_check(obj, u);
  }
  if (cfg_.check_oracle) check_replica(r);
}

std::vector<UpdateId> StateSystem::causal_fresh(const StateReplica& sender,
                                                const StateReplica& receiver,
                                                const obs::CausalTracer* causal) const {
  std::vector<UpdateId> fresh;
  if (causal == nullptr) return fresh;
  for (const UpdateId& u : sender.oracle_history) {
    if (!receiver.oracle_history.contains(u)) fresh.push_back(u);
  }
  std::sort(fresh.begin(), fresh.end());
  return fresh;
}

void StateSystem::causal_converge_check(ObjectId obj, const UpdateId& u) {
  // Coverage of u only changes when some replica absorbs u itself, so
  // checking at every origin/deliver of u closes each trace exactly when the
  // update stops diverging. Replica-set growth (a fresh empty replica created
  // by a later sync) re-opens the trace until the newcomer catches up; the
  // analyzer keys on the *last* kConverge of a trace.
  for (const auto& [site, r] : objects_.at(obj)) {
    if (!r.oracle_history.contains(u)) return;
  }
  cfg_.causal->converge(loop_.now(), obj, u.site, u.seq);
}

void StateSystem::check_replica(const StateReplica& r) const {
  OPTREP_CHECK_MSG(r.vector.same_values(r.oracle_vector),
                   "rotating vector diverged from the traditional-vector oracle");
}

}  // namespace optrep::repl
