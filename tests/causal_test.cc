// obs::CausalTracer: trace/span identity, ring semantics, the
// optrep.causal/v1 exporters, and the repl systems' causal instrumentation
// (origins, per-hop delivers, converge closing, retry span parenting under
// fault injection, byte determinism).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "obs/json.h"
#include "repl/op_system.h"
#include "repl/state_system.h"
#include "workload/trace.h"

using namespace optrep;

namespace {

// ---- tracer unit tests -----------------------------------------------------

TEST(CausalTracer, TraceIdsAreStableNonZeroAndSeedSensitive) {
  obs::CausalTracer a(42), b(42), c(43);
  const std::uint64_t id = a.trace_id(ObjectId{1}, SiteId{2}, 3);
  EXPECT_EQ(id, b.trace_id(ObjectId{1}, SiteId{2}, 3));
  EXPECT_NE(id, c.trace_id(ObjectId{1}, SiteId{2}, 3));
  EXPECT_NE(id, a.trace_id(ObjectId{1}, SiteId{2}, 4));
  EXPECT_NE(id, a.trace_id(ObjectId{2}, SiteId{2}, 3));
  EXPECT_NE(id, 0u);
  // origin/deliver/converge for the same update share one trace id.
  a.origin(1.0, ObjectId{1}, SiteId{2}, 3);
  a.deliver(2.0, ObjectId{1}, SiteId{2}, 3, /*span=*/7, SiteId{2}, SiteId{0});
  a.converge(3.0, ObjectId{1}, SiteId{2}, 3);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.event(0).trace, id);
  EXPECT_EQ(a.event(1).trace, id);
  EXPECT_EQ(a.event(2).trace, id);
}

TEST(CausalTracer, SpanIdsAreSequentialAndParented) {
  obs::CausalTracer t(1);
  const std::uint64_t root = t.begin_span(0.0, 0, SiteId{0}, SiteId{1}, 0);
  const std::uint64_t a0 = t.begin_span(0.1, root, SiteId{0}, SiteId{1}, 0);
  const std::uint64_t a1 = t.begin_span(0.2, root, SiteId{0}, SiteId{1}, 1);
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(a0, 2u);
  EXPECT_EQ(a1, 3u);
  EXPECT_EQ(t.spans_opened(), 3u);
  EXPECT_EQ(t.event(1).parent, root);
  EXPECT_EQ(t.event(2).parent, root);
  EXPECT_EQ(t.event(2).attempt, 1u);
  t.end_span(0.3, a1, 128, true);
  EXPECT_EQ(t.event(3).bits, 128u);
  EXPECT_TRUE(t.event(3).ok);
}

TEST(CausalTracer, RingWrapsAtExactCapacityBoundary) {
  obs::CausalTracer t(1, /*capacity=*/4);
  for (std::uint64_t s = 1; s <= 4; ++s) t.origin(double(s), ObjectId{1}, SiteId{0}, s);
  // Exactly full: nothing dropped yet.
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.event(0).seq, 1u);
  // One past capacity: the oldest event (seq 1) is overwritten.
  t.origin(5.0, ObjectId{1}, SiteId{0}, 5);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 5u);
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(t.event(0).seq, 2u);
  EXPECT_EQ(t.event(3).seq, 5u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.spans_opened(), 0u);
}

// ---- exporters -------------------------------------------------------------

TEST(CausalExport, SingleRunDocumentShape) {
  obs::CausalTracer t(9);
  t.origin(0.0, ObjectId{3}, SiteId{1}, 1);
  const std::uint64_t s = t.begin_span(0.5, 0, SiteId{1}, SiteId{0}, 0);
  t.wire(0.6, /*recv=*/false, s, /*forward=*/true, SiteId{1}, 1, 40);
  t.wire(0.7, /*recv=*/true, s, /*forward=*/true, SiteId{1}, 1, 0);
  t.apply(0.7, s, SiteId{1}, 1);
  t.deliver(0.8, ObjectId{3}, SiteId{1}, 1, s, SiteId{1}, SiteId{0});
  t.converge(0.8, ObjectId{3}, SiteId{1}, 1);
  t.end_span(0.9, s, 40, true);
  const std::string json = obs::causal_to_json(t);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err << "\n" << json;
  EXPECT_EQ(doc.find("schema")->string, "optrep.causal/v1");
  EXPECT_EQ(doc.find("total_recorded")->number, 8);
  EXPECT_EQ(doc.find("dropped")->number, 0);
  EXPECT_EQ(doc.find("spans")->number, 1);
  const obs::JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 8u);
  EXPECT_EQ(events->items[0].find("type")->string, "origin");
  EXPECT_EQ(events->items[1].find("type")->string, "span_begin");
  EXPECT_EQ(events->items[5].find("type")->string, "deliver");
  EXPECT_EQ(events->items[5].find("span")->number, double(s));
  EXPECT_EQ(events->items[7].find("type")->string, "span_end");
  EXPECT_EQ(events->items[7].find("bits")->number, 40);
}

TEST(CausalExport, SweepDocumentAssemblesFragmentsInOrder) {
  obs::CausalTracer t0(1), t1(2);
  t0.origin(0.0, ObjectId{1}, SiteId{0}, 1);
  t1.origin(0.0, ObjectId{1}, SiteId{1}, 1);
  const std::vector<std::string> frags = {obs::causal_run_fragment(t0, 0),
                                          obs::causal_run_fragment(t1, 1)};
  const std::string json = obs::causal_sweep_json(frags);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err << "\n" << json;
  EXPECT_EQ(doc.find("schema")->string, "optrep.causal/v1");
  EXPECT_EQ(doc.find("axis")->string, "run");
  const obs::JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 2u);
  EXPECT_EQ(runs->items[0].find("run")->number, 0);
  EXPECT_EQ(runs->items[1].find("run")->number, 1);
  EXPECT_EQ(runs->items[1].find("events")->items.size(), 1u);
}

TEST(CausalExport, PerfettoDocumentHasSlicesAndFlows) {
  obs::CausalTracer t(5);
  t.origin(0.0, ObjectId{1}, SiteId{0}, 1);
  const std::uint64_t s = t.begin_span(0.5, 0, SiteId{0}, SiteId{1}, 0);
  t.deliver(0.8, ObjectId{1}, SiteId{0}, 1, s, SiteId{0}, SiteId{1});
  t.converge(0.8, ObjectId{1}, SiteId{0}, 1);
  t.end_span(0.9, s, 64, true);
  const std::string json = obs::causal_to_perfetto_json(t);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err << "\n" << json;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> phases;
  for (const obs::JsonValue& e : events->items) phases.insert(e.find("ph")->string);
  EXPECT_TRUE(phases.count("X"));  // span slices
  EXPECT_TRUE(phases.count("s"));  // flow start
  EXPECT_TRUE(phases.count("f"));  // hop flow end
  EXPECT_TRUE(phases.count("i"));  // origin/deliver/converge instants
}

// ---- StateSystem integration -----------------------------------------------

repl::StateSystem::Config state_cfg(std::uint32_t sites, obs::CausalTracer* c) {
  repl::StateSystem::Config cfg;
  cfg.n_sites = sites;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = sites, .m = 1 << 16};
  cfg.causal = c;
  return cfg;
}

// Index the retained ring by type for invariant checks.
struct Indexed {
  std::vector<obs::CausalEvent> origins, delivers, converges, begins, ends, faults;
  std::map<std::uint64_t, obs::CausalEvent> span_begin;  // span id -> begin
  explicit Indexed(const obs::CausalTracer& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const obs::CausalEvent& e = t.event(i);
      switch (e.type) {
        case obs::CausalEventType::kOrigin: origins.push_back(e); break;
        case obs::CausalEventType::kDeliver: delivers.push_back(e); break;
        case obs::CausalEventType::kConverge: converges.push_back(e); break;
        case obs::CausalEventType::kSpanBegin:
          begins.push_back(e);
          span_begin[e.span] = e;
          break;
        case obs::CausalEventType::kSpanEnd: ends.push_back(e); break;
        case obs::CausalEventType::kFault: faults.push_back(e); break;
        default: break;
      }
    }
  }
};

TEST(CausalStateSystem, OriginsDeliversAndConvergeCloseEveryTrace) {
  obs::CausalTracer tracer(7);
  repl::StateSystem sys(state_cfg(3, &tracer));
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  sys.sync(SiteId{2}, SiteId{0}, obj);
  sys.update(SiteId{1}, obj, "b");
  sys.sync(SiteId{0}, SiteId{1}, obj);
  sys.sync(SiteId{2}, SiteId{1}, obj);
  ASSERT_TRUE(sys.replicas_consistent(obj));

  const Indexed ix(tracer);
  ASSERT_GE(ix.origins.size(), 2u);  // the create + the update
  ASSERT_FALSE(ix.delivers.empty());
  // Every origin's trace eventually converges (the fleet is consistent).
  std::set<std::uint64_t> converged;
  for (const obs::CausalEvent& e : ix.converges) converged.insert(e.trace);
  for (const obs::CausalEvent& e : ix.origins) {
    EXPECT_TRUE(converged.count(e.trace))
        << "origin (site " << e.site.value << ", seq " << e.seq
        << ") never converged";
  }
  // Delivers reference real spans, and those spans closed ok.
  std::set<std::uint64_t> ended_ok;
  for (const obs::CausalEvent& e : ix.ends)
    if (e.ok) ended_ok.insert(e.span);
  for (const obs::CausalEvent& e : ix.delivers) {
    ASSERT_NE(e.span, 0u);
    EXPECT_TRUE(ix.span_begin.count(e.span));
    EXPECT_TRUE(ended_ok.count(e.span));
    EXPECT_NE(e.src, e.dst);
  }
  // Convergence coincides with the last delivery of that trace (fault-free).
  std::map<std::uint64_t, double> last_deliver;
  for (const obs::CausalEvent& e : ix.delivers) last_deliver[e.trace] = e.at;
  for (const obs::CausalEvent& e : ix.converges) {
    if (last_deliver.count(e.trace)) {
      EXPECT_EQ(e.at, last_deliver[e.trace]);
    }
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(CausalStateSystem, RetrySpansParentToTheRecoveryRootUnderLoss) {
  obs::CausalTracer tracer(3);
  auto cfg = state_cfg(3, &tracer);
  cfg.net.latency_s = 0.001;
  cfg.net.faults.drop = 0.3;
  cfg.net.faults.seed = 11;
  repl::StateSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  for (int i = 0; i < 12; ++i) {
    std::string value = "u";
    value += std::to_string(i);
    sys.update(SiteId{0}, obj, value);
    sys.sync(SiteId{1}, SiteId{0}, obj);
    sys.sync(SiteId{2}, SiteId{0}, obj);
  }
  const Indexed ix(tracer);
  ASSERT_FALSE(ix.faults.empty()) << "30% drop must inject visible faults";
  // Attempt spans parent to a root span that is itself parentless; a retried
  // session shows attempt > 0 under the same root.
  bool saw_retry = false;
  for (const obs::CausalEvent& e : ix.begins) {
    if (e.parent == 0) continue;
    ASSERT_TRUE(ix.span_begin.count(e.parent));
    EXPECT_EQ(ix.span_begin.at(e.parent).parent, 0u);
    saw_retry = saw_retry || e.attempt > 0;
  }
  EXPECT_TRUE(saw_retry) << "expected at least one retry attempt span";
  // Fault events attach to an open span.
  for (const obs::CausalEvent& e : ix.faults) {
    EXPECT_TRUE(ix.span_begin.count(e.span));
    EXPECT_NE(e.fault, obs::FlightFault::kNone);
  }
}

TEST(CausalStateSystem, WorkloadRunsExportByteIdenticalDocuments) {
  const auto run = [] {
    obs::CausalTracer tracer(99);
    auto cfg = state_cfg(4, &tracer);
    cfg.net.faults.drop = 0.05;
    cfg.net.faults.seed = 21;
    cfg.net.latency_s = 0.001;
    repl::StateSystem sys(cfg);
    wl::GeneratorConfig g;
    g.n_sites = 4;
    g.n_objects = 2;
    g.steps = 150;
    g.seed = 17;
    wl::run_state(sys, wl::generate(g));
    return obs::causal_to_json(tracer);
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"type\":\"converge\""), std::string::npos);
}

// ---- OpSystem integration --------------------------------------------------

TEST(CausalOpSystem, OperationTracesCloseWithSpanlessDelivers) {
  obs::CausalTracer tracer(5);
  repl::OpSystem::Config cfg;
  cfg.n_sites = 3;
  cfg.cost = CostModel{.n = 3, .m = 1 << 20};
  cfg.causal = &tracer;
  repl::OpSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  sys.update(SiteId{0}, obj, "b");
  sys.update(SiteId{1}, obj, "c");
  sys.sync(SiteId{1}, SiteId{0}, obj);  // reconciles: merge node opens a trace
  sys.sync(SiteId{0}, SiteId{1}, obj);
  ASSERT_TRUE(sys.replicas_consistent(obj));

  const Indexed ix(tracer);
  ASSERT_GE(ix.origins.size(), 3u);  // create + two updates (+ merge)
  std::set<std::uint64_t> converged;
  for (const obs::CausalEvent& e : ix.converges) converged.insert(e.trace);
  for (const obs::CausalEvent& e : ix.origins) {
    EXPECT_TRUE(converged.count(e.trace))
        << "op (site " << e.site.value << ", seq " << e.seq << ") never converged";
  }
  // Operation transfer has no vv spans: delivers carry span 0 but still name
  // the (src, dst) hop.
  ASSERT_FALSE(ix.delivers.empty());
  for (const obs::CausalEvent& e : ix.delivers) {
    EXPECT_EQ(e.span, 0u);
    EXPECT_NE(e.src, e.dst);
  }
}

}  // namespace
