// obs/json.h parser + flattener and obs/report_diff.h gate semantics — the
// pieces optrep_report is built from.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "obs/report_diff.h"

namespace optrep::obs {
namespace {

// ---------------------------------------------------------------------------
// json_parse
// ---------------------------------------------------------------------------

TEST(JsonParse, ParsesTheRepoArtifactShapes) {
  const std::string text =
      "{\"schema\":\"optrep.bench/v1\",\"bench\":\"demo\",\"rows\":[\n"
      "{\"n\":64,\"ok\":true,\"x\":-1.5e2,\"none\":null}\n"
      "]}\n";
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(text, &doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, "optrep.bench/v1");
  const JsonValue* rows = doc.find("rows");
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->items.size(), 1u);
  const JsonValue& row = rows->items[0];
  EXPECT_EQ(row.find("n")->number, 64.0);
  EXPECT_TRUE(row.find("ok")->boolean);
  EXPECT_EQ(row.find("x")->number, -150.0);
  EXPECT_EQ(row.find("none")->type, JsonValue::Type::kNull);
  EXPECT_EQ(row.find("absent"), nullptr);
}

TEST(JsonParse, StringEscapesIncludingUnicode) {
  JsonValue v;
  ASSERT_TRUE(json_parse("\"a\\\"b\\\\c\\nd\\u0041\\u00e9\"", &v));
  EXPECT_EQ(v.string, "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonParse, MalformedInputReportsOffsetNotUB) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_NE(err.find("5"), std::string::npos) << err;  // offset of the '}'
  EXPECT_FALSE(json_parse("[1,2", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(json_parse("", &v, &err));
}

// ---------------------------------------------------------------------------
// json_flatten
// ---------------------------------------------------------------------------

TEST(JsonFlatten, DottedPathsWithArrayIndicesBoolsAndStrings) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(
      "{\"bench\":\"demo\",\"rows\":[{\"bits\":8,\"within\":true},"
      "{\"bits\":16,\"within\":false}],\"skip\":null}",
      &doc));
  const FlatDoc flat = json_flatten(doc);
  EXPECT_EQ(flat.strings.at("bench"), "demo");
  EXPECT_EQ(flat.numbers.at("rows[0].bits"), 8.0);
  EXPECT_EQ(flat.numbers.at("rows[1].bits"), 16.0);
  EXPECT_EQ(flat.numbers.at("rows[0].within"), 1.0);
  EXPECT_EQ(flat.numbers.at("rows[1].within"), 0.0);
  EXPECT_EQ(flat.numbers.count("skip"), 0u);
  EXPECT_EQ(flat.strings.count("skip"), 0u);
}

// ---------------------------------------------------------------------------
// diff_docs / gate rules
// ---------------------------------------------------------------------------

FlatDoc flat_of(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse(text, &v, &err)) << err;
  return json_flatten(v);
}

TEST(ReportDiff, IdenticalDocsPassTheGate) {
  const FlatDoc d = flat_of("{\"rows\":[{\"srv_bits\":100,\"within\":1}]}");
  DiffOptions opt;
  const DocDiff diff = diff_docs("BENCH_demo.json", d, d, opt);
  EXPECT_EQ(diff.regressions(), 0u);
  EXPECT_EQ(diff.changes(), 0u);
  EXPECT_FALSE(gate_failed({diff}, opt));
}

TEST(ReportDiff, BitsIncreaseBeyondThresholdRegresses) {
  const FlatDoc base = flat_of("{\"rows\":[{\"srv_bits\":100}]}");
  const FlatDoc within = flat_of("{\"rows\":[{\"srv_bits\":104}]}");
  const FlatDoc beyond = flat_of("{\"rows\":[{\"srv_bits\":200}]}");
  DiffOptions opt;
  opt.threshold = 0.05;
  EXPECT_FALSE(gate_failed({diff_docs("d", base, within, opt)}, opt));
  const DocDiff bad = diff_docs("d", base, beyond, opt);
  ASSERT_EQ(bad.deltas.size(), 1u);
  EXPECT_TRUE(bad.deltas[0].gated);
  EXPECT_TRUE(bad.deltas[0].regressed);
  EXPECT_DOUBLE_EQ(bad.deltas[0].ratio(), 2.0);
  EXPECT_TRUE(gate_failed({bad}, opt));
  // A *decrease* in bits is an improvement, never a regression.
  EXPECT_FALSE(gate_failed({diff_docs("d", beyond, base, opt)}, opt));
}

TEST(ReportDiff, EventAndFrameIncreasesRegress) {
  // The frame-batching figures are gated: more executed dispatches or more
  // frames for the same workload means the coalescing regressed.
  DiffOptions opt;
  opt.threshold = 0.05;
  for (const char* field : {"events_framed", "events_unframed", "frames",
                            "framed_wire_bytes"}) {
    const std::string key = std::string("{\"rows\":[{\"") + field + "\":";
    const FlatDoc base = flat_of(key + "100}]}");
    const FlatDoc worse = flat_of(key + "150}]}");
    const DocDiff diff = diff_docs("BENCH_wire.json", base, worse, opt);
    ASSERT_EQ(diff.deltas.size(), 1u) << field;
    EXPECT_TRUE(diff.deltas[0].gated) << field;
    EXPECT_TRUE(gate_failed({diff}, opt)) << field;
    // Improvements (fewer events, smaller frames) pass.
    EXPECT_FALSE(gate_failed({diff_docs("BENCH_wire.json", worse, base, opt)}, opt))
        << field;
  }
}

TEST(ReportDiff, TailLatencyP999IncreaseRegresses) {
  // Histogram p999 columns are gated on increase: a fatter tail with the same
  // median is exactly the regression percentile summaries hide. The p999 rule
  // precedes the generic "bits" substring rule, so "session_bits.p999" gates
  // as a tail-latency figure either way (both fail on increase).
  DiffOptions opt;
  opt.threshold = 0.05;
  for (const char* field : {"sync_ms.p999", "session_bits.p999"}) {
    const std::string key = std::string("{\"rows\":[{\"") + field + "\":";
    const FlatDoc base = flat_of(key + "100}]}");
    const FlatDoc worse = flat_of(key + "150}]}");
    const DocDiff diff = diff_docs("BENCH_micro.json", base, worse, opt);
    ASSERT_EQ(diff.deltas.size(), 1u) << field;
    EXPECT_TRUE(diff.deltas[0].gated) << field;
    EXPECT_TRUE(diff.deltas[0].regressed) << field;
    EXPECT_TRUE(gate_failed({diff}, opt)) << field;
    // A thinner tail is an improvement.
    EXPECT_FALSE(gate_failed({diff_docs("BENCH_micro.json", worse, base, opt)}, opt))
        << field;
  }
}

TEST(ReportRender, P999RegressionRendersInMarkdownAndCsv) {
  const FlatDoc base = flat_of("{\"rows\":[{\"sync_ms.p999\":10}]}");
  const FlatDoc worse = flat_of("{\"rows\":[{\"sync_ms.p999\":20}]}");
  DiffOptions opt;
  opt.threshold = 0.05;
  const DocDiff diff = diff_docs("BENCH_micro.json", base, worse, opt);
  EXPECT_NE(diff_to_markdown({diff}, opt).find("sync_ms.p999"), std::string::npos);
  EXPECT_NE(diff_to_csv({diff}).find("sync_ms.p999"), std::string::npos);
}

TEST(ReportDiff, ConsistencyDecreaseRegressesIncreaseDoesNot) {
  const FlatDoc good = flat_of("{\"eventually_consistent\":1}");
  const FlatDoc bad = flat_of("{\"eventually_consistent\":0}");
  DiffOptions opt;
  EXPECT_TRUE(gate_failed({diff_docs("d", good, bad, opt)}, opt));
  EXPECT_FALSE(gate_failed({diff_docs("d", bad, good, opt)}, opt));
}

TEST(ReportDiff, ZeroBaselineRegressesOnAnyIncrease) {
  const FlatDoc zero = flat_of("{\"dropped\":0}");
  const FlatDoc one = flat_of("{\"dropped\":1}");
  DiffOptions opt;
  EXPECT_TRUE(gate_failed({diff_docs("d", zero, one, opt)}, opt));
  EXPECT_FALSE(gate_failed({diff_docs("d", zero, zero, opt)}, opt));
}

TEST(ReportDiff, HotPathAllocationsAreGatedAtZero) {
  // bench_microops' compare_full row: one heap allocation on the exact
  // comparison path fails the gate.
  const FlatDoc zero = flat_of("{\"rows\":[{\"compare_full_allocs\":0}]}");
  const FlatDoc one = flat_of("{\"rows\":[{\"compare_full_allocs\":1}]}");
  DiffOptions opt;
  const DocDiff diff = diff_docs("BENCH_microops.json", zero, one, opt);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_TRUE(diff.deltas[0].gated);
  EXPECT_TRUE(gate_failed({diff}, opt));
  EXPECT_FALSE(gate_failed({diff_docs("BENCH_microops.json", zero, zero, opt)}, opt));
}

TEST(ReportDiff, UnmatchedPathsAreInformationalOnly) {
  // "syncs" matches no gate rule: a 10x move must not fail the gate.
  const FlatDoc base = flat_of("{\"stats\":{\"syncs\":10}}");
  const FlatDoc cur = flat_of("{\"stats\":{\"syncs\":100}}");
  DiffOptions opt;
  const DocDiff diff = diff_docs("d", base, cur, opt);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_FALSE(diff.deltas[0].gated);
  EXPECT_EQ(diff.changes(), 1u);
  EXPECT_FALSE(gate_failed({diff}, opt));
}

TEST(ReportDiff, StrictModeFailsOnStructuralDrift) {
  const FlatDoc base = flat_of("{\"schema\":\"optrep.bench/v1\",\"a\":1}");
  const FlatDoc cur = flat_of("{\"schema\":\"optrep.bench/v2\",\"b\":1}");
  DiffOptions opt;
  const DocDiff diff = diff_docs("d", base, cur, opt);
  ASSERT_EQ(diff.only_base.size(), 1u);
  EXPECT_EQ(diff.only_base[0], "a");
  ASSERT_EQ(diff.only_cur.size(), 1u);
  EXPECT_EQ(diff.only_cur[0], "b");
  ASSERT_EQ(diff.string_mismatches.size(), 1u);
  EXPECT_FALSE(gate_failed({diff}, opt));  // default: informational
  opt.strict = true;
  EXPECT_TRUE(gate_failed({diff_docs("d", base, cur, opt)}, opt));
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

TEST(ReportRender, MarkdownAndCsvNameTheRegressedPath) {
  const FlatDoc base = flat_of("{\"rows\":[{\"srv_bits\":100,\"n\":8}]}");
  const FlatDoc cur = flat_of("{\"rows\":[{\"srv_bits\":200,\"n\":8}]}");
  DiffOptions opt;
  const std::vector<DocDiff> diffs = {diff_docs("BENCH_demo.json", base, cur, opt)};
  const std::string md = diff_to_markdown(diffs, opt);
  EXPECT_NE(md.find("BENCH_demo.json"), std::string::npos);
  EXPECT_NE(md.find("rows[0].srv_bits"), std::string::npos);
  EXPECT_NE(md.find("REGRESSED"), std::string::npos);
  const std::string csv = diff_to_csv(diffs);
  EXPECT_NE(csv.find("doc,path,base,current,ratio,gated,regressed"), std::string::npos);
  EXPECT_NE(csv.find("rows[0].srv_bits"), std::string::npos);
}

}  // namespace
}  // namespace optrep::obs
