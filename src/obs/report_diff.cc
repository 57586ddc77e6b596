#include "obs/report_diff.h"

#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace optrep::obs {

std::vector<GateRule> default_gate_rules() {
  return {
      {"wall_ns", true},     // profiling spans: more wall time is a regression
      {"bits", true},        // model-bit traffic (covers *_bits, bits_fwd, …)
      {"bytes", true},       // wire-byte traffic (incl. framed_wire_bytes)
      {"events", true},      // event-loop dispatches (events_framed/_unframed)
      {"wire", true},        // any other wire-path figure (codec sizes)
      {"frames", true},      // more frames = less coalescing for the same run
      {"gamma", true},       // observed γ (segments the receiver paid for)
      {"redundant", true},   // |Γ| elements / redundant graph nodes
      {"probe", true},       // flat-index probe totals/max: longer chains are bad
      {"straggler", true},
      {"dropped", true},     // ring truncation must not silently grow
      {"timeline", true},    // sampling overhead (timeline_off_allocs must stay 0)
      {"causal", true},      // tracing overhead (causal_*_allocs must stay 0)
      {"allocs", true},      // hot-path heap allocations (compare_full_allocs must stay 0)
      {"violations", true},  // Table 2 bound violations
      {"retries", true},     // recovery retries per fault budget must not grow
      {"failures", true},    // exhausted retry budgets (sync_failures)
      // Histogram tail latency: p999 growth is a regression even when the
      // histogram's name matches no traffic rule above (duration/latency
      // histograms). Traffic-named histograms (".session_bits.p999") are
      // already caught by the earlier rules with the same direction.
      {"p999", true},
      // Serving path (bench_serve): aborted sessions and decode errors on
      // the deterministic single-client rows must stay at zero, and the SLO
      // booleans (throughput_ok / scaling_ok) must not flip to 0.
      {"aborted", true},
      {"decode_errors", true},
      // Scenario worlds (bench_scenario): taking longer to re-converge is a
      // regression, and the converged flag must never flip to 0. (The
      // substrings are disjoint: "converged" has no "convergence" inside.)
      {"convergence", true},
      {"converged", false},
      {"within", false},     // within_table2_bound booleans
      {"consistent", false},
      {"throughput_ok", false},
      {"scaling_ok", false},
  };
}

namespace {

const GateRule* match_rule(const std::vector<GateRule>& rules, const std::string& path) {
  for (const auto& r : rules) {
    if (path.find(r.substring) != std::string::npos) return &r;
  }
  return nullptr;
}

bool is_regression(const GateRule& rule, double base, double cur, double threshold) {
  if (rule.increase_is_bad) {
    if (base == 0) return cur > 0;
    return cur > base * (1.0 + threshold);
  }
  if (base == 0) return false;  // can't get worse than nothing
  return cur < base * (1.0 - threshold);
}

void fmt_num(std::string* out, double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  *out += buf;
}

void fmt_ratio(std::string* out, const MetricDelta& d) {
  if (d.base == 0) {
    *out += d.cur == 0 ? "=" : "new";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.2f%%", (d.cur / d.base - 1.0) * 100.0);
  *out += buf;
}

}  // namespace

std::size_t DocDiff::regressions() const {
  std::size_t n = 0;
  for (const auto& d : deltas) n += d.regressed ? 1 : 0;
  return n;
}

std::size_t DocDiff::changes() const {
  std::size_t n = 0;
  for (const auto& d : deltas) n += d.changed() ? 1 : 0;
  return n;
}

DocDiff diff_docs(std::string name, const FlatDoc& base, const FlatDoc& cur,
                  const DiffOptions& opt) {
  DocDiff out;
  out.name = std::move(name);
  for (const auto& [path, bval] : base.numbers) {
    const auto it = cur.numbers.find(path);
    if (it == cur.numbers.end()) {
      out.only_base.push_back(path);
      continue;
    }
    MetricDelta d;
    d.path = path;
    d.base = bval;
    d.cur = it->second;
    if (const GateRule* rule = match_rule(opt.rules, path)) {
      d.gated = true;
      d.regressed = is_regression(*rule, d.base, d.cur, opt.threshold);
    }
    out.deltas.push_back(std::move(d));
  }
  for (const auto& [path, _] : cur.numbers) {
    if (base.numbers.find(path) == base.numbers.end()) out.only_cur.push_back(path);
  }
  for (const auto& [path, bval] : base.strings) {
    const auto it = cur.strings.find(path);
    if (it == cur.strings.end()) {
      out.only_base.push_back(path);
    } else if (it->second != bval) {
      out.string_mismatches.push_back(path + ": '" + bval + "' -> '" + it->second + "'");
    }
  }
  for (const auto& [path, _] : cur.strings) {
    if (base.strings.find(path) == base.strings.end()) out.only_cur.push_back(path);
  }
  return out;
}

bool gate_failed(const std::vector<DocDiff>& diffs, const DiffOptions& opt) {
  for (const auto& doc : diffs) {
    if (doc.regressions() > 0) return true;
    if (opt.strict &&
        (!doc.only_base.empty() || !doc.only_cur.empty() || !doc.string_mismatches.empty())) {
      return true;
    }
  }
  return false;
}

std::string diff_to_markdown(const std::vector<DocDiff>& diffs, const DiffOptions& opt) {
  std::string out = "# Performance comparison\n\n";
  {
    char buf[96];
    std::size_t regressions = 0, changes = 0;
    for (const auto& d : diffs) {
      regressions += d.regressions();
      changes += d.changes();
    }
    std::snprintf(buf, sizeof buf,
                  "Threshold: %.4g%% · documents: %zu · changed metrics: %zu · "
                  "regressions: %zu\n\n",
                  opt.threshold * 100.0, diffs.size(), changes, regressions);
    out += buf;
  }
  for (const auto& doc : diffs) {
    out += "## " + doc.name + "\n\n";
    std::size_t unchanged = 0;
    bool any_rows = false;
    for (const auto& d : doc.deltas) {
      if (!d.changed() && !d.regressed) {
        ++unchanged;
        continue;
      }
      if (!any_rows) {
        out += "| metric | baseline | current | delta | status |\n";
        out += "|---|---:|---:|---:|---|\n";
        any_rows = true;
      }
      out += "| `" + d.path + "` | ";
      fmt_num(&out, d.base);
      out += " | ";
      fmt_num(&out, d.cur);
      out += " | ";
      fmt_ratio(&out, d);
      out += " | ";
      out += d.regressed ? "**REGRESSED**" : (d.gated ? "ok" : "info");
      out += " |\n";
    }
    if (any_rows) out += "\n";
    char buf[96];
    std::snprintf(buf, sizeof buf, "%zu metric(s) unchanged.\n", unchanged);
    out += buf;
    for (const auto& p : doc.only_base) out += "- missing from current: `" + p + "`\n";
    for (const auto& p : doc.only_cur) out += "- new in current: `" + p + "`\n";
    for (const auto& m : doc.string_mismatches) out += "- string drift: " + m + "\n";
    out += "\n";
  }
  return out;
}

std::string diff_to_csv(const std::vector<DocDiff>& diffs) {
  std::string out = "doc,path,base,current,ratio,gated,regressed\n";
  for (const auto& doc : diffs) {
    for (const auto& d : doc.deltas) {
      CsvRow row;
      row.add(doc.name).add(d.path);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", d.base);
      row.add(buf);
      std::snprintf(buf, sizeof buf, "%.17g", d.cur);
      row.add(buf);
      std::snprintf(buf, sizeof buf, "%.6g", d.base != 0 ? d.cur / d.base : 0.0);
      row.add(buf);
      row.add(d.gated ? 1 : 0).add(d.regressed ? 1 : 0);
      out += row.str();
      out += '\n';
    }
  }
  return out;
}

}  // namespace optrep::obs
