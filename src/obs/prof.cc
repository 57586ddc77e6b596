#include "obs/prof.h"

#include "obs/export.h"

namespace optrep::prof {

// Chrome-trace JSON object format: https://docs.google.com/document/d/1CvAC…
// (the de-facto schema consumed by chrome://tracing and ui.perfetto.dev).
// Each retained span becomes one "X" (complete) event; timestamps and
// durations are microseconds as doubles, preserving nanosecond resolution.
// Events render one per line for greppability, matching trace_to_json.
std::string profile_to_json(const Profiler& p) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const SpanRecord& s = p.span(i);
    obs::JsonWriter ev;
    ev.begin_object();
    ev.field("name", s.name != nullptr ? s.name : "?");
    ev.field("cat", "optrep");
    ev.field("ph", "X");
    ev.field("ts", static_cast<double>(s.start_ns) / 1000.0);
    ev.field("dur", static_cast<double>(s.dur_ns) / 1000.0);
    ev.field("pid", std::uint64_t{1});
    ev.field("tid", s.tid);
    ev.key("args").begin_object();
    ev.field("depth", s.depth);
    ev.end_object();
    ev.end_object();
    std::string line = "\n";
    line += ev.take();
    w.raw(line);
  }
  w.end_array();
  w.field("displayTimeUnit", "ns");
  w.key("otherData").begin_object();
  w.field("schema", "optrep.profile/v1");
  w.field("capacity", static_cast<std::uint64_t>(p.capacity()));
  w.field("total_recorded", p.total_recorded());
  w.field("dropped", p.dropped());
  w.end_object();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

}  // namespace optrep::prof
