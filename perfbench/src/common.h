// Shared machinery of the optrep benchmark: timing statistics, the span log
// of traced runs, per-thread CPU attribution from /proc, and the report each
// workload fills in. Nothing here knows about a particular workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Timing statistics
// ---------------------------------------------------------------------------

// A timing distribution as the benchmark reports it: the median, plus the
// highest percentile (at most `cap`) that still has at least 10 samples
// beyond it, plus the sample count. With fewer than 11 samples no percentile
// qualifies and the tail falls back to the median (tail_q = 0.5).
struct Dist {
  std::size_t n{0};
  double median{0};
  double tail{0};
  double tail_q{0};
};

Dist summarize(std::vector<double> samples, double cap = 0.99);
double median_of(std::vector<double> samples);

// The samples, in the order they were taken, cut into `chunks` equal runs:
// the median over chunks of each chunk's median and tail. A burst of
// interference from outside the process moves the tail of the chunks it
// falls in, not the figure. n is the total; tail_q the lowest chunk's.
Dist summarize_chunks(const std::vector<double>& samples, std::size_t chunks);

// ---------------------------------------------------------------------------
// Spans (traced runs)
// ---------------------------------------------------------------------------

// One timed call into a layer. `request` groups the spans of one serve
// session, gossip round or batch call; `parent` is the id of the enclosing
// span (0 for a root).
struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t id{0};
  std::uint32_t parent{0};
  std::uint64_t request{0};
};

// Per-thread span log. Spans stay in memory until the run ends; nothing is
// written while measuring. Ids are unique within one log; `tag` keeps them
// unique across the logs of one run (id = tag << 24 | counter).
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tag = 0) : tag_(tag) {}

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t request) {
    Span s;
    s.name = name;
    s.id = (tag_ << 24) | static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }
  // Closes the span `id` returned by begin(); returns its duration in seconds.
  double end(std::uint32_t id) {
    Span& s = spans_[(id & 0xFFFFFFu) - 1];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tag_;
  std::vector<Span> spans_;
};

// Durations in microseconds of every span called `name`.
std::vector<double> span_durations_us(const std::vector<Span>& spans, const char* name);

// Write every span as one JSON document (optrep.perfbench.spans/v1): a table
// of span names, then one row per span of the fields named in "fields", with
// times in nanoseconds from the run's first span.
bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// Per-thread CPU attribution (/proc/self/task)
// ---------------------------------------------------------------------------

struct ThreadCpu {
  std::int64_t cpu_ns{0};         // on-CPU time, nanosecond clock
  std::uint64_t user_ticks{0};    // utime, clock ticks
  std::uint64_t sys_ticks{0};     // stime, clock ticks
  std::uint64_t ctx_switches{0};  // voluntary + involuntary
  ThreadCpu& operator+=(const ThreadCpu& o);
  ThreadCpu operator-(const ThreadCpu& o) const;
  double sys_share() const;  // stime / (utime + stime); 0 when both are 0
};

// Thread ids of this process, sorted.
std::vector<int> thread_ids();
// Ids in `after` that are not in `before` (both sorted).
std::vector<int> new_threads(const std::vector<int>& before, const std::vector<int>& after);
// Current counters of one thread of this process. False when it has exited.
bool read_thread_cpu(int tid, ThreadCpu* out);
ThreadCpu sum_thread_cpu(const std::vector<int>& tids);
int current_tid();

// On-CPU time of the calling thread and of the whole process (every thread,
// live or exited), nanoseconds. The kernel accounts time the hypervisor ran
// other guests on the vCPU (steal) and time the thread waited to be
// scheduled to neither, so these clocks measure the program's own work on a
// shared host where wall time measures the neighbours too.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

// VmHWM of this process in MiB.
double peak_rss_mb();

// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and the
// share the hypervisor gave to other guests (steal) while this one wanted it.
struct HostCpu {
  std::uint64_t total{0};
  std::uint64_t steal{0};
};
HostCpu host_cpu();

// The host's speed at the moment: CPU time of a fixed reference operation,
// one 64-byte round trip over a loopback TCP connection to itself, on the
// calling thread. On a shared host the speed of the same code moves by a
// quarter or more from one minute to the next (other tenants' load on the
// cores and caches the vCPUs run on), and the CPU clocks see it. A figure
// divided by the reference measured around it reads the same at any host
// speed; the end-to-end time metrics are such ratios, in ref_rtt units.
class HostReference {
 public:
  HostReference();
  ~HostReference();
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  bool ok() const { return client_ >= 0 && server_ >= 0; }
  // CPU nanoseconds of one round trip, the mean over kRoundTrips of them.
  double measure();
  // Runs fn() between two measurements and returns their mean.
  template <class Fn>
  double around(Fn&& fn) {
    const double before = measure();
    fn();
    return 0.5 * (before + measure());
  }

  static constexpr int kRoundTrips = 2000;

 private:
  int client_{-1};
  int server_{-1};
};

// ---------------------------------------------------------------------------
// Options and report
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string span_out;  // traced runs write their spans here at exit
  unsigned threads{1};   // nproc, the cap on threads and connections
  std::string source_rev{"unknown"};  // git commit or source digest
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

// What a workload run produced. `correct` stays true only while every check
// passed; an incorrect run exits non-zero with its metrics marked incorrect.
class Report {
 public:
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  // End-to-end (untraced runs) and per-layer (traced runs) metrics.
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  // A per-layer timing: <name>.p50, <name>.tail, <name>.tail_q, <name>.n.
  void layer_dist(const std::string& name, const Dist& d, const std::string& unit);
  // A free-form detail for the run's detail record (JSON value text).
  void note(const std::string& key, const std::string& json_value);
  void note(const std::string& key, double value);
  void note_dist(const std::string& key, const Dist& d);

  const std::vector<Metric>& e2e_metrics() const { return e2e_; }
  const std::vector<Metric>& layer_metrics() const { return layer_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const { return notes_; }

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

std::string json_string(const std::string& s);
std::string json_number(double v);

// nproc, CPU model, kernel, compiler, build type, source revision and seed:
// the fingerprint carried by every result.
std::string fingerprint_json(const Options& opt);

// The result line (correct/attempted/failed/metrics), and the detail record
// (fingerprint, notes, failures) printed before it.
std::string detail_json(const Options& opt, const Report& r);
std::string result_json(const Options& opt, const Report& r);

}  // namespace perfbench
