#include "common.h"

#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

Dist summarize(std::vector<double> v, double cap) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  d.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  d.tail = d.median;
  d.tail_q = 0.5;
  if (n < 11) return d;
  // k samples strictly beyond the reported one: at least 10, and at least
  // the (1 - cap) share of the sample.
  const auto share = static_cast<std::size_t>(std::ceil((1.0 - cap) * static_cast<double>(n) - 1e-9));
  const std::size_t k = std::max<std::size_t>(10, share);
  const std::size_t idx = n - 1 - k;
  const double q = static_cast<double>(idx + 1) / static_cast<double>(n);
  if (q <= 0.5) return d;
  d.tail = v[idx];
  d.tail_q = q;
  return d;
}

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

Dist summarize_chunks(const std::vector<double>& samples, std::size_t chunks) {
  if (chunks <= 1 || samples.size() < chunks) return summarize(samples);
  std::vector<double> medians, tails;
  Dist d;
  d.n = samples.size();
  d.tail_q = 1;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto from = samples.begin() + static_cast<std::ptrdiff_t>(c * samples.size() / chunks);
    const auto to = samples.begin() + static_cast<std::ptrdiff_t>((c + 1) * samples.size() / chunks);
    const Dist part = summarize(std::vector<double>(from, to));
    medians.push_back(part.median);
    tails.push_back(part.tail);
    d.tail_q = std::min(d.tail_q, part.tail_q);
  }
  d.median = median_of(medians);
  d.tail = median_of(tails);
  return d;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::vector<double> span_durations_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  std::int64_t t0 = INT64_MAX;
  for (const SpanLog* l : logs) {
    for (const Span& s : l->spans()) t0 = std::min(t0, s.start_ns);
  }
  // Span names are few: one table, and each span a row indexing into it.
  std::vector<const char*> names;
  const auto name_index = [&](const char* n) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (std::strcmp(names[i], n) == 0) return i;
    }
    names.push_back(n);
    return names.size() - 1;
  };
  std::string rows;
  for (const SpanLog* l : logs) {
    for (const Span& s : l->spans()) {
      rows += (rows.empty() ? "\n[" : ",\n[") + std::to_string(name_index(s.name)) + "," +
              std::to_string(s.id) + "," + std::to_string(s.parent) + "," +
              std::to_string(s.request) + "," + std::to_string(s.start_ns - t0) + "," +
              std::to_string(s.end_ns - t0) + "]";
    }
  }
  f << "{\"schema\":\"optrep.perfbench.spans/v1\",\"workload\":" << json_string(workload)
    << ",\"names\":[";
  for (std::size_t i = 0; i < names.size(); ++i) f << (i ? "," : "") << json_string(names[i]);
  f << "],\"fields\":[\"name\",\"id\",\"parent\",\"request\",\"start_ns\",\"end_ns\"],"
    << "\"spans\":[" << rows << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Per-thread CPU
// ---------------------------------------------------------------------------

ThreadCpu& ThreadCpu::operator+=(const ThreadCpu& o) {
  cpu_ns += o.cpu_ns;
  user_ticks += o.user_ticks;
  sys_ticks += o.sys_ticks;
  ctx_switches += o.ctx_switches;
  return *this;
}

ThreadCpu ThreadCpu::operator-(const ThreadCpu& o) const {
  ThreadCpu d;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.user_ticks = user_ticks - o.user_ticks;
  d.sys_ticks = sys_ticks - o.sys_ticks;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  return d;
}

double ThreadCpu::sys_share() const {
  const std::uint64_t total = user_ticks + sys_ticks;
  return total == 0 ? 0.0 : static_cast<double>(sys_ticks) / static_cast<double>(total);
}

std::vector<int> thread_ids() {
  std::vector<int> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.push_back(std::atoi(e->d_name));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> new_threads(const std::vector<int>& before, const std::vector<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

namespace {

// The kernel's per-thread CPU clock id for a thread of this process
// (CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD on the thread id): nanosecond
// sum_exec_runtime, unlike the 10 ms tick counters of /proc stat.
clockid_t thread_clock(int tid) {
  return static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6u);
}

}  // namespace

bool read_thread_cpu(int tid, ThreadCpu* out) {
  ThreadCpu c;
  timespec ts{};
  if (clock_gettime(thread_clock(tid), &ts) != 0) return false;
  c.cpu_ns = static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;

  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/stat", tid);
  std::ifstream st(path);
  std::string line;
  if (!std::getline(st, line)) return false;
  // Fields after the parenthesised command name: state is field 3, utime 14,
  // stime 15 (1-based, as in proc(5)).
  const std::size_t rp = line.rfind(')');
  if (rp == std::string::npos) return false;
  std::istringstream rest(line.substr(rp + 2));
  std::string field;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) c.user_ticks = std::stoull(field);
    if (i == 15) c.sys_ticks = std::stoull(field);
  }

  std::snprintf(path, sizeof path, "/proc/self/task/%d/status", tid);
  std::ifstream status(path);
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
        line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      c.ctx_switches += std::stoull(line.substr(line.find(':') + 1));
    }
  }
  *out = c;
  return true;
}

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

ThreadCpu sum_thread_cpu(const std::vector<int>& tids) {
  ThreadCpu sum;
  for (const int t : tids) {
    ThreadCpu c;
    if (read_thread_cpu(t, &c)) sum += c;
  }
  return sum;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

HostCpu host_cpu() {
  HostCpu h;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

HostReference::HostReference() {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      listen(listener, 1) == 0 &&
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    client_ = socket(AF_INET, SOCK_STREAM, 0);
    if (client_ >= 0 && connect(client_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      server_ = accept(listener, nullptr, nullptr);
    }
  }
  close(listener);
  const int one = 1;
  for (const int fd : {client_, server_}) {
    if (fd >= 0) setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
}

HostReference::~HostReference() {
  if (client_ >= 0) close(client_);
  if (server_ >= 0) close(server_);
}

namespace {

// Writes n bytes to `to` and reads them back from `from`; false on error.
bool pass(int to, int from, char* buf, std::size_t n) {
  if (write(to, buf, n) != static_cast<ssize_t>(n)) return false;
  for (std::size_t got = 0; got < n;) {
    const ssize_t r = read(from, buf + got, n - got);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

double HostReference::measure() {
  if (!ok()) return 0;
  char buf[64] = {};
  const std::int64_t t0 = thread_cpu_ns();
  for (int i = 0; i < kRoundTrips; ++i) {
    if (!pass(client_, server_, buf, sizeof buf) || !pass(server_, client_, buf, sizeof buf)) {
      return 0;
    }
  }
  return static_cast<double>(thread_cpu_ns() - t0) / kRoundTrips;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::layer_dist(const std::string& name, const Dist& d, const std::string& unit) {
  layer(name + ".p50", d.median, unit);
  layer(name + ".tail", d.tail, unit);
  layer(name + ".tail_q", d.tail_q, "quantile");
  layer(name + ".n", static_cast<double>(d.n), "count");
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Report::note(const std::string& key, double value) { note(key, json_number(value)); }

void Report::note_dist(const std::string& key, const Dist& d) {
  note(key, "{\"median\":" + json_number(d.median) + ",\"tail\":" + json_number(d.tail) +
                ",\"tail_q\":" + json_number(d.tail_q) + ",\"n\":" + std::to_string(d.n) + "}");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fingerprint_json(const Options& opt) {
  std::string cpu = "unknown";
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu\":" + json_string(cpu);
  out += ",\"kernel\":" + json_string(std::string(u.sysname) + " " + u.release);
  out += ",\"compiler\":" + json_string(std::string("gcc ") + __VERSION__);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"source_rev\":" + json_string(opt.source_rev);
  out += ",\"seed\":" + std::to_string(opt.seed);
  return out + "}";
}

std::string detail_json(const Options& opt, const Report& r) {
  std::string out = "{\"schema\":\"optrep.perfbench.detail/v1\"";
  out += ",\"workload\":" + json_string(opt.workload);
  out += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  out += ",\"seconds\":" + json_number(opt.seconds);
  out += ",\"fingerprint\":" + fingerprint_json(opt);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures().size(); ++i) {
    out += (i ? "," : "") + json_string(r.failures()[i]);
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < r.notes().size(); ++i) {
    out += (i ? "," : "") + json_string(r.notes()[i].first) + ":" + r.notes()[i].second;
  }
  return out + "}}";
}

std::string result_json(const Options& opt, const Report& r) {
  std::string out = "{\"correct\":" + std::string(r.correct() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  const auto& ms = opt.trace ? r.layer_metrics() : r.e2e_metrics();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? "," : "") + json_string(ms[i].name) + ":{\"value\":" +
           json_number(ms[i].value) + ",\"unit\":" + json_string(ms[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
