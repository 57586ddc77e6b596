// optrep_perfbench — one workload of the optrep benchmark per invocation.
//
//   optrep_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <file>] [--source-rev <rev>]
//
// Prints one detail record (fingerprint, notes, failures) and then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exits 0 when the
// workload's correctness checks passed, 1 when they failed, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "optrep_perfbench: %s\n"
               "usage: optrep_perfbench --workload serve-mixed|gossip-heal|state-batch "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
               "[--source-rev REV]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      opt.trace = v[0] == '1';
    } else if (flag == "--spans-out") {
      opt.span_out = v;
    } else if (flag == "--source-rev") {
      opt.source_rev = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  const perfbench::HostCpu host0 = perfbench::host_cpu();
  if (opt.workload == "serve-mixed") {
    perfbench::run_serve_mixed(opt, report);
  } else if (opt.workload == "gossip-heal") {
    perfbench::run_gossip_heal(opt, report);
  } else if (opt.workload == "state-batch") {
    perfbench::run_state_batch(opt, report);
  } else {
    usage("unknown --workload");
  }
  report.check(report.attempted > 0, "no operation attempted");
  // How much CPU the hypervisor withheld during the run: a run taken while
  // it was high reads slow for reasons outside the program.
  const perfbench::HostCpu host1 = perfbench::host_cpu();
  if (host1.total > host0.total) {
    report.note("host_steal_share", static_cast<double>(host1.steal - host0.steal) /
                                        static_cast<double>(host1.total - host0.total));
  }

  std::printf("%s\n%s\n", perfbench::detail_json(opt, report).c_str(),
              perfbench::result_json(opt, report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
