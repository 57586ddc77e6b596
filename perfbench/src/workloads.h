// The benchmark's workloads. Each runs in one process, measures for about
// Options::seconds, checks the program's outputs, and fills a Report: every
// end-to-end metric on untraced runs, the per-layer metrics it exercises on
// traced runs. README.md in this directory says why each one exists.
#pragma once

#include "common.h"

namespace perfbench {

void run_serve_mixed(const Options& opt, Report& r);
void run_gossip_heal(const Options& opt, Report& r);
void run_state_batch(const Options& opt, Report& r);

}  // namespace perfbench
