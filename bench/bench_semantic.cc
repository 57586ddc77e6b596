// E-semantic — §1/§4: semantic-over-syntactic detection uses the cheap
// syntactic signal (COMPARE, O(1)) as a trigger for a costlier semantic
// check; on write-disjoint workloads almost every syntactic conflict is a
// false alarm ("heavily updated objects can generate numerous syntactic-only
// conflicts"). This bench measures the filter rate as a function of the
// write working-set overlap, and the per-trigger cost split.
#include "bench/bench_util.h"
#include "repl/record_system.h"

using namespace optrep;
using namespace optrep::bench;

namespace {

struct SemSample {
  std::uint64_t syntactic;
  std::uint64_t syntactic_only;
  std::uint64_t semantic;
  std::uint64_t sessions;
  std::uint64_t bits;
};

// `overlap` controls how likely two sites write to the same keys: each write
// picks a key from a shared pool of size `key_pool` (small pool = heavy
// overlap) or, with probability 1-overlap, from the writer's private range.
SemSample run(double overlap, std::uint32_t key_pool, std::uint64_t seed) {
  constexpr std::uint32_t kSites = 8;
  repl::RecordSystem::Config cfg;
  cfg.n_sites = kSites;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.policy = repl::SemanticPolicy::kLastWriterWins;
  cfg.cost = CostModel{.n = kSites, .m = 1 << 16};
  repl::RecordSystem sys(cfg);
  const ObjectId db{0};
  Rng rng(seed);

  sys.create_object(SiteId{0}, db, "genesis", "x");
  for (std::uint32_t s = 1; s < kSites; ++s) sys.sync(SiteId{s}, SiteId{0}, db);

  std::vector<std::uint64_t> priv(kSites, 0);
  const int steps = smoke() ? 400 : 4000;
  for (int step = 0; step < steps; ++step) {
    const auto s = static_cast<std::uint32_t>(rng.below(kSites));
    if (rng.chance(0.55)) {
      std::string key;
      if (rng.chance(overlap)) {
        key = "shared:" + std::to_string(rng.below(key_pool));
      } else {
        key = "own:" + std::to_string(s) + ":" + std::to_string(priv[s]++ % 64);
      }
      std::string value = "v";
      value += std::to_string(step);
      sys.put(SiteId{s}, db, key, value);
    } else {
      auto p = static_cast<std::uint32_t>(rng.below(kSites));
      if (p == s) p = (p + 1) % kSites;
      sys.sync(SiteId{s}, SiteId{p}, db);
    }
  }
  SemSample out{};
  out.syntactic = sys.totals().syntactic_conflicts;
  out.syntactic_only = sys.totals().syntactic_only;
  out.semantic = sys.totals().semantic_conflicts;
  out.sessions = sys.totals().sessions;
  out.bits = sys.totals().bits;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  init_bench(&argc, argv);
  std::printf("==== bench_semantic: syntactic triggers vs true semantic conflicts ====\n");
  std::printf("(8 sites, 4000 events, LWW resolution; overlap = P(write hits the\n"
              " shared key pool))\n\n");
  std::printf("%-9s %-9s | %-11s %-14s %-13s %-14s %-11s\n", "overlap", "pool",
              "triggers", "false alarms", "filtered", "record confl.", "bits/sess");
  print_rule(88);
  const std::vector<double> overlaps =
      smoke() ? std::vector<double>{0.0, 0.6}
              : std::vector<double>{0.0, 0.1, 0.3, 0.6, 0.9};
  std::vector<std::pair<double, std::uint32_t>> configs;
  for (double overlap : overlaps) {
    for (std::uint32_t pool : {4u, 64u}) {
      if (overlap == 0.0 && pool != 4u) continue;  // pool is moot at 0 overlap
      configs.emplace_back(overlap, pool);
    }
  }
  const auto rows =
      sweep(configs, [](const std::pair<double, std::uint32_t>& c, std::size_t) {
        return run(c.first, c.second, 42);
      });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto [overlap, pool] = configs[i];
    const SemSample& s = rows[i];
    const double filtered =
        s.syntactic == 0 ? 0.0
                         : 100.0 * (double)s.syntactic_only / (double)s.syntactic;
    std::printf("%-9.1f %-9u | %-11llu %-14llu %-12.1f%% %-14llu %-11.1f\n", overlap,
                pool, (unsigned long long)s.syntactic,
                (unsigned long long)s.syntactic_only, filtered,
                (unsigned long long)s.semantic, (double)s.bits / (double)s.sessions);
  }
  std::printf("\n(expected shape: with disjoint write sets every syntactic conflict is\n"
              " filtered — ~100%% false alarms, exactly the regime where the cost of\n"
              " the trigger itself matters and SRV's cheap metadata exchange pays;\n"
              " with a tiny shared pool true conflicts emerge but most triggers are\n"
              " still syntactic-only.)\n");
  return 0;
}
