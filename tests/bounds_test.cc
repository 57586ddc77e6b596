// Table 2's communication upper bounds as parameterized unit tests: for
// every (kind, n) cell the worst-case synchronization must stay within the
// paper's printed closed form. (bench_table2 prints the same numbers; this
// keeps them enforced under ctest.)
#include <gtest/gtest.h>

#include <type_traits>

#include "tests/test_util.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

struct BoundCase {
  BoundCase(VectorKind k, std::uint32_t cells) : kind(k), n(cells) {}
  VectorKind kind;
  // gtest lists each case with the raw bytes of its parameter. Naming the
  // padding keeps those bytes, and so the listed test names, the same on
  // every run.
  std::uint8_t pad[3]{};
  std::uint32_t n;
};
static_assert(std::has_unique_object_representations_v<BoundCase>);

class Table2Bounds : public ::testing::TestWithParam<BoundCase> {};

RotatingVector linear(std::uint32_t n) {
  RotatingVector v;
  for (std::uint32_t i = 0; i < n; ++i) v.record_update(SiteId{i});
  return v;
}

std::uint64_t bound_for(const CostModel& cm, VectorKind kind) {
  switch (kind) {
    case VectorKind::kBrv: return cm.brv_upper_bound_bits();
    case VectorKind::kCrv: return cm.crv_upper_bound_bits();
    case VectorKind::kSrv: return cm.srv_upper_bound_bits();
  }
  return 0;
}

TEST_P(Table2Bounds, WorstCaseFullCopyStaysWithinBound) {
  const VectorKind kind = GetParam().kind;
  const std::uint32_t n = GetParam().n;
  const CostModel cm{.n = n, .m = 1 << 16};
  const RotatingVector b = linear(n);
  RotatingVector a;
  auto opt = test::ideal(kind, n);
  opt.known_relation = Ordering::kBefore;
  sim::EventLoop loop;
  const auto rep = sync_rotating(loop, a, b, opt);
  EXPECT_LE(rep.total_bits(), bound_for(cm, kind));
  EXPECT_TRUE(a.identical_to(b));
}

TEST_P(Table2Bounds, SkipHeavyWorkloadStaysWithinBound) {
  // Exercise the SKIP machinery too: the receiver knows interleaved tagged
  // segments of the sender, so SRV emits skips; traffic must still respect
  // the n·log(8mn) + n·log(2n) + 1 budget.
  const VectorKind kind = GetParam().kind;
  const std::uint32_t n = GetParam().n;
  if (kind == VectorKind::kBrv) {
    GTEST_SKIP() << "BRV supports no reconciliation (§3.1)";
  }
  const CostModel cm{.n = n, .m = 1 << 16};
  // Build b with many single-element tagged segments via reconciliations.
  RotatingVector b;
  b.record_update(SiteId{0});
  for (std::uint32_t i = 1; i < n; ++i) {
    RotatingVector side;
    side.record_update(SiteId{i});
    sim::EventLoop loop;
    auto opt = test::ideal(kind, n);
    sync_rotating(loop, b, side, opt);  // concurrent: tags element i
  }
  RotatingVector a = b;  // receiver knows everything…
  a.record_update(SiteId{0});
  // …and b advances so a must listen past tagged elements.
  b.record_update(SiteId{n / 2});
  sim::EventLoop loop;
  auto opt = test::ideal(kind, n);
  const auto rep = sync_rotating(loop, a, b, opt);
  EXPECT_LE(rep.total_bits(), bound_for(cm, kind) + compare_cost_bits(cm));
  EXPECT_TRUE(a.same_values([&] {
    VersionVector o = a.to_version_vector();
    o.join(b.to_version_vector());
    return o;
  }()));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, Table2Bounds,
    ::testing::Values(BoundCase{VectorKind::kBrv, 4}, BoundCase{VectorKind::kBrv, 32},
                      BoundCase{VectorKind::kBrv, 256}, BoundCase{VectorKind::kCrv, 4},
                      BoundCase{VectorKind::kCrv, 32}, BoundCase{VectorKind::kCrv, 256},
                      BoundCase{VectorKind::kSrv, 4}, BoundCase{VectorKind::kSrv, 32},
                      BoundCase{VectorKind::kSrv, 256}),
    [](const auto& info) {
      return std::string(to_string(info.param.kind)) + "N" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace optrep::vv
