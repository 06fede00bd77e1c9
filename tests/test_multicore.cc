// Multi-core plumbing: per-core private caches, shared LLC, cycle reporting
// as the max over cores.
#include <gtest/gtest.h>

#include "runtime/system.hh"

namespace avr {
namespace {

SimConfig cfg() {
  SimConfig c;
  c.scale_caches(64);
  return c;
}

TEST(Multicore, CoresHavePrivateL1s) {
  System sys(Design::kBaseline, cfg(), /*num_cores=*/2);
  const RegionHandle h = sys.alloc_region("x", kBlockBytes, false);
  sys.use_core(0);
  sys.load_f32(h, 0);  // miss everywhere, fills core 0's L1
  sys.load_f32(h, 0);  // L1 hit on core 0
  sys.use_core(1);
  sys.load_f32(h, 0);  // misses core 1's L1, hits the shared LLC
  EXPECT_EQ(sys.hierarchy().l1(0).counters().hits, 1u);
  EXPECT_EQ(sys.hierarchy().l1(1).counters().hits, 0u);
  EXPECT_EQ(sys.hierarchy().llc_requests(), 2u);
  EXPECT_EQ(sys.hierarchy().llc_misses(), 1u) << "second core hits shared LLC";
}

TEST(Multicore, SharedLlcServesBothCores) {
  System sys(Design::kAvr, cfg(), 2);
  const RegionHandle h = sys.alloc_region("x", 4 * kBlockBytes, true);
  sys.use_core(0);
  for (int i = 0; i < 64; ++i) sys.store_f32(h, i * 4, 1.0f + i);
  sys.use_core(1);
  for (int i = 0; i < 64; ++i) sys.load_f32(h, i * 4);
  sys.finish();
  EXPECT_GT(sys.core(0).instructions(), 0u);
  EXPECT_GT(sys.core(1).instructions(), 0u);
  const RunMetrics m = sys.metrics();
  EXPECT_EQ(m.instructions,
            sys.core(0).instructions() + sys.core(1).instructions());
  EXPECT_GE(m.cycles, std::max(sys.core(0).cycles(), sys.core(1).cycles()));
}

TEST(Multicore, OpsChargeTheActiveCore) {
  // Explicit ops() bill to the core selected by use_core(), exactly like
  // the accesses they surround (ops() used to charge core 0 always).
  System sys(Design::kBaseline, cfg(), /*num_cores=*/2);
  const RegionHandle h = sys.alloc_region("x", kBlockBytes, false);
  sys.use_core(1);
  sys.ops(100);
  sys.load_f32(h, 0);
  EXPECT_EQ(sys.core(0).instructions(), 0u);
  EXPECT_EQ(sys.core(1).instructions(), 100u + 1u + cfg().ops_per_access);
  sys.use_core(0);
  sys.ops(7);
  EXPECT_EQ(sys.core(0).instructions(), 7u);
  EXPECT_EQ(sys.core(1).instructions(), 100u + 1u + cfg().ops_per_access);
}

TEST(Multicore, UseCoreOutOfRangeFallsBackToZero) {
  System sys(Design::kBaseline, cfg(), 2);
  const RegionHandle h = sys.alloc_region("x", kBlockBytes, false);
  sys.use_core(99);  // clamps to core 0
  sys.load_f32(h, 0);
  EXPECT_EQ(sys.core(0).instructions(),
            1u + cfg().ops_per_access);
}

}  // namespace
}  // namespace avr
