// Cross-module integration: the full System facade under every design, with
// a synthetic streaming kernel small enough to keep tests fast.
#include <gtest/gtest.h>

#include "common/fp_bits.hh"
#include "runtime/system.hh"

namespace avr {
namespace {

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.scale_caches(64);  // L1 1 kB, L2 4 kB, LLC 128 kB
  return cfg;
}

/// Writes then repeatedly reads a smooth field twice the LLC size.
RunMetrics run_streaming_kernel(Design d, bool approx = true) {
  System sys(d, small_cfg());
  const uint64_t n = 64 * 1024;  // floats = 256 kB
  const RegionHandle h = sys.alloc_region("field", n * sizeof(float), approx);
  for (uint64_t i = 0; i < n; ++i)
    sys.store_f32(h, i * 4, 10.0f + 0.001f * static_cast<float>(i % 4096));
  double acc = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (uint64_t i = 0; i < n; ++i) acc += sys.load_f32(h, i * 4);
  EXPECT_GT(acc, 0.0);
  sys.finish();
  return sys.metrics();
}

TEST(SystemIntegration, AvrMovesFewerBytesThanBaseline) {
  const RunMetrics base = run_streaming_kernel(Design::kBaseline);
  const RunMetrics avr = run_streaming_kernel(Design::kAvr);
  EXPECT_LT(avr.dram_bytes, base.dram_bytes / 2);
  EXPECT_LT(avr.cycles, base.cycles);
  EXPECT_GT(avr.compression_ratio, 4.0);
}

TEST(SystemIntegration, TruncateHalvesApproxTraffic) {
  const RunMetrics base = run_streaming_kernel(Design::kBaseline);
  const RunMetrics tr = run_streaming_kernel(Design::kTruncate);
  EXPECT_NEAR(static_cast<double>(tr.dram_bytes) / base.dram_bytes, 0.5, 0.1);
}

TEST(SystemIntegration, ZeroAvrBehavesLikeBaseline) {
  const RunMetrics base = run_streaming_kernel(Design::kBaseline);
  const RunMetrics z = run_streaming_kernel(Design::kZeroAvr);
  // Same traffic within 5 % (no compression, no metadata for non-approx).
  EXPECT_NEAR(static_cast<double>(z.dram_bytes) / base.dram_bytes, 1.0, 0.05);
  EXPECT_NEAR(static_cast<double>(z.cycles) / base.cycles, 1.0, 0.05);
  EXPECT_DOUBLE_EQ(z.compression_ratio, 1.0);
}

TEST(SystemIntegration, NonApproxDataIdenticalAcrossDesigns) {
  // With approx=false every design must leave values bit-exact.
  for (Design d : {Design::kBaseline, Design::kTruncate, Design::kDoppelganger,
                   Design::kZeroAvr, Design::kAvr}) {
    System sys(d, small_cfg());
    const RegionHandle h = sys.alloc_region("x", 4096, /*approx=*/false);
    for (int i = 0; i < 1024; ++i) sys.store_f32(h, i * 4, 1.1f * i);
    sys.finish();
    for (int i = 0; i < 1024; ++i)
      EXPECT_FLOAT_EQ(sys.peek_f32(h, i * 4), 1.1f * i) << to_string(d);
  }
}

TEST(SystemIntegration, AvrValuesStayWithinThreshold) {
  System sys(Design::kAvr, small_cfg());
  const uint64_t n = 32 * 1024;
  const RegionHandle h = sys.alloc_region("field", n * 4, true);
  std::vector<float> expect(n);
  for (uint64_t i = 0; i < n; ++i) {
    expect[i] = 100.0f + 0.002f * static_cast<float>(i % 1024);
    sys.store_f32(h, i * 4, expect[i]);
  }
  sys.finish();  // forces compression of everything dirty
  int outliers = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const float v = sys.peek_f32(h, i * 4);
    if (relative_error(v, expect[i]) > 2 * 1.0 / 16) ++outliers;
  }
  EXPECT_EQ(outliers, 0) << "all values must stay within ~2*T1";
}

TEST(SystemIntegration, GoldenModeIsPureFunctional) {
  System sys(Design::kBaseline, small_cfg(), 1, /*timing=*/false);
  const RegionHandle h = sys.alloc_region("x", 4096, true);
  sys.store_f32(h, 0, 2.5f);
  EXPECT_FLOAT_EQ(sys.load_f32(h, 0), 2.5f);
  sys.finish();
  const RunMetrics m = sys.metrics();
  EXPECT_EQ(m.cycles, 0u);
  EXPECT_EQ(m.instructions, 0u);
  EXPECT_GT(m.footprint_bytes, 0u);
}

TEST(SystemIntegration, MetricsDetailExported) {
  const RunMetrics avr = run_streaming_kernel(Design::kAvr);
  EXPECT_TRUE(avr.detail.count("compress_attempts"));
  EXPECT_TRUE(avr.detail.count("requests"));
  EXPECT_GT(avr.energy.total(), 0.0);
  EXPECT_GT(avr.energy.compressor, 0.0);
}

TEST(SystemIntegration, OpsAccumulateInstructions) {
  System sys(Design::kBaseline, small_cfg());
  sys.ops(1000);
  EXPECT_EQ(sys.metrics().instructions, 1000u);
}

}  // namespace
}  // namespace avr
