// Value-identity pin for the hot-path/flat-counter refactor: a small
// deterministic (workload x design) point whose harness-reported metrics
// were captured on the pre-refactor seed model (commit 0c25d73, -O2). Every
// metric must stay bit-identical — the stats flattening, the DRAM
// address-map shift/mask rewrite and the interval-core/hierarchy hoists are
// pure mechanical changes, and any drift here means simulated behaviour
// changed.
//
// The kernel uses only float +/* arithmetic (no libm), so the pinned values
// are reproducible across IEEE-754 platforms and compilers.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "runtime/system.hh"

namespace avr {
namespace {

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.scale_caches(64);  // L1 1 kB, L2 4 kB, LLC 128 kB
  return cfg;
}

/// Writes then repeatedly reads a smooth field twice the LLC size — the
/// same kernel test_system_integration streams, which touches every request
/// and eviction path of every design.
RunMetrics run_kernel(Design d) {
  System sys(d, small_cfg());
  const uint64_t n = 64 * 1024;  // floats = 256 kB
  const RegionHandle h = sys.alloc_region("field", n * sizeof(float), /*approx=*/true);
  for (uint64_t i = 0; i < n; ++i)
    sys.store_f32(h, i * 4, 10.0f + 0.001f * static_cast<float>(i % 4096));
  double acc = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (uint64_t i = 0; i < n; ++i) acc += sys.load_f32(h, i * 4);
  EXPECT_GT(acc, 0.0);
  sys.finish();
  return sys.metrics();
}

struct Pinned {
  double amat;
  uint64_t cycles, instructions;
  uint64_t llc_requests, llc_misses;
  uint64_t dram_bytes, dram_bytes_approx, dram_bytes_other, metadata_bytes;
  double energy_core, energy_l1l2, energy_llc, energy_dram, energy_compressor;
  double compression_ratio;
  std::map<std::string, uint64_t> detail;
};

// Captured from the seed model. clang-format off keeps the table readable.
// clang-format off
const std::map<Design, Pinned> kSeed = {
    {Design::kBaseline,
     {18.988525390625,
      1778544, 983040, 12288, 12288, 1048576, 1048576, 0, 0,
      410033.28000000003, 42943.679999999993, 149041.91999999998,
      278636.48000000004, 0.0, 1.0,
      {{"requests", 12288}, {"traffic_approx_bytes", 1048576}}}},
    {Design::kDoppelganger,
     {6.93280029296875,
      612648, 983040, 12288, 6293, 664896, 664896, 0, 0,
      270125.76000000001, 19625.760000000002, 55770.240000000005,
      118500.48000000001, 0.0, 1.0,
      {{"data_evictions", 2197}, {"dedup_hits", 6143}, {"hits", 5995},
       {"requests", 12288}, {"traffic_approx_bytes", 664896},
       {"unshares", 4095}}}},
    {Design::kTruncate,
     {17.741902669270832,
      1655584, 983040, 12288, 12288, 524288, 524288, 0, 0,
      395278.07999999996, 40484.479999999996, 139205.12,
      224397.44000000003, 0.0, 1.0,
      {{"requests", 12288}, {"traffic_approx_bytes", 524288}}}},
    {Design::kZeroAvr,
     {18.988525390625,
      1778544, 983040, 12288, 12288, 1048576, 0, 1048576, 0,
      410033.28000000003, 42943.679999999993, 149041.91999999998,
      278636.48000000004, 7114.1760000000004, 1.0,
      {{"evict_other_wb", 4096}, {"req_miss_other", 12288},
       {"requests", 12288}, {"traffic_other_bytes", 1048576}}}},
    {Design::kAvr,
     {5.966206868489583,
      569056, 983040, 12288, 4608, 311296, 311296, 0, 768,
      264894.71999999997, 18753.919999999998, 52282.880000000005,
      83396.720000000001, 2685.8240000000001, 16.0,
      {{"approx_evictions", 256}, {"approx_requests", 12288},
       {"block_fetch_lines", 512}, {"block_fetches", 512},
       {"cms_block_evictions", 385}, {"compress_attempts", 256},
       {"compress_successes", 256}, {"decompressions", 512},
       {"evict_fetch_recompress", 256}, {"pfe_promotions", 511},
       {"req_hit_dbuf", 7680}, {"req_miss", 4608}, {"requests", 12288},
       {"traffic_approx_bytes", 311296}}}},
};
// clang-format on

class StatsIdentity : public ::testing::TestWithParam<Design> {};

TEST_P(StatsIdentity, MetricsBitIdenticalToSeedCapture) {
  const Design d = GetParam();
  const Pinned& p = kSeed.at(d);
  const RunMetrics m = run_kernel(d);

  EXPECT_EQ(m.cycles, p.cycles);
  EXPECT_EQ(m.instructions, p.instructions);
  EXPECT_EQ(m.llc_requests, p.llc_requests);
  EXPECT_EQ(m.llc_misses, p.llc_misses);
  EXPECT_EQ(m.dram_bytes, p.dram_bytes);
  EXPECT_EQ(m.dram_bytes_approx, p.dram_bytes_approx);
  EXPECT_EQ(m.dram_bytes_other, p.dram_bytes_other);
  EXPECT_EQ(m.metadata_bytes, p.metadata_bytes);

  // Derived doubles: deterministic functions of the integers above and the
  // energy constants, compared bit-exactly.
  EXPECT_DOUBLE_EQ(m.ipc, static_cast<double>(p.instructions) / p.cycles);
  EXPECT_DOUBLE_EQ(m.amat, p.amat);
  EXPECT_DOUBLE_EQ(m.llc_mpki, 1000.0 * static_cast<double>(p.llc_misses) /
                                   p.instructions);
  EXPECT_DOUBLE_EQ(m.energy.core, p.energy_core);
  EXPECT_DOUBLE_EQ(m.energy.l1l2, p.energy_l1l2);
  EXPECT_DOUBLE_EQ(m.energy.llc, p.energy_llc);
  EXPECT_DOUBLE_EQ(m.energy.dram, p.energy_dram);
  EXPECT_DOUBLE_EQ(m.energy.compressor, p.energy_compressor);
  EXPECT_DOUBLE_EQ(m.compression_ratio, p.compression_ratio);

  // The design-specific detail counters must match key set AND values —
  // in particular, counters that were never bumped must stay absent.
  EXPECT_EQ(m.detail, p.detail);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, StatsIdentity,
                         ::testing::Values(Design::kBaseline,
                                           Design::kDoppelganger,
                                           Design::kTruncate, Design::kZeroAvr,
                                           Design::kAvr),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace avr
