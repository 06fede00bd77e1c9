// RegionHandle API proofs: handles resolve to the registry's regions and
// backing bytes, offsets are bounds-checked in Debug builds, and the
// handle-ported workloads still produce bit-identical golden outputs to the
// pre-port seed (FNV digests captured at commit 8a16036, before the port).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "runtime/system.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.scale_caches(64);
  return cfg;
}

TEST(RegionHandle, ResolvesAllocatedRegions) {
  System sys(Design::kBaseline, small_cfg());
  const uint64_t base = sys.alloc("a", 3 * kBlockBytes, /*approx=*/true);
  const RegionHandle h = sys.region("a");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.sim_base, base);
  EXPECT_EQ(h.bytes, 3 * kBlockBytes);
  EXPECT_EQ(h.addr(100), base + 100);
  EXPECT_FALSE(sys.region("nosuch").valid());

  const RegionHandle h2 = sys.alloc_region("b", kBlockBytes, /*approx=*/false);
  ASSERT_TRUE(h2.valid());
  EXPECT_EQ(h2.sim_base, sys.region("b").sim_base);
  EXPECT_EQ(h2.bytes, kBlockBytes);
}

TEST(RegionHandle, HandleAndAddressAccessAreInterchangeable) {
  System sys(Design::kBaseline, small_cfg());
  const RegionHandle h = sys.alloc_region("buf", kBlockBytes, /*approx=*/true);
  // A store through the handle is visible at the simulated address in the
  // region registry and vice versa: both name the same backing bytes.
  sys.store_f32(h, 8, 3.5f);
  EXPECT_FLOAT_EQ(sys.regions().load<float>(h.addr(8)), 3.5f);
  sys.regions().store(h.addr(16), -2.0f);
  EXPECT_FLOAT_EQ(sys.load_f32(h, 16), -2.0f);
  sys.poke_f32(h, 24, 7.0f);
  EXPECT_FLOAT_EQ(sys.regions().load<float>(h.addr(24)), 7.0f);
  EXPECT_FLOAT_EQ(sys.peek_f32(h, 24), 7.0f);
}

#ifndef NDEBUG
using RegionHandleDeathTest = ::testing::Test;

TEST(RegionHandleDeathTest, OutOfRangeOffsetAssertsInDebug) {
  System sys(Design::kBaseline, small_cfg());
  const RegionHandle h = sys.alloc_region("buf", kBlockBytes, /*approx=*/false);
  EXPECT_DEATH((void)sys.load_f32(h, h.bytes), "out of range");
  EXPECT_DEATH(sys.store_f32(h, h.bytes - 3, 1.0f), "out of range");
  EXPECT_DEATH((void)sys.peek_f32(h, ~uint64_t{0}), "out of range");
  // An unresolved (invalid) handle has bytes == 0: any access must assert,
  // not dereference its null host pointer.
  const RegionHandle bad = sys.region("nosuch");
  EXPECT_DEATH((void)sys.load_f32(bad, 0), "out of range");
}
#endif

/// FNV-1a over the bit patterns of a workload's golden (functional) output.
uint64_t output_digest(const std::string& name) {
  auto wl = make_workload(name);
  System sys(Design::kBaseline, SimConfig{}, 1, /*timing=*/false);
  wl->run(sys);
  uint64_t h = 1469598103934665603ull;
  for (double d : wl->output(sys)) {
    uint64_t v = std::bit_cast<uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xFF)) * 1099511628211ull;
      v >>= 8;
    }
  }
  return h;
}

// Captured from the seed model (commit 8a16036) BEFORE the workloads were
// ported to RegionHandle: the port must not change a single output bit.
const std::map<std::string, uint64_t> kSeedOutputDigests = {
    {"heat", 0x388231034f122353ull},    {"lattice", 0xf33c3598f87d44ffull},
    {"lbm", 0x630d071556338c5bull},     {"orbit", 0x910b34b167ae500full},
    {"kmeans", 0xd967ecba0e5864bbull},  {"bscholes", 0x7f0a40db864922e9ull},
    {"wrf", 0x9050bc8f1b8ead77ull},
};

class GoldenOutputDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenOutputDigest, BitIdenticalToSeedCapture) {
  const std::string name = GetParam();
  EXPECT_EQ(output_digest(name), kSeedOutputDigests.at(name)) << name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenOutputDigest,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace avr
