// Sweep grid tests: canonical grid order over the workload, design, --t1
// and --methods axes, the list parsers, and the config fingerprints of the
// variant configs. The multi-process sweep itself is covered end to end in
// test_work_stealing.cc.
#include "harness/sweep.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

using sweep::Point;

TEST(SweepGrid, FullGridIsWorkloadMajor) {
  const auto grid = sweep::full_grid({"a", "b"}, {Design::kBaseline, Design::kAvr});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], Point("a", Design::kBaseline));
  EXPECT_EQ(grid[1], Point("a", Design::kAvr));
  EXPECT_EQ(grid[2], Point("b", Design::kBaseline));
  EXPECT_EQ(grid[3], Point("b", Design::kAvr));
}

TEST(SweepGrid, VariantGridIsT1MajorAndDefaultsToPlainGrid) {
  const auto grid =
      sweep::full_variant_grid({4, 6}, {sweep::kMethodsDefault}, {"a", "b"},
                               {Design::kBaseline, Design::kAvr});
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_EQ(grid[0], (sweep::VariantPoint{4, {"a", Design::kBaseline}}));
  EXPECT_EQ(grid[3], (sweep::VariantPoint{4, {"b", Design::kAvr}}));
  EXPECT_EQ(grid[4], (sweep::VariantPoint{6, {"a", Design::kBaseline}}));
  EXPECT_EQ(grid[7], (sweep::VariantPoint{6, {"b", Design::kAvr}}));

  // The default axis {-1} reproduces the historical grid point-for-point.
  const auto plain = sweep::full_grid(workload_names(),
                                      ExperimentRunner::paper_designs());
  const auto variant =
      sweep::full_variant_grid({-1}, {sweep::kMethodsDefault}, workload_names(),
                               ExperimentRunner::paper_designs());
  ASSERT_EQ(variant.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(variant[i].t1, -1);
    EXPECT_EQ(variant[i].point, plain[i]);
  }
}

TEST(SweepGrid, VariantConfigsHaveDistinctFingerprints) {
  // t1 == -1 must be THE default config (so existing caches keep working);
  // each forced threshold is a distinct cache key.
  EXPECT_EQ(config_fingerprint(sweep::variant_config(-1)),
            config_fingerprint(SimConfig{}));
  std::set<uint64_t> fps;
  for (int t1 : {-1, 0, 4, 6, 8, 22})
    fps.insert(config_fingerprint(sweep::variant_config(t1)));
  EXPECT_EQ(fps.size(), 6u);
}

TEST(SweepGrid, ParseT1List) {
  EXPECT_EQ(sweep::parse_t1_list(""), (std::vector<int>{-1}));
  EXPECT_EQ(sweep::parse_t1_list("4"), (std::vector<int>{4}));
  EXPECT_EQ(sweep::parse_t1_list("4,6,8"), (std::vector<int>{4, 6, 8}));
  for (const char* bad : {"x", "-1", "23", "4.5"})
    EXPECT_THROW(sweep::parse_t1_list(bad), std::invalid_argument) << bad;
}

TEST(SweepGrid, ParseMethodsList) {
  using namespace sweep;
  EXPECT_EQ(parse_methods_list(""), (std::vector<int>{kMethodsDefault}));
  EXPECT_EQ(parse_methods_list("1d"), (std::vector<int>{kMethods1D}));
  EXPECT_EQ(parse_methods_list("bdi"), (std::vector<int>{kMethodsBdi}));
  // "avr" is shorthand for the paper's full lossy table (1d+2d).
  EXPECT_EQ(parse_methods_list("avr"), (std::vector<int>{kMethods1D | kMethods2D}));
  EXPECT_EQ(parse_methods_list("avr+bdi"),
            (std::vector<int>{kMethods1D | kMethods2D | kMethodsBdi}));
  EXPECT_EQ(parse_methods_list("1d,avr+bdi"),
            (std::vector<int>{kMethods1D, kMethods1D | kMethods2D | kMethodsBdi}));
  // Empty CSV fields are skipped (same lenience as --t1), but an empty
  // '+'-joined token inside a selection is an error.
  EXPECT_EQ(parse_methods_list("1d,,2d"),
            (std::vector<int>{kMethods1D, kMethods2D}));
  for (const char* bad : {"x", "1d+", "+bdi", "1d++bdi", "3d", "bdi "})
    EXPECT_THROW(parse_methods_list(bad), std::invalid_argument) << bad;
}

TEST(SweepGrid, MethodSetName) {
  using namespace sweep;
  EXPECT_EQ(method_set_name(kMethodsDefault), "default");
  EXPECT_EQ(method_set_name(kMethods1D), "1d");
  EXPECT_EQ(method_set_name(kMethods1D | kMethods2D), "1d+2d");
  EXPECT_EQ(method_set_name(kMethods1D | kMethods2D | kMethodsBdi), "1d+2d+bdi");
}

TEST(SweepGrid, MethodsGridIsMethodsMajorOutsideT1) {
  using namespace sweep;
  const int avr_bdi = kMethods1D | kMethods2D | kMethodsBdi;
  const auto grid = full_variant_grid({4, 6}, {kMethodsDefault, avr_bdi}, {"a"},
                                      {Design::kAvr});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], (VariantPoint{4, {"a", Design::kAvr}, kMethodsDefault}));
  EXPECT_EQ(grid[1], (VariantPoint{6, {"a", Design::kAvr}, kMethodsDefault}));
  EXPECT_EQ(grid[2], (VariantPoint{4, {"a", Design::kAvr}, avr_bdi}));
  EXPECT_EQ(grid[3], (VariantPoint{6, {"a", Design::kAvr}, avr_bdi}));
}

TEST(SweepGrid, MethodsVariantConfigFingerprints) {
  using namespace sweep;
  // Explicitly selecting the paper's method set must reproduce the default
  // fingerprint bit-for-bit: "--methods avr" is not a new cache key.
  EXPECT_EQ(config_fingerprint(variant_config(-1, kMethods1D | kMethods2D)),
            config_fingerprint(SimConfig{}));
  // Every other selection is its own key, and the BDI bit composes with --t1.
  std::set<uint64_t> fps;
  for (int m : {kMethodsDefault, kMethods1D, kMethods2D, kMethods1D | kMethods2D,
                kMethods1D | kMethods2D | kMethodsBdi})
    for (int t1 : {-1, 6}) fps.insert(config_fingerprint(variant_config(t1, m)));
  // 5 masks x 2 thresholds, minus the two default==1d+2d collapses.
  EXPECT_EQ(fps.size(), 8u);

  const SimConfig bdi = variant_config(-1, kMethods1D | kMethods2D | kMethodsBdi);
  EXPECT_TRUE(bdi.avr.enable_1d);
  EXPECT_TRUE(bdi.avr.enable_2d);
  EXPECT_TRUE(bdi.avr.enable_bdi_hybrid);
  const SimConfig only_1d = variant_config(-1, kMethods1D);
  EXPECT_TRUE(only_1d.avr.enable_1d);
  EXPECT_FALSE(only_1d.avr.enable_2d);
  EXPECT_FALSE(only_1d.avr.enable_bdi_hybrid);
}

TEST(SweepGrid, DesignAndWorkloadListParsing) {
  EXPECT_EQ(sweep::design_from_name("AVR"), Design::kAvr);
  EXPECT_EQ(sweep::design_from_name("avr"), Design::kAvr);
  EXPECT_EQ(sweep::design_from_name("ZeroAVR"), Design::kZeroAvr);
  EXPECT_THROW(sweep::design_from_name("nosuch"), std::invalid_argument);

  EXPECT_EQ(sweep::parse_design_list(""), ExperimentRunner::paper_designs());
  const auto d = sweep::parse_design_list("baseline,AVR");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], Design::kBaseline);
  EXPECT_EQ(d[1], Design::kAvr);

  EXPECT_EQ(sweep::parse_workload_list(""), workload_names());
  EXPECT_EQ(sweep::parse_workload_list("kmeans,heat"),
            (std::vector<std::string>{"kmeans", "heat"}));
  EXPECT_THROW(sweep::parse_workload_list("kmeans,nosuch"), std::invalid_argument);
}

}  // namespace
}  // namespace avr
