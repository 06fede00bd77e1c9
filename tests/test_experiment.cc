// Harness tests: the result cache round-trips and config_for applies the
// per-workload knobs.
#include "harness/experiment.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "harness/result_cache.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

/// Points AVR_SEED_COSTS somewhere for one test, restoring the previous
/// value on destruction (the override could otherwise leak into sibling
/// tests, or clobber a value the developer exported).
class ScopedSeedCosts {
 public:
  explicit ScopedSeedCosts(const std::string& path) {
    if (const char* prev = ::getenv("AVR_SEED_COSTS")) previous_ = prev;
    ::setenv("AVR_SEED_COSTS", path.c_str(), 1);
  }
  ~ScopedSeedCosts() {
    if (previous_)
      ::setenv("AVR_SEED_COSTS", previous_->c_str(), 1);
    else
      ::unsetenv("AVR_SEED_COSTS");
  }

 private:
  std::optional<std::string> previous_;
};

TEST(ExperimentRunner, ConfigForAppliesWorkloadKnobs) {
  ExperimentRunner r({}, false, "");
  auto lbm = make_workload("lbm");
  const SimConfig cfg = r.config_for(*lbm);
  EXPECT_EQ(cfg.llc.size_bytes, lbm->llc_bytes());
  EXPECT_EQ(cfg.avr.t1_mantissa_msbit, lbm->t1_msbit());
  EXPECT_EQ(cfg.l1.size_bytes, SimConfig{}.l1.size_bytes / lbm->cache_scale());
}

TEST(ExperimentRunner, DiskCacheRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "avr_test_cache.csv";
  std::remove(path.c_str());

  RunMetrics written;
  double written_wall = 0;
  {
    ExperimentRunner r({}, false, path);
    EXPECT_FALSE(r.cached("kmeans", Design::kBaseline));
    // Smallest workload x cheapest design to keep this test quick.
    const ExperimentResult& res = r.run("kmeans", Design::kBaseline);
    written = res.m;
    written_wall = res.wall_seconds;
    EXPECT_GT(written.cycles, 0u);
    EXPECT_GT(written_wall, 0.0);
    EXPECT_TRUE(r.cached("kmeans", Design::kBaseline));
  }
  {
    // A fresh runner must load the result instead of re-simulating; verify
    // by checking a few fields match bit-for-bit.
    ExperimentRunner r({}, false, path);
    EXPECT_TRUE(r.cached("kmeans", Design::kBaseline));
    const ExperimentResult& res = r.run("kmeans", Design::kBaseline);
    EXPECT_EQ(res.m.cycles, written.cycles);
    EXPECT_EQ(res.m.instructions, written.instructions);
    EXPECT_EQ(res.m.dram_bytes, written.dram_bytes);
    EXPECT_EQ(res.m.llc_misses, written.llc_misses);
    EXPECT_DOUBLE_EQ(res.m.output_error, written.output_error);
    EXPECT_EQ(res.m.detail.at("requests"), written.detail.at("requests"));
    // The wall-clock measurement is persisted too: it seeds the
    // longest-first scheduler's cost estimate.
    EXPECT_DOUBLE_EQ(res.wall_seconds, written_wall);
    EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kBaseline), written_wall);
  }
  std::remove(path.c_str());
}

TEST(ExperimentRunner, CostEstimateUsesSeedCostFileOnColdCache) {
  const std::string path =
      std::filesystem::temp_directory_path() / "avr_test_seed_costs.csv";
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "kmeans,baseline,7.25\n";
    out << "kmeans,AVR,31.5\n";
    out << "nosuchworkload,baseline,1.0\n";  // tolerated: never queried
    out << "kmeans,nosuchdesign,1.0\n";      // skipped: unknown design
    out << "malformed line without commas\n";
  }
  ScopedSeedCosts env(path);
  ExperimentRunner r({}, false, "");
  // Cold cache: the committed measurement wins over the heuristic.
  EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kBaseline), 7.25);
  EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kAvr), 31.5);
  // Unlisted points still fall back to the heuristic.
  EXPECT_GT(r.cost_estimate("lbm", Design::kAvr), 0.0);
  std::remove(path.c_str());
}

TEST(ExperimentRunner, MeasuredWallSecondsBeatSeedCosts) {
  const std::string seed_path =
      std::filesystem::temp_directory_path() / "avr_test_seed_costs2.csv";
  const std::string cache_path =
      std::filesystem::temp_directory_path() / "avr_test_seed_cache.csv";
  std::remove(cache_path.c_str());
  {
    std::ofstream out(seed_path);
    out << "kmeans,baseline,7.0\n";
  }
  ExperimentResult res;
  res.workload = "kmeans";
  res.design = Design::kBaseline;
  // Records only warm a runner whose base-config fingerprint matches.
  res.config_hash = config_fingerprint(SimConfig{});
  res.wall_seconds = 42.0;
  ASSERT_TRUE(append_result_line(cache_path, res));

  ScopedSeedCosts env(seed_path);
  ExperimentRunner r({}, false, cache_path);
  // A persisted measurement from a real run outranks the committed seed.
  EXPECT_DOUBLE_EQ(r.cost_estimate("kmeans", Design::kBaseline), 42.0);
  std::remove(seed_path.c_str());
  std::remove(cache_path.c_str());
}

TEST(ExperimentRunner, CostEstimateHeuristicOrdersDesignsByWork) {
  // With nothing cached the estimate falls back to the static heuristic:
  // compression designs cost more than the baseline on the same workload,
  // and a bigger-footprint workload costs more than a smaller one.
  // (Point AVR_SEED_COSTS at a nonexistent file in case the build tree ever
  // gains a data/seed_costs.csv relative to the test's working directory.)
  ScopedSeedCosts env("/nonexistent/avr_seed_costs.csv");
  ExperimentRunner r({}, false, "");
  EXPECT_GT(r.cost_estimate("kmeans", Design::kAvr),
            r.cost_estimate("kmeans", Design::kBaseline));
  auto big = make_workload("lbm");
  auto small = make_workload("kmeans");
  if (big->llc_bytes() > small->llc_bytes()) {
    EXPECT_GT(r.cost_estimate("lbm", Design::kAvr),
              r.cost_estimate("kmeans", Design::kAvr));
  }
}

TEST(ExperimentRunner, RunPointsHandlesArbitrarySlicesAndDuplicates) {
  ExperimentRunner r({}, false, "");
  // A non-cross-product list with a duplicate — an arbitrary point list.
  const std::vector<std::pair<std::string, Design>> points = {
      {"kmeans", Design::kBaseline},
      {"bscholes", Design::kTruncate},
      {"kmeans", Design::kBaseline},
  };
  const auto got = r.run_points(points, 2);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].workload, "kmeans");
  EXPECT_EQ(got[1].workload, "bscholes");
  EXPECT_EQ(got[1].design, Design::kTruncate);
  EXPECT_EQ(got[2].m.cycles, got[0].m.cycles);
}

TEST(ExperimentRunner, CacheHitsCountOnlyPointsServedFromCache) {
  const std::string path =
      std::filesystem::temp_directory_path() / "avr_test_cache_hits.csv";
  std::remove(path.c_str());
  const std::vector<std::pair<std::string, Design>> points = {
      {"kmeans", Design::kBaseline}, {"bscholes", Design::kBaseline}};
  {
    ExperimentRunner cold({}, false, path);
    cold.run_points(points, 1);
    const prof::Totals t = cold.profile_totals();
    EXPECT_EQ(t.count(prof::Counter::kPointsSimulated), points.size());
    EXPECT_EQ(t.count(prof::Counter::kCacheHits), 0u);
  }
  ExperimentRunner warm({}, false, path);
  warm.run_points(points, 1);
  const prof::Totals t = warm.profile_totals();
  EXPECT_EQ(t.count(prof::Counter::kPointsSimulated), 0u);
  EXPECT_EQ(t.count(prof::Counter::kCacheHits), points.size());
  std::remove(path.c_str());
}

TEST(ExperimentRunner, PaperDesignsList) {
  const auto d = ExperimentRunner::paper_designs();
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d.front(), Design::kBaseline);
  EXPECT_EQ(d.back(), Design::kAvr);
}

}  // namespace
}  // namespace avr
