// Parallel sweep tests: run_points over a full grid must produce
// bit-identical results to serial run() calls, stay deterministic across
// repeated sweeps, and keep the result/golden caches race-free under
// concurrent points.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

const std::vector<std::string> kWorkloads = {"bscholes", "orbit", "kmeans"};
const std::vector<Design> kDesigns = {Design::kBaseline, Design::kTruncate,
                                      Design::kAvr};

void expect_same(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.m.cycles, b.m.cycles);
  EXPECT_EQ(a.m.instructions, b.m.instructions);
  EXPECT_EQ(a.m.llc_requests, b.m.llc_requests);
  EXPECT_EQ(a.m.llc_misses, b.m.llc_misses);
  EXPECT_EQ(a.m.dram_bytes, b.m.dram_bytes);
  EXPECT_EQ(a.m.dram_bytes_approx, b.m.dram_bytes_approx);
  EXPECT_EQ(a.m.metadata_bytes, b.m.metadata_bytes);
  EXPECT_EQ(a.m.footprint_bytes, b.m.footprint_bytes);
  EXPECT_EQ(a.m.approx_bytes, b.m.approx_bytes);
  EXPECT_DOUBLE_EQ(a.m.ipc, b.m.ipc);
  EXPECT_DOUBLE_EQ(a.m.amat, b.m.amat);
  EXPECT_DOUBLE_EQ(a.m.llc_mpki, b.m.llc_mpki);
  EXPECT_DOUBLE_EQ(a.m.compression_ratio, b.m.compression_ratio);
  EXPECT_DOUBLE_EQ(a.m.output_error, b.m.output_error);
  EXPECT_DOUBLE_EQ(a.m.energy.total(), b.m.energy.total());
  EXPECT_EQ(a.m.detail, b.m.detail);
}

TEST(ExperimentRunnerParallel, FullGridMatchesSerialRun) {
  ExperimentRunner serial({}, false, "");
  ExperimentRunner parallel({}, false, "");

  std::vector<ExperimentResult> want;
  for (const auto& w : kWorkloads)
    for (Design d : kDesigns) want.push_back(serial.run(w, d));

  const auto got = parallel.run_points(sweep::full_grid(kWorkloads, kDesigns), 4);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) expect_same(got[i], want[i]);
}

TEST(ExperimentRunnerParallel, SingleThreadPoolMatchesSerial) {
  ExperimentRunner serial({}, false, "");
  ExperimentRunner pool1({}, false, "");
  const auto got = pool1.run_points(sweep::full_grid({"bscholes"}, kDesigns), 1);
  ASSERT_EQ(got.size(), kDesigns.size());
  for (size_t i = 0; i < kDesigns.size(); ++i)
    expect_same(got[i], serial.run("bscholes", kDesigns[i]));
}

TEST(ExperimentRunnerParallel, RepeatedSweepIsCachedAndIdentical) {
  ExperimentRunner r({}, false, "");
  const auto first = r.run_points(sweep::full_grid(kWorkloads, kDesigns), 4);
  // Second sweep must be pure cache lookup with identical values.
  const auto second = r.run_points(sweep::full_grid(kWorkloads, kDesigns), 4);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) expect_same(first[i], second[i]);
}

TEST(ExperimentRunnerParallel, ResultsInWorkloadMajorOrder) {
  ExperimentRunner r({}, false, "");
  const auto got = r.run_points(
      sweep::full_grid({"bscholes", "wrf"}, {Design::kBaseline, Design::kAvr}), 2);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].workload, "bscholes");
  EXPECT_EQ(got[0].design, Design::kBaseline);
  EXPECT_EQ(got[1].workload, "bscholes");
  EXPECT_EQ(got[1].design, Design::kAvr);
  EXPECT_EQ(got[2].workload, "wrf");
  EXPECT_EQ(got[2].design, Design::kBaseline);
  EXPECT_EQ(got[3].workload, "wrf");
  EXPECT_EQ(got[3].design, Design::kAvr);
}

TEST(ExperimentRunnerParallel, ConcurrentOverlappingRunsAreRaceFree) {
  // Many threads hammer run() on overlapping points (same workloads, same
  // designs) — the caches must stay consistent and every thread must observe
  // the same values. Run under TSan/ASan via -DAVR_SANITIZE=ON for the full
  // story; value equality catches torn results even without it.
  ExperimentRunner r({}, false, "");
  constexpr int kThreads = 8;
  std::vector<std::vector<ExperimentResult>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const auto& w : {std::string("bscholes"), std::string("wrf")})
        for (Design d : {Design::kBaseline, Design::kAvr})
          seen[t].push_back(r.run(w, d));
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), seen[0].size());
    for (size_t i = 0; i < seen[0].size(); ++i) expect_same(seen[t][i], seen[0][i]);
  }
}

TEST(ExperimentRunnerParallel, UnknownWorkloadPropagatesException) {
  ExperimentRunner r({}, false, "");
  EXPECT_THROW(
      r.run_points(sweep::full_grid({"bscholes", "nosuch"}, {Design::kBaseline}), 4),
      std::invalid_argument);
}

}  // namespace
}  // namespace avr
