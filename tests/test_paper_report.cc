// Paper-fidelity report: the paper table is well formed, and the printer
// lays out our value, the paper's value and their deviation per cell, with
// "-" and a listing for points the cache lacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/paper_report.hh"
#include "workloads/workload.hh"

namespace avr {
namespace {

using paper::ResultMap;

/// A full default grid of synthetic points: every quantity the report reads
/// is nonzero, and AVR takes half the baseline's cycles.
ResultMap synthetic_grid() {
  ResultMap grid;
  for (const auto& w : workload_names())
    for (Design d : ExperimentRunner::paper_designs()) {
      ExperimentResult r;
      r.workload = w;
      r.design = d;
      RunMetrics& m = r.m;
      m.cycles = d == Design::kAvr ? 500 : 1000;
      m.amat = 10;
      m.llc_mpki = 2;
      m.dram_bytes = 4096;
      m.energy = {1, 1, 1, 1, 1};
      m.output_error = 0.01;
      m.compression_ratio = 4;
      m.footprint_bytes = 8192;
      m.approx_bytes = 4096;
      for (const char* k : {"req_miss", "req_hit_ucl", "req_hit_dbuf",
                            "req_hit_compressed", "evict_recompress", "evict_lazy_wb",
                            "evict_fetch_recompress", "evict_uncompressed_wb"})
        m.detail[k] = 1;
      grid[{w, d}] = r;
    }
  return grid;
}

std::string report_text(const ResultMap& grid, std::vector<ResultKey>* missing) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  *missing = paper::print_report(f, grid, /*bdi=*/{});
  std::rewind(f);
  std::string text;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Whitespace-split fields of the first line starting with `label` + " "
/// after the section title `title`.
std::vector<std::string> row(const std::string& text, const std::string& title,
                             const std::string& label) {
  const size_t section = text.find(title);
  EXPECT_NE(section, std::string::npos) << title;
  const size_t at = text.find("\n" + label + " ", section);
  EXPECT_NE(at, std::string::npos) << label;
  if (section == std::string::npos || at == std::string::npos) return {};
  std::istringstream line(text.substr(at + 1, text.find('\n', at + 1) - at - 1));
  std::vector<std::string> out;
  for (std::string f; line >> f;) out.push_back(f);
  return out;
}

std::string fixed(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

TEST(PaperReport, EveryPaperCellIsKnownAndUnique) {
  const auto workloads = workload_names();
  const auto designs = ExperimentRunner::paper_designs();
  const std::set<std::string_view> figures = {"fig9",  "fig10",  "fig11",  "fig12",
                                              "fig13", "fig14",  "fig15",  "table3",
                                              "table4", "sec4.2"};
  const ResultMap grid = synthetic_grid();
  std::set<std::tuple<std::string_view, std::string_view, std::string_view, Design>>
      seen;
  for (const paper::Cell& c : paper::kCells) {
    SCOPED_TRACE(std::string(c.figure) + " " + std::string(c.metric) + " " +
                 std::string(c.workload) + " " + to_string(c.design));
    EXPECT_TRUE(figures.count(c.figure));
    if (c.figure == "sec4.2")
      EXPECT_EQ(c.workload, "");
    else
      EXPECT_NE(std::find(workloads.begin(), workloads.end(), c.workload),
                workloads.end());
    EXPECT_NE(std::find(designs.begin(), designs.end(), c.design), designs.end());
    // A known metric is one the report can measure on a complete grid.
    EXPECT_TRUE(
        paper::measure(c.metric, std::string(c.workload), c.design, grid).has_value());
    EXPECT_TRUE(seen.insert({c.figure, c.metric, c.workload, c.design}).second)
        << "duplicate cell";
  }
}

TEST(PaperReport, PrintsOursPaperAndDeviation) {
  std::vector<ResultKey> missing;
  const std::string text = report_text(synthetic_grid(), &missing);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(text.find("missing:"), std::string::npos);

  // AVR cycles are half the baseline's everywhere.
  const auto ours = row(text, "Fig. 9:", "AVR");
  ASSERT_EQ(ours.size(), 9u);  // label, seven workloads, geomean
  for (size_t i = 1; i < ours.size(); ++i) EXPECT_EQ(ours[i], "0.500");
  const auto paper = row(text, "Fig. 9:", "paper AVR");
  ASSERT_EQ(paper.size(), 9u);  // "paper", "AVR", seven workloads
  EXPECT_EQ(paper[2], "0.57");
  EXPECT_EQ(paper[6], "~0.85");
  const auto dev = row(text, "Fig. 9:", "|dev| AVR");
  ASSERT_EQ(dev.size(), 9u);
  EXPECT_EQ(dev[2], fixed(std::abs(0.5 - 0.57), 3));

  // The figure mean by hand, over the paper's AVR row of Fig. 9; the "~"
  // cells (kmeans, bscholes) count like the others.
  const double fig9[] = {0.57, 0.49, 0.43, 0.79, 0.85, 1.0, 0.98};
  double sum = 0;
  for (double p : fig9) sum += std::abs(0.5 - p);
  EXPECT_NE(text.find("mean |dev| cycles: " + fixed(sum / 7, 5) +
                      " over 7 of 7 paper cells (2 ~)"),
            std::string::npos)
      << text;

  // Every paper cell is counted in exactly one table's mean.
  size_t counted = 0;
  for (size_t at = 0; (at = text.find(" paper cells (", at)) != std::string::npos;
       ++at) {
    const size_t of = text.rfind(" of ", at);
    counted += std::stoul(text.substr(of + 4, at - of - 4));
  }
  EXPECT_EQ(counted, std::size(paper::kCells));
}

TEST(PaperReport, MissingPointPrintsDashesAndIsListed) {
  ResultMap grid = synthetic_grid();
  grid.erase({"heat", Design::kAvr});
  std::vector<ResultKey> missing;
  const std::string text = report_text(grid, &missing);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], ResultKey("heat", Design::kAvr));
  EXPECT_NE(text.find("missing: heat x AVR\n"), std::string::npos);

  const auto ours = row(text, "Fig. 9:", "AVR");
  ASSERT_EQ(ours.size(), 9u);
  EXPECT_EQ(ours[1], "-");      // heat
  EXPECT_EQ(ours[2], "0.500");  // lattice
  EXPECT_EQ(ours[8], "-");      // geomean over an incomplete row
  const auto dev = row(text, "Fig. 9:", "|dev| AVR");
  ASSERT_EQ(dev.size(), 9u);
  EXPECT_EQ(dev[2], "-");
  EXPECT_NE(text.find("over 6 of 7 paper cells (2 ~)"), std::string::npos);
  // The same point's cells in a workload-major table.
  EXPECT_EQ(row(text, "Fig. 14:", "heat"),
            (std::vector<std::string>{"heat", "-", "-", "-", "-"}));
  // No --methods avr+bdi records were given: the extension prints "-".
  EXPECT_EQ(row(text, "Table 4 extension:", "bdi blocks"),
            (std::vector<std::string>{"bdi", "blocks", "-", "-", "-", "-", "-", "-",
                                      "-"}));
}

}  // namespace
}  // namespace avr
