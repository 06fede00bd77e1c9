// Paper-fidelity report: every number the paper's evaluation states (Figs.
// 9-15, Tables 3-4, Sec. 4.2) in one table, and one printer that lays our
// values from a result cache beside them (avr_sweep --report).
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_cache.hh"

namespace avr::paper {

/// One number the paper states. cycles, energy, dram_bytes, amat and llc_mpki
/// are design / baseline; the Sec. 4.2 structure sizes have no workload.
struct Cell {
  std::string_view figure;  // "fig9".."fig15", "table3", "table4", "sec4.2"
  std::string_view metric;
  std::string_view workload;
  Design design;
  double value;
  /// A "~" reading of a bar or a bound ("<0.05" is ~0.05); counted in means.
  bool approx = false;
};

using enum Design;
// clang-format off
inline constexpr Cell kCells[] = {
    // Fig. 9: execution time, AVR row.
    {"fig9", "cycles", "heat", kAvr, 0.57}, {"fig9", "cycles", "lattice", kAvr, 0.49},
    {"fig9", "cycles", "lbm", kAvr, 0.43}, {"fig9", "cycles", "orbit", kAvr, 0.79},
    {"fig9", "cycles", "kmeans", kAvr, 0.85, true},
    {"fig9", "cycles", "bscholes", kAvr, 1.0, true},
    {"fig9", "cycles", "wrf", kAvr, 0.98},
    // Fig. 10: system energy, AVR row (four applications quoted).
    {"fig10", "energy", "heat", kAvr, 0.82}, {"fig10", "energy", "lattice", kAvr, 0.77},
    {"fig10", "energy", "orbit", kAvr, 0.92}, {"fig10", "energy", "kmeans", kAvr, 0.98},
    // Fig. 11: DRAM traffic, AVR row.
    {"fig11", "dram_bytes", "heat", kAvr, 0.29},
    {"fig11", "dram_bytes", "lattice", kAvr, 0.49},
    {"fig11", "dram_bytes", "lbm", kAvr, 0.33},
    {"fig11", "dram_bytes", "orbit", kAvr, 0.52},
    {"fig11", "dram_bytes", "kmeans", kAvr, 0.63},
    {"fig11", "dram_bytes", "bscholes", kAvr, 0.94},
    {"fig11", "dram_bytes", "wrf", kAvr, 0.97},
    // Fig. 12: AMAT, AVR row (no bscholes value quoted).
    {"fig12", "amat", "heat", kAvr, 0.80}, {"fig12", "amat", "lattice", kAvr, 0.57},
    {"fig12", "amat", "lbm", kAvr, 0.70}, {"fig12", "amat", "orbit", kAvr, 0.84},
    {"fig12", "amat", "kmeans", kAvr, 0.77}, {"fig12", "amat", "wrf", kAvr, 1.0, true},
    // Fig. 13: LLC MPKI. ZeroAVR is "~1.0 everywhere"; the lattice comparison.
    {"fig13", "llc_mpki", "heat", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "lattice", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "lbm", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "orbit", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "kmeans", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "bscholes", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "wrf", kZeroAvr, 1.0, true},
    {"fig13", "llc_mpki", "lattice", kDoppelganger, 0.48},
    {"fig13", "llc_mpki", "lattice", kTruncate, 0.53},
    {"fig13", "llc_mpki", "lattice", kAvr, 0.14},
    // Figs. 14/15: % of AVR LLC requests / evictions on approximate lines.
    {"fig14", "req_hit_dbuf", "kmeans", kAvr, 20, true},
    {"fig14", "req_hit_compressed", "kmeans", kAvr, 55, true},
    {"fig15", "evict_fetch_recompress", "kmeans", kAvr, 40, true},
    {"fig15", "evict_fetch_recompress", "bscholes", kAvr, 40, true},
    // Table 3: application output error (%), AVR row; orbit is "<0.05".
    {"table3", "output_error_pct", "heat", kAvr, 0.7},
    {"table3", "output_error_pct", "lattice", kAvr, 0.6},
    {"table3", "output_error_pct", "lbm", kAvr, 0.1},
    {"table3", "output_error_pct", "orbit", kAvr, 0.05, true},
    {"table3", "output_error_pct", "kmeans", kAvr, 1.2},
    {"table3", "output_error_pct", "bscholes", kAvr, 0.5},
    {"table3", "output_error_pct", "wrf", kAvr, 8.9},
    // Table 4: AVR compression ratio and memory footprint (%).
    {"table4", "compression_ratio", "heat", kAvr, 10.5},
    {"table4", "compression_ratio", "lattice", kAvr, 9.6},
    {"table4", "compression_ratio", "lbm", kAvr, 15.6},
    {"table4", "compression_ratio", "orbit", kAvr, 16.0},
    {"table4", "compression_ratio", "kmeans", kAvr, 2.3},
    {"table4", "compression_ratio", "bscholes", kAvr, 4.7},
    {"table4", "compression_ratio", "wrf", kAvr, 3.4},
    {"table4", "footprint_pct", "heat", kAvr, 12.6},
    {"table4", "footprint_pct", "lattice", kAvr, 20.0},
    {"table4", "footprint_pct", "lbm", kAvr, 7.9},
    {"table4", "footprint_pct", "orbit", kAvr, 54.1},
    {"table4", "footprint_pct", "kmeans", kAvr, 58.5},
    {"table4", "footprint_pct", "bscholes", kAvr, 78.6},
    {"table4", "footprint_pct", "wrf", kAvr, 89.6},
    // Sec. 4.2: hardware overheads of the AVR structures.
    {"sec4.2", "cmt_entry_bits", "", kAvr, 23}, {"sec4.2", "cmt_tlb_bits", "", kAvr, 93},
    {"sec4.2", "tlb_overhead", "", kAvr, 2, true},
    {"sec4.2", "llc_extra_bits", "", kAvr, 18},
    {"sec4.2", "llc_extra_kb", "", kAvr, 144}, {"sec4.2", "llc_extra_pct", "", kAvr, 3.2},
};
// clang-format on

using ResultMap = std::map<ResultKey, ExperimentResult>;

/// Our value for `metric` at (`workload`, `design`) in `grid`, normalized to
/// the workload's baseline where the paper normalizes; nullopt when a point
/// it needs is missing or the metric is unknown.
std::optional<double> measure(std::string_view metric, const std::string& workload,
                              Design design, const ResultMap& grid);

/// Prints every table from `grid` (default-config records) and `bdi`
/// (`--methods avr+bdi` records, for the two extensions), each followed by
/// `paper` / `|dev|` rows and the mean |ours - paper| per metric. Missing
/// points print "-"; returns (and lists) the default-grid points not in `grid`.
std::vector<ResultKey> print_report(std::FILE* out, const ResultMap& grid,
                                    const ResultMap& bdi);

}  // namespace avr::paper
