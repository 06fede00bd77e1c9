#include "harness/paper_report.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "avr/avr_llc.hh"
#include "avr/cmt.hh"
#include "common/config.hh"
#include "workloads/workload.hh"

namespace avr::paper {
namespace {

// Share groups: each member is a percentage of the group's sum (Figs. 14/15
// over the AVR LLC's approximate requests / evictions, Fig. 10's parts).
constexpr std::string_view kRequestKinds[] = {"req_miss", "req_hit_ucl", "req_hit_dbuf",
                                              "req_hit_compressed"};
constexpr std::string_view kEvictionKinds[] = {"evict_recompress", "evict_lazy_wb",
                                               "evict_fetch_recompress",
                                               "evict_uncompressed_wb"};
constexpr std::string_view kEnergyParts[] = {"energy_core", "energy_l1l2", "energy_llc",
                                             "energy_dram", "energy_compressor"};
constexpr std::span<const std::string_view> kShareGroups[] = {
    kRequestKinds, kEvictionKinds, kEnergyParts};
// Normalized to the same workload's baseline, as in Figs. 9-13.
constexpr std::string_view kNormalized[] = {"cycles", "energy", "dram_bytes", "amat",
                                            "llc_mpki"};
constexpr std::string_view kTrafficSplit[] = {"dram_bytes_approx", "dram_bytes_other",
                                              "metadata_bytes"};

const RunMetrics* point(const ResultMap& m, const std::string& w, Design d) {
  const auto it = m.find({w, d});
  return it == m.end() ? nullptr : &it->second.m;
}

/// A share-group member or detail counter (absent counters are zero).
double part(const RunMetrics& m, std::string_view k) {
  const EnergyBreakdown& e = m.energy;
  if (k == "energy_core") return e.core;
  if (k == "energy_l1l2") return e.l1l2;
  if (k == "energy_llc") return e.llc;
  if (k == "energy_dram") return e.dram;
  if (k == "energy_compressor") return e.compressor;
  const auto it = m.detail.find(std::string(k));
  return it == m.detail.end() ? 0.0 : static_cast<double>(it->second);
}

std::optional<double> share(std::string_view metric, const RunMetrics& m) {
  for (const auto group : kShareGroups) {
    if (std::ranges::find(group, metric) == group.end()) continue;
    double total = 0;
    for (std::string_view k : group) total += part(m, k);
    if (total == 0) return std::nullopt;
    return 100.0 * part(m, metric) / total;
  }
  return std::nullopt;
}

/// The metric's value at one point, before any normalization.
std::optional<double> value(std::string_view metric, const RunMetrics& m) {
  if (metric == "cycles") return static_cast<double>(m.cycles);
  if (metric == "energy") return m.energy.total();
  if (metric == "dram_bytes") return static_cast<double>(m.dram_bytes);
  if (metric == "amat") return m.amat;
  if (metric == "llc_mpki") return m.llc_mpki;
  if (metric == "output_error_pct") return 100.0 * m.output_error;
  if (metric == "compression_ratio") return m.compression_ratio;
  if (metric == "footprint_pct") {
    // Compressed bytes of approximable data plus exact bytes of everything
    // else, over the uncompressed total.
    const double approx = static_cast<double>(m.approx_bytes);
    const double exact = static_cast<double>(m.footprint_bytes) - approx;
    const double ratio = m.compression_ratio > 0 ? m.compression_ratio : 1.0;
    return 100.0 * (exact + approx / ratio) / (exact + approx);
  }
  if (metric == "dram_bytes_approx") return static_cast<double>(m.dram_bytes_approx);
  if (metric == "dram_bytes_other") return static_cast<double>(m.dram_bytes_other);
  if (metric == "metadata_bytes") return static_cast<double>(m.metadata_bytes);
  if (metric == "blocks_bdi" || metric == "compress_failures") return part(m, metric);
  return share(metric, m);
}

/// Sec. 4.2 from the implemented geometry: the CMT entry width is the bit
/// length of an all-ones entry's encoding; the LLC adds BPA bits per entry.
std::optional<double> structure(std::string_view metric) {
  const double entry_bits = std::bit_width(BlockMeta::unpack(~0u).pack());
  // One entry per block of a page, plus the approximate bit in the TLB.
  const double page_bits = kBlocksPerPage * entry_bits + 1;
  const double llc_bytes = static_cast<double>(SimConfig{}.llc.size_bytes);
  const double extra_kb =
      llc_bytes / kCachelineBytes * AvrLlc::kBpaExtraBitsPerEntry / 8.0 / 1024.0;
  if (metric == "cmt_entry_bits") return entry_bits;
  if (metric == "cmt_tlb_bits") return page_bits;
  if (metric == "tlb_overhead") return page_bits / (52 + 36);
  if (metric == "llc_extra_bits") return AvrLlc::kBpaExtraBitsPerEntry;
  if (metric == "llc_extra_kb") return extra_kb;
  if (metric == "llc_extra_pct") return 100.0 * extra_kb * 1024.0 / llc_bytes;
  return std::nullopt;
}

const Cell* paper_cell(std::string_view figure, std::string_view metric,
                       std::string_view workload, Design d) {
  for (const Cell& c : kCells)
    if (c.figure == figure && c.metric == metric && c.workload == workload &&
        c.design == d)
      return &c;
  return nullptr;
}

/// `clamp_error` adds Table 3's "<0.05" / ">100" readings of our values.
struct Format {
  int precision;
  const char* suffix;
  bool clamp_error = false;
};

std::string number(double v, const Format& f) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f%s", f.precision, v, f.suffix);
  return buf;
}

struct Key {
  std::string_view metric;
  std::string workload;
  Design design;
  Format format;
};

struct Row {
  std::string label;
  std::vector<Key> keys;  // one per column
};

/// `figure` selects the paper cells to compare against ("" for none).
struct Table {
  std::string_view figure;
  std::string title;
  const char* corner;  // header of the label column
  std::vector<std::string> columns;
  const ResultMap* grid;
  std::vector<Row> rows{};
  bool geomean = false;
  const char* note = nullptr;  // what the paper states only as a range
};

/// One row across the workloads.
Row across(std::string label, std::string_view metric, Design d, Format f) {
  Row r{std::move(label), {}};
  for (const auto& w : workload_names()) r.keys.push_back({metric, w, d, f});
  return r;
}

/// One row across `metrics` at one point.
Row at(std::string label, std::span<const std::string_view> metrics, const std::string& w,
       Design d, Format f) {
  Row r{std::move(label), {}};
  for (std::string_view m : metrics) r.keys.push_back({m, w, d, f});
  return r;
}

void print_table(std::FILE* out, const Table& t) {
  using Line = std::pair<std::string, std::vector<std::string>>;
  std::vector<Line> lines, paper_lines;
  struct Dev {  // per metric: sum of |dev|, cells with both values, paper cells, "~"s
    double sum = 0;
    size_t n = 0, cells = 0, approx = 0;
  };
  std::map<std::string_view, Dev> devs;
  for (const Row& r : t.rows) {
    Line ours{r.label, {}}, paper{"paper " + r.label, {}}, dev{"|dev| " + r.label, {}};
    double logsum = 0;
    bool complete = true;
    for (const Key& k : r.keys) {
      const std::optional<double> v = measure(k.metric, k.workload, k.design, *t.grid);
      const Format& f = k.format;
      complete = complete && v && *v > 0;
      if (!v)
        ours.second.push_back("-");
      else if (f.clamp_error && (*v < 0.05 || *v > 100.0))
        ours.second.push_back(*v < 0.05 ? "<0.05" : ">100");
      else
        ours.second.push_back(number(*v, f));
      if (complete) logsum += std::log(*v);
      const Cell* c = paper_cell(t.figure, k.metric, k.workload, k.design);
      char text[48] = "-";  // the paper's value as the paper states it
      if (c)
        std::snprintf(text, sizeof text, "%s%g%s", c->approx ? "~" : "", c->value,
                      f.suffix);
      paper.second.push_back(text);
      dev.second.push_back(c && v ? number(std::abs(*v - c->value), f) : "-");
      if (!c) continue;
      Dev& d = devs[k.metric];
      ++d.cells;
      d.approx += c->approx;
      if (!v) continue;
      d.sum += std::abs(*v - c->value);
      ++d.n;
    }
    if (t.geomean)
      ours.second.push_back(
          complete ? number(std::exp(logsum / r.keys.size()), {3, ""}) : "-");
    if (paper.second != std::vector<std::string>(r.keys.size(), "-")) {
      paper_lines.push_back(std::move(paper));
      paper_lines.push_back(std::move(dev));
    }
    lines.push_back(std::move(ours));
  }
  lines.insert(lines.end(), paper_lines.begin(), paper_lines.end());

  size_t width = std::max<size_t>(10, std::string_view(t.corner).size());
  for (const Line& l : lines) width = std::max(width, l.first.size() + 1);
  const int w = static_cast<int>(width);
  std::fprintf(out, "\n== %s ==\n%-*s", t.title.c_str(), w, t.corner);
  for (const auto& c : t.columns) std::fprintf(out, " %9s", c.c_str());
  std::fprintf(out, t.geomean ? " %9s\n" : "\n", "geomean");
  for (const Line& l : lines) {
    std::fprintf(out, "%-*s", w, l.first.c_str());
    for (const auto& c : l.second) std::fprintf(out, " %9s", c.c_str());
    std::fprintf(out, "\n");
  }
  for (const auto& [metric, d] : devs)
    std::fprintf(out, "mean |dev| %.*s: %s over %zu of %zu paper cells (%zu ~)\n",
                 static_cast<int>(metric.size()), metric.data(),
                 d.n ? number(d.sum / static_cast<double>(d.n), {5, ""}).c_str() : "-",
                 d.n, d.cells, d.approx);
  if (t.note) std::fprintf(out, "paper note: %s\n", t.note);
}

}  // namespace

std::optional<double> measure(std::string_view metric, const std::string& workload,
                              Design design, const ResultMap& grid) {
  if (std::optional<double> v = structure(metric)) return v;
  const RunMetrics* m = point(grid, workload, design);
  const std::optional<double> v = m ? value(metric, *m) : std::nullopt;
  if (!v || std::ranges::find(kNormalized, metric) == std::end(kNormalized)) return v;
  const RunMetrics* base = point(grid, workload, kBaseline);
  if (!base) return std::nullopt;
  const double b = *value(metric, *base);
  return b > 0 ? *v / b : 0.0;
}

std::vector<ResultKey> print_report(std::FILE* out, const ResultMap& grid,
                                    const ResultMap& bdi) {
  const std::vector<Design> all = ExperimentRunner::paper_designs();
  const std::vector<std::string> workloads = workload_names();
  // The extension's AVR points, normalized to the default-config baselines.
  ResultMap ext = bdi;
  for (const auto& [key, r] : grid)
    if (key.second == kBaseline) ext.emplace(key, r);
  auto normalized = [&](std::string_view figure, std::string title,
                        std::string_view metric, const std::vector<Design>& designs) {
    Table t{figure, title + " (normalized to baseline)", "design", workloads, &grid};
    t.geomean = true;
    for (Design d : designs) t.rows.push_back(across(to_string(d), metric, d, {3, ""}));
    return t;
  };
  const std::vector<Design> compared = {kDoppelganger, kTruncate, kZeroAvr, kAvr};
  std::vector<Row> parts, split, requests, evictions, errors;
  for (const auto& w : workloads) {
    for (Design d : all)
      parts.push_back(at(w + " " + to_string(d), kEnergyParts, w, d, {1, "%"}));
    split.push_back(at(w, kTrafficSplit, w, kAvr, {0, ""}));
    requests.push_back(at(w, kRequestKinds, w, kAvr, {1, "%"}));
    evictions.push_back(at(w, kEvictionKinds, w, kAvr, {1, "%"}));
  }
  for (Design d : {kDoppelganger, kTruncate, kAvr})
    errors.push_back(across(to_string(d), "output_error_pct", d, {1, "%", true}));

  const Table tables[] = {
      normalized("fig9", "Fig. 9: Execution time", "cycles", compared),
      normalized("fig10", "Fig. 10: Total energy", "energy", all),
      {"", "Fig. 10 breakdown (% of each design's total)", "point",
       {"core", "l1+l2", "llc", "dram", "comp"}, &grid, parts},
      normalized("fig11", "Fig. 11: Memory traffic", "dram_bytes", all),
      {"", "Fig. 11 approx / non-approx split (bytes, AVR)", "workload",
       {"approx", "other", "metadata"}, &grid, split},
      {"", "Fig. 11 extension: AVR + BDI-hybrid fallback (--methods avr+bdi)", "design",
       workloads, &ext, {across("AVR+bdi", "dram_bytes", kAvr, {3, ""})}},
      normalized("fig12", "Fig. 12: AMAT", "amat", compared),
      normalized("fig13", "Fig. 13: LLC MPKI", "llc_mpki", compared),
      {"fig14", "Fig. 14: AVR LLC requests on approximate cachelines (%)", "workload",
       {"miss", "uncomp", "dbuf", "compr"}, &grid, requests, false,
       "40-80% of requests hit the DBUF or compressed blocks"},
      {"fig15", "Fig. 15: AVR LLC evictions of approximate cachelines (%)", "workload",
       {"recompr", "lazy", "fetch+rec", "uncomp"}, &grid, evictions, false,
       "kmeans/bscholes ~40% fetch+recompress, rest uncompressed; other apps 45-80% "
       "lazy writebacks"},
      {"table3", "Table 3: Application output error (%)", "design", workloads, &grid,
       errors},
      {"table4", "Table 4: AVR compression ratio and footprint", "metric", workloads,
       &grid,
       {across("compr. ratio", "compression_ratio", kAvr, {1, "x"}),
        across("mem footprint", "footprint_pct", kAvr, {1, "%"})}},
      {"", "Table 4 extension: AVR + BDI-hybrid fallback (--methods avr+bdi)", "metric",
       workloads, &ext,
       {across("compr. ratio", "compression_ratio", kAvr, {1, "x"}),
        across("bdi blocks", "blocks_bdi", kAvr, {0, ""}),
        across("uncompressed", "compress_failures", kAvr, {0, ""})}},
      {"sec4.2",
       "Sec. 4.2: AVR hardware overhead (bits per CMT entry, per page with the TLB "
       "bit and x a 52+36-bit TLB entry; LLC bits per 64 B entry, kB and % of 8 MB)",
       "design",
       {"CMT bits", "page bits", "vs TLB", "LLC bits", "LLC kB", "LLC %"},
       &grid,
       {{"AVR",
         {{"cmt_entry_bits", "", kAvr, {0, ""}},
          {"cmt_tlb_bits", "", kAvr, {0, ""}},
          {"tlb_overhead", "", kAvr, {2, "x"}},
          {"llc_extra_bits", "", kAvr, {0, ""}},
          {"llc_extra_kb", "", kAvr, {0, ""}},
          {"llc_extra_pct", "", kAvr, {1, "%"}}}}}},
  };

  std::fprintf(out,
               "AVR paper-fidelity report: our values beside the paper's\n"
               "(|dev| = |ours - paper|; ~ = the paper gives a reading or a bound; "
               "- = no data)\n");
  for (const Table& t : tables) print_table(out, t);

  std::vector<ResultKey> missing;
  for (const auto& w : workloads)
    for (Design d : all)
      if (!grid.count({w, d})) missing.push_back({w, d});
  if (!missing.empty())
    std::fprintf(out, "\n%zu default-grid point(s) missing from the cache:\n",
                 missing.size());
  for (const auto& [w, d] : missing)
    std::fprintf(out, "missing: %s x %s\n", w.c_str(), to_string(d));
  return missing;
}

}  // namespace avr::paper
