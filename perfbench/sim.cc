// perfbench_sim: the C++ half of the benchmark. perfbench/run.py builds
// it and calls one subcommand per step; each prints one JSON object on
// stdout and exits 0 (a point that fails is reported in the JSON, not by the
// exit code).
//
//   info                                SIMD dispatch level, CPU model, nproc
//   gen-traces --seed S --dir D --patterns a,b
//                                       the claim-churn traces, from S
//   setup  GRID --cache C --reps K --seconds S
//                                       the grid's set-up work, at least K
//                                       times and for at least S seconds
//   grid   GRID --cache C               untraced, serial, cold-cache run
//   collect GRID --cache C              the grid's points as found in C
//   traced GRID --cache C [--claim --owner O]
//                                       per-layer traced run (see README.md)
//
// GRID is --workloads a,b --designs x,y --t1 n,m --methods p,q, parsed by
// the same sweep:: helpers avr_sweep uses, with the same defaults.
#include <cpuid.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "avr/avr_system.hh"
#include "baselines/baseline_system.hh"
#include "baselines/doppelganger_system.hh"
#include "baselines/truncate_system.hh"
#include "common/profile.hh"
#include "common/simd.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "trace/trace_gen.hh"
#include "workloads/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace avr;
using Clock = std::chrono::steady_clock;
using Variant = std::pair<int, int>;  // (t1, methods)

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---- JSON output -----------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit, so the Python side compares simulated doubles bit-exactly.
std::string jnum(double v) {
  if (!std::isfinite(v)) return jstr(std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string jnum(uint64_t v) { return std::to_string(v); }

/// Appends "key": value pairs to a JSON object under construction.
class JsonObject {
 public:
  JsonObject& raw(const std::string& k, const std::string& v) {
    s_ += (s_.size() > 1 ? "," : "") + jstr(k) + ":" + v;
    return *this;
  }
  JsonObject& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JsonObject& num(const std::string& k, uint64_t v) { return raw(k, jnum(v)); }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

std::string join(const std::vector<std::string>& items, char open, char close) {
  std::string s(1, open);
  for (size_t i = 0; i < items.size(); ++i) s += (i ? "," : "") + items[i];
  return s + close;
}

/// Every simulated field of a point — what the pinned reference holds.
/// wall_seconds is not a simulated field and is left out.
std::string metrics_json(const RunMetrics& m) {
  JsonObject detail;
  for (const auto& [k, v] : m.detail) detail.num(k, v);
  return JsonObject()
      .num("cycles", m.cycles)
      .num("instructions", m.instructions)
      .num("ipc", m.ipc)
      .num("amat", m.amat)
      .num("llc_requests", m.llc_requests)
      .num("llc_misses", m.llc_misses)
      .num("llc_mpki", m.llc_mpki)
      .num("dram_bytes", m.dram_bytes)
      .num("dram_bytes_approx", m.dram_bytes_approx)
      .num("dram_bytes_other", m.dram_bytes_other)
      .num("metadata_bytes", m.metadata_bytes)
      .num("energy_core", m.energy.core)
      .num("energy_l1l2", m.energy.l1l2)
      .num("energy_llc", m.energy.llc)
      .num("energy_dram", m.energy.dram)
      .num("energy_compressor", m.energy.compressor)
      .num("compression_ratio", m.compression_ratio)
      .num("footprint_bytes", m.footprint_bytes)
      .num("approx_bytes", m.approx_bytes)
      .num("output_error", m.output_error)
      .raw("detail", detail.done())
      .done();
}

// ---- the grid --------------------------------------------------------------

struct Options {
  std::string cmd;
  std::vector<std::string> workloads = workload_names();
  std::vector<Design> designs = ExperimentRunner::paper_designs();
  std::vector<int> t1{-1};
  std::vector<int> methods{sweep::kMethodsDefault};
  std::string cache;
  std::string dir;
  std::vector<std::string> patterns;
  std::string owner = "traced";
  uint64_t seed = 0;
  int reps = 1;
  double seconds = 0;
  bool claim = false;
};

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  size_t b = 0;
  for (size_t e; (e = csv.find(',', b)) != std::string::npos; b = e + 1)
    out.push_back(csv.substr(b, e - b));
  out.push_back(csv.substr(b));
  return out;
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  Options o;
  o.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--claim") {
      o.claim = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workloads") o.workloads = sweep::parse_workload_list(v);
    else if (a == "--designs") o.designs = sweep::parse_design_list(v);
    else if (a == "--t1") o.t1 = sweep::parse_t1_list(v);
    else if (a == "--methods") o.methods = sweep::parse_methods_list(v);
    else if (a == "--cache") o.cache = v;
    else if (a == "--dir") o.dir = v;
    else if (a == "--patterns") o.patterns = split(v);
    else if (a == "--owner") o.owner = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--reps") o.reps = std::stoi(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else throw std::invalid_argument("unknown flag: " + a);
  }
  return o;
}

std::vector<sweep::VariantPoint> grid_points(const Options& o) {
  return sweep::full_variant_grid(o.t1, o.methods, o.workloads, o.designs);
}

/// Stable point name: the key the pinned references are stored under.
std::string point_key(const sweep::VariantPoint& vp) {
  return vp.point.first + "|" + to_string(vp.point.second) +
         "|t1=" + std::to_string(vp.t1) +
         "|methods=" + sweep::method_set_name(vp.methods);
}

std::map<Variant, std::vector<sweep::Point>> by_variant(
    const std::vector<sweep::VariantPoint>& grid) {
  std::map<Variant, std::vector<sweep::Point>> groups;
  for (const auto& vp : grid) groups[{vp.t1, vp.methods}].push_back(vp.point);
  return groups;
}

std::string key_of(const Variant& v, const sweep::Point& p) {
  return point_key({v.first, p, v.second});
}

/// One runner per (t1, methods) variant, as avr_sweep builds them.
std::map<Variant, std::unique_ptr<ExperimentRunner>> make_runners(
    const std::vector<sweep::VariantPoint>& grid, const std::string& cache) {
  std::map<Variant, std::unique_ptr<ExperimentRunner>> runners;
  for (const auto& [v, pts] : by_variant(grid))
    runners[v] = std::make_unique<ExperimentRunner>(
        sweep::variant_config(v.first, v.second), /*verbose=*/false, cache);
  return runners;
}

std::string failure_json(const std::string& key, const std::string& why) {
  return JsonObject().str("key", key).str("why", why).done();
}

// ---- info, gen-traces ------------------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.substr(0, s.find('\0'));
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

int cmd_info() {
  std::printf("%s\n", JsonObject()
                          .str("simd", simd_level_name(simd_level()))
                          .str("cpu_model", cpu_model())
                          .num("nproc", uint64_t{std::thread::hardware_concurrency()})
                          .done()
                          .c_str());
  return 0;
}

/// The claim-churn inputs: <dir>/<pattern>.trace per synthetic pattern,
/// each a pure function of the seed. Short traces keep every point cheap,
/// so the claim protocol's cache I/O is a large share of each worker's
/// time.
int cmd_gen_traces(const Options& o) {
  const auto& patterns = o.patterns;
  std::vector<std::string> files;
  for (uint64_t i = 0; i < patterns.size(); ++i) {
    trace::GenParams p;
    p.records = 1 << 13;
    p.regions = 4;
    p.region_bytes = 1 << 16;
    p.seed = o.seed * 16 + i + 1;
    const std::string path = o.dir + "/" + patterns[i] + ".trace";
    std::string error;
    if (!trace::write_trace_file(path, trace::make_synthetic_trace(patterns[i], p),
                                 &error))
      throw std::runtime_error("cannot write " + path + ": " + error);
    files.push_back(jstr(path));
  }
  std::printf("%s\n", JsonObject().raw("traces", join(files, '[', ']')).done().c_str());
  return 0;
}

// ---- setup, grid, collect --------------------------------------------------

/// The work a sweep does before it simulates: runner construction (cache
/// and seed-cost load), make_workload and System construction for every
/// point, and one golden functional run per (variant, workload) — the
/// granularity at which ExperimentRunner caches golden outputs.
int cmd_setup(const Options& o) {
  const auto grid = grid_points(o);
  std::vector<std::string> reps;
  size_t sink = 0;
  const uint64_t start = now_ns();
  for (int rep = 0;
       rep < o.reps || static_cast<double>(now_ns() - start) * 1e-9 < o.seconds;
       ++rep) {
    const uint64_t t0 = now_ns();
    auto runners = make_runners(grid, o.cache);
    for (const auto& [v, pts] : by_variant(grid)) {
      ExperimentRunner& r = *runners.at(v);
      std::set<std::string> golden_done;
      for (const auto& [w, d] : pts) {
        auto wl = make_workload(w);
        System sys(d, r.config_for(*wl));
        sink += sys.regions().total_bytes();
        if (!golden_done.insert(w).second) continue;
        auto gw = make_workload(w);
        System gs(Design::kBaseline, r.config_for(*gw), 1, /*timing=*/false);
        gw->run(gs);
        sink += gw->output(gs).size();
      }
    }
    reps.push_back(jnum(static_cast<double>(now_ns() - t0) * 1e-9));
  }
  std::printf("%s\n", JsonObject()
                          .raw("setup_s", join(reps, '[', ']'))
                          .num("sink", uint64_t{sink})
                          .done()
                          .c_str());
  return 0;
}

/// The points of `grid` as persisted in `cache`; absent points become
/// failures ("missing from the cache").
void collect_from_cache(const std::vector<sweep::VariantPoint>& grid,
                        const std::string& cache, std::vector<std::string>* points,
                        std::vector<std::string>* failures) {
  for (const auto& [v, pts] : by_variant(grid)) {
    const auto disk = load_result_cache(
        cache, config_fingerprint(sweep::variant_config(v.first, v.second)));
    for (const auto& p : pts) {
      auto it = disk.find(p);
      if (it == disk.end())
        failures->push_back(failure_json(key_of(v, p), "missing from the cache"));
      else
        points->push_back(jstr(key_of(v, p)) + ":" + metrics_json(it->second.m));
    }
  }
}

/// Untraced run of the whole grid from a cold cache: serial, one thread,
/// through ExperimentRunner::run_points — the path avr_sweep takes. Points
/// are counted from the results this program gets back, never from the
/// profiler's cache_hits counter (run_points calls run() a second time to
/// collect results, so that counter reads one hit per simulated point).
int cmd_grid(const Options& o) {
  const auto grid = grid_points(o);
  std::vector<std::string> points, failures;
  const uint64_t t0 = now_ns();
  auto runners = make_runners(grid, o.cache);
  for (const auto& [v, pts] : by_variant(grid)) {
    ExperimentRunner& r = *runners.at(v);
    try {
      r.run_points(pts, 1);
    } catch (const std::exception&) {
      // Name the points that throw: the ones that did not are cached in
      // memory now, so these calls only re-run the failures.
      for (const auto& p : pts) {
        try {
          r.run(p.first, p.second);
        } catch (const std::exception& e) {
          failures.push_back(failure_json(key_of(v, p), e.what()));
        }
      }
    }
  }
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!o.cache.empty()) {
    collect_from_cache(grid, o.cache, &points, &failures);
  } else {
    for (const auto& [v, pts] : by_variant(grid))
      for (const auto& p : pts)
        if (runners.at(v)->cached(p.first, p.second))
          points.push_back(jstr(key_of(v, p)) + ":" +
                           metrics_json(runners.at(v)->run(p.first, p.second).m));
  }
  std::printf("%s\n", JsonObject()
                          .num("wall_s", wall)
                          .raw("points", join(points, '{', '}'))
                          .raw("failures", join(failures, '[', ']'))
                          .done()
                          .c_str());
  return 0;
}

int cmd_collect(const Options& o) {
  std::vector<std::string> points, failures;
  collect_from_cache(grid_points(o), o.cache, &points, &failures);
  std::printf("%s\n", JsonObject()
                          .raw("points", join(points, '{', '}'))
                          .raw("failures", join(failures, '[', ']'))
                          .done()
                          .c_str());
  return 0;
}

// ---- traced run ------------------------------------------------------------

/// Deterministic pseudo-random 1-in-2^k sample (xorshift32): unlike a
/// plain every-2^k-th counter it cannot lock onto the period of a loop's
/// access pattern.
class Sampler {
 public:
  explicit Sampler(unsigned k) : mask_((1u << k) - 1) {}
  bool take() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 17;
    x_ ^= x_ << 5;
    return (x_ & mask_) == 0;
  }

 private:
  uint32_t mask_;
  uint32_t x_ = 0x9E3779B9u;
};

/// One sampled layer entry point: exact call count, timed samples.
struct Span {
  uint64_t calls = 0;
  uint64_t samples = 0;
  uint64_t sample_ns = 0;

  /// Mean sampled duration, less the cost of reading the clock, times the
  /// exact call count.
  double estimate_s(double clock_ns) const {
    if (samples == 0) return 0;
    const double per = static_cast<double>(sample_ns) / static_cast<double>(samples);
    return std::max(0.0, per - clock_ns) * static_cast<double>(calls) * 1e-9;
  }
};

/// Everything the traced run accumulates for one LLC design.
struct LlcLayer {
  Span request;
  Span writeback;        // from the core's accesses (L2 evictions)
  Span drain_writeback;  // from MemoryHierarchy::drain
  uint64_t drain_ns = 0;
  uint64_t misses = 0;
  uint64_t compress_ns = 0;  // prof kCompress, inside the spans above
  uint64_t compress_attempts = 0;
  uint64_t compress_successes = 0;
  uint64_t bdi_blocks = 0;
};

/// Timing decorator over a design's LlcSystem: counts every call, times a
/// sample of requests and writebacks, and times every drain.
class TimedLlc final : public LlcSystem {
 public:
  TimedLlc(LlcSystem& inner, LlcLayer& layer) : inner_(inner), layer_(layer) {}

  static MemoryHierarchy::LlcReply dispatch(LlcSystem& llc, uint64_t now,
                                            uint64_t line, bool write) {
    auto& t = static_cast<TimedLlc&>(llc);
    const uint64_t latency = t.request(now, line, write);
    return {latency, t.last_was_miss()};
  }

  uint64_t request(uint64_t now, uint64_t line, bool write) override {
    ++layer_.request.calls;
    uint64_t latency;
    if (sampler_.take()) {
      const uint64_t t0 = now_ns();
      latency = inner_.request(now, line, write);
      layer_.request.sample_ns += now_ns() - t0;
      ++layer_.request.samples;
    } else {
      latency = inner_.request(now, line, write);
    }
    if (inner_.last_was_miss()) ++layer_.misses;
    return latency;
  }
  void writeback(uint64_t now, uint64_t line) override {
    Span& s = draining_ ? layer_.drain_writeback : layer_.writeback;
    ++s.calls;
    if (sampler_.take()) {
      const uint64_t t0 = now_ns();
      inner_.writeback(now, line);
      s.sample_ns += now_ns() - t0;
      ++s.samples;
    } else {
      inner_.writeback(now, line);
    }
  }
  void drain(uint64_t now) override {
    const uint64_t t0 = now_ns();
    inner_.drain(now);
    layer_.drain_ns += now_ns() - t0;
  }
  bool last_was_miss() const override { return inner_.last_was_miss(); }
  StatGroup stats() const override { return inner_.stats(); }
  Dram& dram() override { return inner_.dram(); }
  const Dram& dram() const override { return inner_.dram(); }

  void set_draining() { draining_ = true; }

 private:
  static constexpr unsigned kSampleLog2 = 4;
  LlcSystem& inner_;
  LlcLayer& layer_;
  Sampler sampler_{kSampleLog2};
  bool draining_ = false;
};

std::unique_ptr<LlcSystem> make_llc(Design d, const SimConfig& cfg,
                                    RegionRegistry& regions) {
  switch (d) {
    case Design::kBaseline: return std::make_unique<BaselineSystem>(cfg, regions);
    case Design::kTruncate: return std::make_unique<TruncateSystem>(cfg, regions);
    case Design::kDoppelganger:
      return std::make_unique<DoppelgangerSystem>(cfg, regions);
    case Design::kZeroAvr:
    case Design::kAvr: return std::make_unique<AvrSystem>(cfg, regions);
  }
  throw std::invalid_argument("unknown design");
}

/// The per-layer totals of one traced process.
struct Layers {
  uint64_t make_ns = 0;        // make_workload of built-in kernels
  uint64_t trace_load_ns = 0;  // make_workload("trace:...")
  uint64_t trace_records = 0;
  uint64_t ctor_ns = 0;        // System + the benchmark's stack
  uint64_t golden_ns = 0;      // golden functional Workload::run + output
  uint64_t golden_accesses = 0;
  uint64_t workload_ns = 0;    // traced Workload::run + output, hook included
  uint64_t workload_self_ns = 0;  // the golden run's time for each traced point
  uint64_t core_calls = 0;     // IntervalCore::access
  uint64_t hier_drain_ns = 0;  // MemoryHierarchy::drain, LLC children included
  uint64_t l1_hits = 0, l1_accesses = 0, l2_hits = 0, l2_accesses = 0;
  uint64_t dram_bytes = 0, dram_activations = 0;
  std::map<Design, LlcLayer> llc;
  uint64_t load_ns = 0;
  uint64_t append_ns = 0;
  uint64_t claim_ns = 0, claim_attempts = 0, claim_wins = 0, claim_errors = 0;
  uint64_t traced_point_ns = 0;    // traced points, set-up to drain
  uint64_t untraced_point_ns = 0;  // the same points, untraced
};

/// Cost of one empty timed span: subtracted from every sample.
double clock_overhead_ns() {
  std::vector<uint64_t> d(2001);
  for (auto& x : d) {
    const uint64_t t0 = now_ns();
    x = now_ns() - t0;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return static_cast<double>(d[d.size() / 2]);
}

class TracedRun {
 public:
  explicit TracedRun(const Options& o) : o_(o), grid_(grid_points(o)) {
    for (const auto& [v, pts] : by_variant(grid_))
      runners_[v] = std::make_unique<ExperimentRunner>(
          sweep::variant_config(v.first, v.second), /*verbose=*/false, "");
  }

  int run() {
    const uint64_t t0 = now_ns();
    for (const auto& [v, r] : runners_) {
      const uint64_t t = now_ns();
      load_result_cache(o_.cache, r->config_hash());
      L_.load_ns += now_ns() - t;
    }
    if (o_.claim) run_claims();
    else
      for (const auto& vp : grid_) run_point(vp);
    const uint64_t wall_ns = now_ns() - t0 - L_.untraced_point_ns;
    print(wall_ns);
    return 0;
  }

 private:
  /// Claim loop in the shape of sweep::run_work_stealing, with the claim,
  /// load and append calls timed by the benchmark.
  void run_claims() {
    std::vector<char> done(grid_.size(), 0);
    size_t open = grid_.size();
    while (open > 0) {
      bool progressed = false;
      for (size_t i = 0; i < grid_.size(); ++i) {
        if (done[i]) continue;
        const auto& vp = grid_[i];
        ClaimRecord want;
        want.workload = vp.point.first;
        want.design = vp.point.second;
        want.config_hash = runners_.at({vp.t1, vp.methods})->config_hash();
        want.owner = o_.owner;
        want.lease_seconds = 600;
        const uint64_t t = now_ns();
        const ClaimOutcome got =
            try_claim_point(o_.cache, want, static_cast<uint64_t>(std::time(nullptr)));
        L_.claim_ns += now_ns() - t;
        ++L_.claim_attempts;
        if (got == ClaimOutcome::kBusy) continue;
        if (got == ClaimOutcome::kError) ++L_.claim_errors;
        if (got == ClaimOutcome::kClaimed || got == ClaimOutcome::kReclaimed) ++L_.claim_wins;
        if (got != ClaimOutcome::kDone) run_point(vp);
        done[i] = 1;
        --open;
        progressed = true;
      }
      if (!progressed && open > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Golden output of a workload, and the time its functional run took
  /// with an access hook attached: the workload's own share of a traced
  /// run, since the traced run differs only in what its hook calls.
  struct Golden {
    std::vector<double> out;
    uint64_t ns = 0;
  };

  const Golden& golden(const Variant& v, const std::string& w) {
    auto it = golden_.find({v, w});
    if (it != golden_.end()) return it->second;
    auto wl = make_timed(w);
    const uint64_t t = now_ns();
    System sys(Design::kBaseline, runners_.at(v)->config_for(*wl), 1, false);
    uint64_t n = 0;
    sys.set_access_hook([&n](uint64_t, bool) { ++n; });
    wl->run(sys);
    Golden g{wl->output(sys), now_ns() - t};
    L_.golden_ns += g.ns;
    L_.golden_accesses += n;
    return golden_[{v, w}] = std::move(g);
  }

  std::unique_ptr<Workload> make_timed(const std::string& w) {
    const uint64_t t = now_ns();
    auto wl = make_workload(w);
    const uint64_t dt = now_ns() - t;
    if (is_trace_workload_name(w)) {
      L_.trace_load_ns += dt;
      trace::TraceInfo info;
      std::string error;
      if (trace::probe_trace_file(w.substr(6), &info, &error))
        L_.trace_records += info.record_count;
    } else {
      L_.make_ns += dt;
    }
    return wl;
  }

  void run_point(const sweep::VariantPoint& vp) {
    const Variant v{vp.t1, vp.methods};
    const auto& [w, d] = vp.point;
    const std::string key = point_key(vp);
    try {
      const Golden& gold = golden(v, w);
      ExperimentRunner& r = *runners_.at(v);

      // Untraced: the point exactly as ExperimentRunner::run simulates it.
      uint64_t t = now_ns();
      RunMetrics m;
      {
        auto wl = make_workload(w);
        System sys(d, r.config_for(*wl));
        wl->run(sys);
        const auto out = wl->output(sys);
        sys.finish();
        m = sys.metrics();
        m.output_error = mean_relative_error(out, gold.out);
      }
      const uint64_t untraced = now_ns() - t;
      L_.untraced_point_ns += untraced;
      points_.push_back(jstr(key) + ":" + metrics_json(m));

      ExperimentResult res;
      res.workload = w;
      res.design = d;
      res.config_hash = r.config_hash();
      res.m = m;
      res.wall_seconds = static_cast<double>(untraced) * 1e-9;
      t = now_ns();
      const bool appended = append_result_line(o_.cache, res);
      L_.append_ns += now_ns() - t;
      if (!appended) failures_.push_back(failure_json(key, "append failed"));

      selfcheck(key, d, m, traced_point(w, d, r));
      L_.workload_self_ns += gold.ns;
    } catch (const std::exception& e) {
      failures_.push_back(failure_json(key, e.what()));
    }
  }

  struct TracedCounts {
    uint64_t llc_requests, llc_misses, dram_bytes;
  };

  /// The point on a functional System whose access hook drives the
  /// benchmark's own timing stack: design LLC -> TimedLlc ->
  /// MemoryHierarchy -> IntervalCore.
  TracedCounts traced_point(const std::string& w, Design d, ExperimentRunner& r) {
    const uint64_t start = now_ns();
    auto wl = make_timed(w);
    const SimConfig cfg = r.config_for(*wl);
    LlcLayer& layer = L_.llc[d];

    uint64_t t = now_ns();
    System sys(d, cfg, 1, /*timing=*/false);
    auto llc = make_llc(d, cfg, sys.regions());
    TimedLlc timed(*llc, layer);
    MemoryHierarchy hier(cfg, timed, 1, &TimedLlc::dispatch);
    IntervalCore core(cfg.core, hier, 0);
    L_.ctor_ns += now_ns() - t;

    prof::Totals pt;
    prof::ScopedSink sink(&pt);
    const uint64_t ops = cfg.ops_per_access;
    uint64_t& calls = L_.core_calls;
    sys.set_access_hook([&](uint64_t addr, bool write) {
      ++calls;
      core.access(addr, write, ops);
    });
    t = now_ns();
    wl->run(sys);
    const auto out = wl->output(sys);
    L_.workload_ns += now_ns() - t;
    sys.set_access_hook(nullptr);

    t = now_ns();
    timed.set_draining();
    hier.drain(core.cycles());
    L_.hier_drain_ns += now_ns() - t;
    L_.traced_point_ns += now_ns() - start;

    layer.compress_ns += pt.phase_ns(prof::Phase::kCompress);
    const StatGroup s = llc->stats();
    layer.compress_attempts += s.get("compress_attempts");
    layer.compress_successes += s.get("compress_successes");
    layer.bdi_blocks += s.get("blocks_bdi");
    const CacheCounters& l1 = hier.l1(0).counters();
    const CacheCounters& l2 = hier.l2(0).counters();
    L_.l1_hits += l1.hits;
    L_.l1_accesses += l1.accesses;
    L_.l2_hits += l2.hits;
    L_.l2_accesses += l2.accesses;
    L_.dram_bytes += llc->dram().total_bytes();
    L_.dram_activations += llc->dram().activations();
    return {hier.llc_requests(), hier.llc_misses(), llc->dram().total_bytes()};
  }

  /// The traced stack never sees the workloads' ops() calls, so its
  /// instruction and cycle counts differ from the untraced point by design;
  /// the memory-side counts must not.
  void selfcheck(const std::string& key, Design d, const RunMetrics& m,
                 const TracedCounts& c) {
    std::string diff;
    auto cmp = [&](const char* name, uint64_t untraced, uint64_t traced) {
      if (untraced != traced)
        diff += std::string(diff.empty() ? "" : ", ") + name + " " +
                std::to_string(untraced) + " untraced vs " +
                std::to_string(traced) + " traced";
    };
    cmp("llc_requests", m.llc_requests, c.llc_requests);
    cmp("llc_misses", m.llc_misses, c.llc_misses);
    cmp("dram_bytes", m.dram_bytes, c.dram_bytes);
    checks_.push_back(JsonObject()
                          .str("key", key)
                          .str("design", to_string(d))
                          .raw("match", diff.empty() ? "true" : "false")
                          .str("diff", diff)
                          .done());
  }

  void print(uint64_t wall_ns) const {
    const double clk = clock_overhead_ns();
    auto sec = [](uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
    JsonObject layers;
    layers.num("workloads.make_s", sec(L_.make_ns))
        .num("trace.load_s", sec(L_.trace_load_ns))
        .num("trace.records", L_.trace_records)
        .num("runtime.ctor_s", sec(L_.ctor_ns))
        .num("workloads.run_s", sec(L_.golden_ns))
        .num("workloads.accesses", L_.golden_accesses)
        .num("workloads.traced_run_s", sec(L_.workload_ns))
        .num("workloads.self_s", sec(L_.workload_self_ns))
        .num("cpu.accesses", L_.core_calls)
        .num("cache.drain_total_s", sec(L_.hier_drain_ns))
        .num("cache.l1_hits", L_.l1_hits)
        .num("cache.l1_accesses", L_.l1_accesses)
        .num("cache.l2_hits", L_.l2_hits)
        .num("cache.l2_accesses", L_.l2_accesses)
        .num("dram.bytes", L_.dram_bytes)
        .num("dram.activations", L_.dram_activations)
        .num("harness.load_s", sec(L_.load_ns))
        .num("harness.append_s", sec(L_.append_ns))
        .num("harness.claim_s", sec(L_.claim_ns))
        .num("harness.claim_attempts", L_.claim_attempts)
        .num("harness.claim_wins", L_.claim_wins)
        .num("harness.claim_errors", L_.claim_errors)
        .num("traced_points_s", sec(L_.traced_point_ns))
        .num("untraced_points_s", sec(L_.untraced_point_ns));
    for (Design d : ExperimentRunner::paper_designs()) {
      const std::string p = std::string("llc.") + to_string(d) + ".";
      auto it = L_.llc.find(d);
      const LlcLayer none;
      const LlcLayer& l = it == L_.llc.end() ? none : it->second;
      layers.num(p + "request_s", l.request.estimate_s(clk))
          .num(p + "access_writeback_s", l.writeback.estimate_s(clk))
          .num(p + "drain_writeback_s", l.drain_writeback.estimate_s(clk))
          .num(p + "drain_s", sec(l.drain_ns))
          .num(p + "requests", l.request.calls)
          .num(p + "misses", l.misses)
          .num(p + "compressor_s", sec(l.compress_ns))
          .num(p + "compress_attempts", l.compress_attempts)
          .num(p + "compress_successes", l.compress_successes)
          .num(p + "bdi_blocks", l.bdi_blocks);
    }
    std::printf("%s\n", JsonObject()
                            .num("wall_s", sec(wall_ns))
                            .num("clock_overhead_ns", clk)
                            .raw("layers", layers.done())
                            .raw("points", join(points_, '{', '}'))
                            .raw("selfcheck", join(checks_, '[', ']'))
                            .raw("failures", join(failures_, '[', ']'))
                            .done()
                            .c_str());
  }

  const Options& o_;
  const std::vector<sweep::VariantPoint> grid_;
  std::map<Variant, std::unique_ptr<ExperimentRunner>> runners_;
  std::map<std::pair<Variant, std::string>, Golden> golden_;
  Layers L_;
  std::vector<std::string> points_, checks_, failures_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    if (o.cmd == "info") return cmd_info();
    if (o.cmd == "gen-traces") return cmd_gen_traces(o);
    if (o.cmd == "setup") return cmd_setup(o);
    if (o.cmd == "grid") return cmd_grid(o);
    if (o.cmd == "collect") return cmd_collect(o);
    if (o.cmd == "traced") return TracedRun(o).run();
    throw std::invalid_argument("unknown subcommand: " + o.cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 2;
  }
}
