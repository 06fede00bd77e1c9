#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/backoff.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace sweep {
namespace {

/// Sleep between rescans when every remaining point is claimed by a live
/// foreign owner (waiting for their results — or their leases — to land).
constexpr double kPollSeconds = 0.5;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<Point> full_grid(const std::vector<std::string>& workloads,
                             const std::vector<Design>& designs) {
  std::vector<Point> grid;
  grid.reserve(workloads.size() * designs.size());
  for (const auto& w : workloads)
    for (Design d : designs) grid.emplace_back(w, d);
  return grid;
}

std::vector<VariantPoint> full_variant_grid(
    const std::vector<int>& t1_values, const std::vector<int>& methods_values,
    const std::vector<std::string>& workloads,
    const std::vector<Design>& designs) {
  std::vector<VariantPoint> grid;
  grid.reserve(methods_values.size() * t1_values.size() * workloads.size() *
               designs.size());
  for (int methods : methods_values)
    for (int t1 : t1_values)
      for (const auto& w : workloads)
        for (Design d : designs) grid.push_back({t1, {w, d}, methods});
  return grid;
}

SimConfig variant_config(int t1, int methods) {
  SimConfig cfg;
  cfg.avr.t1_override = t1 < 0 ? -1 : t1;
  if (methods >= 0) {
    cfg.avr.enable_1d = (methods & kMethods1D) != 0;
    cfg.avr.enable_2d = (methods & kMethods2D) != 0;
    cfg.avr.enable_bdi_hybrid = (methods & kMethodsBdi) != 0;
  }
  return cfg;
}

std::vector<int> parse_methods_list(const std::string& csv) {
  if (csv.empty()) return {kMethodsDefault};
  std::vector<int> out;
  for (const auto& sel : split_csv(csv)) {
    int mask = 0;
    size_t start = 0;
    while (start <= sel.size()) {
      const size_t plus = sel.find('+', start);
      const size_t end = plus == std::string::npos ? sel.size() : plus;
      const std::string tok = lower(sel.substr(start, end - start));
      if (tok == "1d")
        mask |= kMethods1D;
      else if (tok == "2d")
        mask |= kMethods2D;
      else if (tok == "bdi")
        mask |= kMethodsBdi;
      else if (tok == "avr")  // the paper's lossy pair
        mask |= kMethods1D | kMethods2D;
      else
        throw std::invalid_argument(
            "bad --methods token '" + tok + "' in '" + sel +
            "' (want '+'-joined 1d/2d/bdi/avr, e.g. avr+bdi)");
      if (plus == std::string::npos) break;
      start = plus + 1;
    }
    if (mask == 0) throw std::invalid_argument("empty --methods selection");
    out.push_back(mask);
  }
  if (out.empty()) throw std::invalid_argument("empty --methods list");
  return out;
}

std::string method_set_name(int methods) {
  if (methods < 0) return "default";
  std::string name;
  auto append = [&name](const char* tok) {
    if (!name.empty()) name += '+';
    name += tok;
  };
  if (methods & kMethods1D) append("1d");
  if (methods & kMethods2D) append("2d");
  if (methods & kMethodsBdi) append("bdi");
  return name;
}

std::vector<int> parse_t1_list(const std::string& csv) {
  if (csv.empty()) return {-1};
  std::vector<int> out;
  for (const auto& tok : split_csv(csv)) {
    size_t pos = 0;
    int v = 0;
    try {
      v = std::stoi(tok, &pos);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad --t1 value: " + tok);
    }
    // 0..22: an fp32 mantissa MSbit index the compressor can bound against.
    if (pos != tok.size() || v < 0 || v > 22)
      throw std::invalid_argument("bad --t1 value: " + tok +
                                  " (want an integer in 0..22)");
    out.push_back(v);
  }
  if (out.empty()) throw std::invalid_argument("empty --t1 list");
  return out;
}

Design design_from_name(const std::string& name) {
  const std::string n = lower(name);
  for (Design d : {Design::kBaseline, Design::kDoppelganger, Design::kTruncate,
                   Design::kZeroAvr, Design::kAvr})
    if (n == lower(to_string(d))) return d;
  throw std::invalid_argument("unknown design: " + name);
}

std::vector<Design> parse_design_list(const std::string& csv) {
  if (csv.empty()) return ExperimentRunner::paper_designs();
  std::vector<Design> out;
  for (const auto& name : split_csv(csv)) out.push_back(design_from_name(name));
  if (out.empty()) throw std::invalid_argument("empty design list");
  return out;
}

std::vector<std::string> parse_workload_list(const std::string& csv) {
  if (csv.empty()) return workload_names();
  const auto known = workload_names();
  std::vector<std::string> out;
  for (const auto& name : split_csv(csv)) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      // Not a built-in kernel: either a trace spec or a typo. Constructing
      // it is the validation — make_workload loads and checks a trace file
      // eagerly and throws a diagnosable std::invalid_argument for both
      // cases, so a bad point fails at --list/startup, never mid-sweep.
      (void)make_workload(name);
    }
    out.push_back(name);
  }
  if (out.empty()) throw std::invalid_argument("empty workload list");
  return out;
}

StealOutcome run_work_stealing(
    const std::vector<VariantPoint>& grid,
    const std::function<ExperimentRunner&(const VariantPoint&)>& runner_for,
    const std::string& claim_path, const StealOptions& opts,
    unsigned n_threads) {
  const std::string owner =
      opts.owner.empty() ? prof::default_owner() : opts.owner;

  // Resolve each point's runner, cost and lease once up front; workers then
  // scan in descending-cost order — the longest-first schedule, across
  // processes when they claim: whichever gets there first takes the
  // expensive tail.
  const size_t n = grid.size();
  std::vector<ExperimentRunner*> runner(n);
  std::vector<double> cost(n);
  std::vector<uint64_t> lease(n);
  for (size_t i = 0; i < n; ++i) {
    runner[i] = &runner_for(grid[i]);
    cost[i] = runner[i]->cost_estimate(grid[i].point.first, grid[i].point.second);
    lease[i] = opts.lease_seconds
                   ? opts.lease_seconds
                   : static_cast<uint64_t>(std::max(30.0, 20.0 * cost[i]));
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost[a] > cost[b]; });

  // Per-point state: 0 = open, 1 = reserved by a thread of this process,
  // 2 = done (result exists, ours or anyone's). The CAS 0->1 keeps two
  // threads of one process off the same point; the claim record keeps two
  // *processes* off it.
  std::vector<std::atomic<int>> state(n);
  std::atomic<size_t> open_count{n};

  StealOutcome outcome;
  std::mutex stats_mu;
  std::atomic<bool> failed{false};
  std::atomic<bool> warned_degraded{false};
  std::exception_ptr first_error;

  auto now = [] { return static_cast<uint64_t>(::time(nullptr)); };

  // The claim on point k: kClaimed at once without a claim path, else a
  // claim record staked through the cache flock.
  auto stake = [&](size_t k) {
    if (claim_path.empty()) return ClaimOutcome::kClaimed;
    ClaimRecord want;
    want.workload = grid[k].point.first;
    want.design = grid[k].point.second;
    want.config_hash = runner[k]->config_hash();
    want.owner = owner;
    want.lease_seconds = lease[k];
    // One claim attempt per retry round; try_claim_point already rides out
    // transient lock contention internally, so kError here means the cache
    // kept failing — back off and re-try a bounded number of times before
    // giving up on coordination for this point.
    ClaimOutcome got = try_claim_point(claim_path, want, now());
    for (int attempt = 1;
         got == ClaimOutcome::kError && attempt < kIoRetryAttempts;
         ++attempt) {
      backoff_sleep(attempt - 1, static_cast<uint64_t>(k) ^
                                     (static_cast<uint64_t>(attempt) << 24));
      got = try_claim_point(claim_path, want, now());
    }
    if (got != ClaimOutcome::kError) return got;
    // Degrade, don't abort: simulate without a claim. Another process may
    // duplicate the point (waste), but never corrupt it — points are
    // deterministic and result loads duplicate-tolerant. The sweep's output
    // stays complete and correct; the persistent I/O failure is reported
    // through StealOutcome and the tool's exit code, not by throwing away
    // the run.
    if (!warned_degraded.exchange(true))
      std::fprintf(stderr,
                   "[steal] WARNING: cache %s unusable for claims after %d "
                   "attempts; degrading to uncoordinated simulation "
                   "(duplicate work possible, results stay correct)\n",
                   claim_path.c_str(), kIoRetryAttempts);
    std::lock_guard<std::mutex> lk(stats_mu);
    outcome.claim_errors++;
    outcome.degraded = true;
    return ClaimOutcome::kClaimed;
  };

  auto worker = [&] {
    // Scheduler-side profile: claim I/O and win/loss counters land here;
    // each simulated point installs its own sink inside run(), so point
    // time is never double-counted as scheduler time.
    prof::Totals sched;
    prof::ScopedSink sink(&sched);
    while (!failed.load(std::memory_order_relaxed) &&
           open_count.load(std::memory_order_relaxed) > 0) {
      bool progressed = false;
      for (size_t k : order) {
        if (failed.load(std::memory_order_relaxed)) break;
        int expect = 0;
        if (!state[k].compare_exchange_strong(expect, 1)) continue;
        const auto& [wl, d] = grid[k].point;
        const ClaimOutcome got = stake(k);
        if (got == ClaimOutcome::kClaimed || got == ClaimOutcome::kReclaimed) {
          if (got == ClaimOutcome::kReclaimed)
            std::fprintf(stderr, "[steal] %s reclaims %s x %s (lease expired)\n",
                         owner.c_str(), wl.c_str(), to_string(d));
          try {
            (void)runner[k]->run(wl, d);
          } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lk(stats_mu);
            if (!first_error) first_error = std::current_exception();
            break;
          }
          state[k].store(2);
          open_count.fetch_sub(1);
          progressed = true;
          std::lock_guard<std::mutex> lk(stats_mu);
          outcome.simulated++;
          if (got == ClaimOutcome::kReclaimed) outcome.reclaimed++;
        } else if (got == ClaimOutcome::kDone) {
          state[k].store(2);
          open_count.fetch_sub(1);
          progressed = true;
          std::lock_guard<std::mutex> lk(stats_mu);
          outcome.done_elsewhere++;
        } else {  // kBusy (stake() degrades kError to kClaimed)
          state[k].store(0);  // a live foreign claim — poll again later
        }
      }
      // Without claims one scan leaves nothing open: every point this
      // worker skipped is running, or done, on another of its threads.
      if (claim_path.empty()) break;
      // Every remaining point is claimed by a live foreign owner: wait for
      // their results (or their leases) instead of hammering the flock.
      if (!progressed && open_count.load(std::memory_order_relaxed) > 0 &&
          !failed.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
    std::lock_guard<std::mutex> lk(stats_mu);
    outcome.sched.merge(sched);
  };

  if (n_threads == 0) n_threads = std::thread::hardware_concurrency();
  n_threads = std::max<unsigned>(1, std::min<size_t>(n_threads, std::max<size_t>(n, 1)));
  std::vector<std::thread> pool;
  pool.reserve(n_threads - 1);
  for (unsigned t = 1; t < n_threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return outcome;
}

}  // namespace sweep
}  // namespace avr
