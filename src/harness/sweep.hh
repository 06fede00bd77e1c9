// Grid enumeration and the point scheduler of the paper sweep.
//
// The canonical grid order is workload-major, design-minor (full_grid()
// below). One scheduler, run_work_stealing, runs every grid: a plain sweep
// runs all of it in this process, and under *work stealing* (--claim)
// processes split it: every process sees the full grid and claims points
// one at a time by appending claim records through the flock'd cache file
// (protocol in harness/result_cache.hh and docs/OPERATIONS.md). Stragglers
// rebalance automatically, a killed process's claims expire and get
// reclaimed, and no coordination is needed up front.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/profile.hh"
#include "common/types.hh"

namespace avr {

class ExperimentRunner;

namespace sweep {

using Point = std::pair<std::string, Design>;

/// Method-selection bitmask values for the --methods config axis: which
/// compression methods variant_config() enables. -1 (kMethodsDefault) keeps
/// the default configuration's flags (1D+2D lossy, BDI-hybrid off).
inline constexpr int kMethodsDefault = -1;
inline constexpr int kMethods1D = 1;   // AvrConfig::enable_1d
inline constexpr int kMethods2D = 2;   // AvrConfig::enable_2d
inline constexpr int kMethodsBdi = 4;  // AvrConfig::enable_bdi_hybrid

/// One point of a (config x workload x design) grid: the config axes are
/// the forced T1 threshold (t1 == -1 means the default per-workload
/// thresholds) and the method-selection mask (methods == -1 means the
/// default method set). Records of different variants carry different v3
/// config fingerprints, so one cache file holds the whole variant grid.
struct VariantPoint {
  int t1 = -1;
  Point point;
  int methods = kMethodsDefault;

  bool operator==(const VariantPoint&) const = default;
  auto operator<=>(const VariantPoint&) const = default;
};

/// Full cross product in canonical (workload-major) order.
std::vector<Point> full_grid(const std::vector<std::string>& workloads,
                             const std::vector<Design>& designs);

/// Full (methods x t1 x workload x design) cross product: methods-major,
/// then t1-major, then the canonical workload-major order. The default axes
/// ({-1}, {-1}) reproduce the historical grid point-for-point.
std::vector<VariantPoint> full_variant_grid(
    const std::vector<int>& t1_values, const std::vector<int>& methods_values,
    const std::vector<std::string>& workloads,
    const std::vector<Design>& designs);

/// The base SimConfig simulating variant (`t1`, `methods`): default except
/// avr.t1_override (see AvrConfig::t1_override) and — when methods >= 0 —
/// the three method-enable flags set from the kMethods* mask. The default
/// axes (-1, -1) are exactly the default config, fingerprint included; so
/// is the mask that spells out the default method set (1d+2d, no BDI).
SimConfig variant_config(int t1, int methods = kMethodsDefault);

/// Comma-separated list of T1 mantissa-msbit indices (e.g. "4,6,8");
/// "" yields {-1}, the default per-workload-threshold grid. Throws
/// std::invalid_argument for non-numeric or out-of-range (0..22) entries.
std::vector<int> parse_t1_list(const std::string& csv);

/// Comma-separated list of method selections, each a '+'-joined set of
/// tokens "1d", "2d", "bdi" or the alias "avr" (= 1d+2d): e.g.
/// "avr,avr+bdi" sweeps the default lossy pair against the BDI-hybrid.
/// "" yields {kMethodsDefault}. Throws std::invalid_argument for unknown
/// tokens or an empty selection.
std::vector<int> parse_methods_list(const std::string& csv);

/// Canonical display name of a selection mask: "default" for
/// kMethodsDefault, else the '+'-joined enabled tokens (e.g. "1d+2d+bdi").
std::string method_set_name(int methods);

/// Parses one design name as printed by to_string(Design) —
/// "baseline", "dganger", "truncate", "ZeroAVR", "AVR" — case-insensitively.
/// Throws std::invalid_argument for unknown names.
Design design_from_name(const std::string& name);

/// Comma-separated design names; "" yields ExperimentRunner::paper_designs().
std::vector<Design> parse_design_list(const std::string& csv);

/// Comma-separated workload names — built-in kernels and/or trace specs
/// ("trace:<path>", whose file is loaded and validated here, eagerly); ""
/// yields workload_names(). Throws std::invalid_argument for unknown names
/// and for missing/corrupt trace files.
std::vector<std::string> parse_workload_list(const std::string& csv);

// ---- the point scheduler: plain and claim-based work stealing ---------------

/// Knobs for run_work_stealing.
struct StealOptions {
  /// Claim-owner token (comma-free; "" uses prof::default_owner()).
  std::string owner;
  /// Fixed lease in seconds for every claim; 0 picks an adaptive lease of
  /// max(30, 20 x cost_estimate) seconds per point — generous enough that a
  /// live worker never loses a point it is still simulating, short enough
  /// that a killed worker's points come back within a minute.
  uint64_t lease_seconds = 0;
};

/// What one process's run_work_stealing did, for logs and --profile.
struct StealOutcome {
  size_t simulated = 0;       // points this process claimed and ran (every
                              // point when there is no claim path)
  size_t reclaimed = 0;       // of those, won by superseding an expired claim
  size_t done_elsewhere = 0;  // points another owner completed
  size_t claim_errors = 0;    // points whose claim I/O failed even after the
                              // bounded retries (each ran uncoordinated)
  bool degraded = false;      // true once any point ran without a claim:
                              // waste (duplicate work) became possible, but
                              // results stay correct — points are
                              // deterministic and loads duplicate-tolerant
  prof::Totals sched;         // scheduler-side cache I/O + claim counters
};

/// The one point scheduler, for plain sweeps and `--claim` alike: each of
/// `n_threads` workers (0 = hardware concurrency) scans the remaining
/// points in descending cost_estimate order (longest first) and runs each
/// point it wins via `runner_for(vp)`, which must return the same runner
/// for every point of one (t1, methods) variant (vp.point is irrelevant to
/// the lookup). Throws the first simulation error once the workers have
/// stopped; no new point starts after it.
///
/// An empty `claim_path` means no other process shares the grid: every
/// point is this process's, no claim is staked and run() is called on
/// every point, cached ones included. Otherwise the runners must write to
/// `claim_path`, and the workers cooperate with any number of concurrent
/// processes sharing it: a point is run only after a claim on it is
/// staked through the cache flock (result_cache.hh). The call returns once
/// *every* point has a result, whether produced here or by another
/// process; a process that finishes early keeps polling and reclaims
/// expired claims, so a SIGKILLed peer's points are picked up
/// automatically. Cache I/O failure does NOT abort the sweep: a claim that
/// still fails after bounded backoff retries degrades that point to
/// uncoordinated simulation with a loud warning (waste over wrongness —
/// see StealOutcome::degraded).
StealOutcome run_work_stealing(
    const std::vector<VariantPoint>& grid,
    const std::function<ExperimentRunner&(const VariantPoint&)>& runner_for,
    const std::string& claim_path, const StealOptions& opts,
    unsigned n_threads = 0);

}  // namespace sweep
}  // namespace avr
