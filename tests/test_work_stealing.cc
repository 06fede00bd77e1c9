// Claim-based work-stealing tests: the v5 claim-record grammar, the
// try_claim_point state machine (fresh / busy / expired / done), the
// per-process claim index against the full loaders (appends, torn tails,
// truncation, repair, unlink-and-recreate, a multi-thread claim storm), the
// makespan advantage over a static round-robin split on the committed seed
// costs, and the end-to-end acceptance paths — three concurrent --claim
// processes produce a cache identical to a single-process sweep, including
// after one of them is SIGKILLed mid-run and its claims expire; --claim
// workers sweeping --t1 variants share one cache; and a plain (claim-free)
// avr_sweep process covers its whole grid.
#include "harness/result_cache.hh"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/profile.hh"
#include "common/simd.hh"
#include "harness/experiment.hh"
#include "harness/fsck.hh"
#include "harness/sweep.hh"
#include "workloads/workload_registry.hh"

namespace avr {
namespace {

ClaimRecord claim(const std::string& wl, Design d, const std::string& owner,
                  uint64_t at, uint64_t lease, uint64_t cfg = 7) {
  ClaimRecord c;
  c.workload = wl;
  c.design = d;
  c.config_hash = cfg;
  c.owner = owner;
  c.claimed_at = at;
  c.lease_seconds = lease;
  return c;
}

TEST(ClaimRecordCodec, RoundTrips) {
  const ClaimRecord c = claim("kmeans", Design::kAvr, "host-42", 1700000000, 60);
  const std::string line = encode_claim_line(c);
  ClaimRecord back;
  ASSERT_TRUE(decode_claim_line(line, &back)) << line;
  EXPECT_EQ(back.workload, "kmeans");
  EXPECT_EQ(back.design, Design::kAvr);
  EXPECT_EQ(back.config_hash, 7u);
  EXPECT_EQ(back.owner, "host-42");
  EXPECT_EQ(back.claimed_at, 1700000000u);
  EXPECT_EQ(back.lease_seconds, 60u);
}

TEST(ClaimRecordCodec, ExpiryIsInclusiveOfLeaseEnd) {
  const ClaimRecord c = claim("kmeans", Design::kAvr, "o", 100, 30);
  EXPECT_FALSE(c.expired(100));
  EXPECT_FALSE(c.expired(129));
  EXPECT_TRUE(c.expired(130));
  EXPECT_TRUE(c.expired(1000));
}

TEST(ClaimRecordCodec, RejectsTornAndForeignLines) {
  const std::string line =
      encode_claim_line(claim("kmeans", Design::kAvr, "o", 5, 6));
  ClaimRecord c;
  // Every strict prefix is torn; none may decode.
  for (size_t cut = 0; cut < line.size(); ++cut)
    EXPECT_FALSE(decode_claim_line(line.substr(0, cut), &c)) << cut;
  EXPECT_FALSE(decode_claim_line("", &c));
  EXPECT_FALSE(decode_claim_line(line + ",extra", &c));
  // A result line is not a claim, and vice versa.
  ExperimentResult r;
  r.workload = "kmeans";
  EXPECT_FALSE(decode_claim_line(encode_result_line(r), &c));
  EXPECT_FALSE(decode_result_line(line, &r));
  // Claims are current-version-only transient state.
  std::string old = line;
  old[0] = '3';
  EXPECT_FALSE(decode_claim_line(old, &c));
}

TEST(ClaimRecordCodec, ResultLoaderSkipsClaims) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claims_skip_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ExperimentResult r;
  r.workload = "kmeans";
  r.design = Design::kAvr;
  r.config_hash = 7;
  ASSERT_TRUE(append_result_line(path, r));
  {
    std::ofstream out(path, std::ios::app);
    out << encode_claim_line(claim("heat", Design::kAvr, "o", 1, 2)) << "\n";
  }
  const auto results = load_result_cache(path, uint64_t{7});
  EXPECT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.count({"kmeans", Design::kAvr}));
  const auto claims = load_claims(path, uint64_t{7});
  EXPECT_EQ(claims.size(), 1u);
  EXPECT_TRUE(claims.count({"heat", Design::kAvr}));
  std::remove(path.c_str());
}

TEST(ClaimRecordCodec, LastClaimWinsAndConfigFilters) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claims_last_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path);
    out << encode_claim_line(claim("kmeans", Design::kAvr, "first", 1, 2)) << "\n"
        << encode_claim_line(claim("kmeans", Design::kAvr, "second", 3, 4)) << "\n"
        << encode_claim_line(claim("kmeans", Design::kAvr, "other-cfg", 5, 6, 99))
        << "\n";
  }
  const auto claims = load_claims(path, uint64_t{7});
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims.at({"kmeans", Design::kAvr}).owner, "second");
  EXPECT_EQ(load_claims(path, uint64_t{99}).at({"kmeans", Design::kAvr}).owner,
            "other-cfg");
  std::remove(path.c_str());
}

TEST(TryClaimPoint, StateMachine) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_sm_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(path.c_str());
  const ClaimRecord a = claim("kmeans", Design::kAvr, "A", 0, 30);
  const ClaimRecord b = claim("kmeans", Design::kAvr, "B", 0, 30);

  // Fresh point: A wins; B is locked out while A's lease is live; A's own
  // retry stays kClaimed without appending a duplicate record.
  EXPECT_EQ(try_claim_point(path, a, 100), ClaimOutcome::kClaimed);
  EXPECT_EQ(try_claim_point(path, b, 110), ClaimOutcome::kBusy);
  EXPECT_EQ(try_claim_point(path, a, 110), ClaimOutcome::kClaimed);
  {
    std::ifstream in(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 1u) << "own live claim must not be re-appended";
  }

  // Lease expiry: B supersedes A's stale claim, and now A is the one busy.
  EXPECT_EQ(try_claim_point(path, b, 131), ClaimOutcome::kReclaimed);
  EXPECT_EQ(try_claim_point(path, a, 140), ClaimOutcome::kBusy);

  // A result ends the game for everyone, live claims notwithstanding.
  ExperimentResult r;
  r.workload = "kmeans";
  r.design = Design::kAvr;
  r.config_hash = 7;
  ASSERT_TRUE(append_result_line(path, r));
  EXPECT_EQ(try_claim_point(path, a, 141), ClaimOutcome::kDone);
  EXPECT_EQ(try_claim_point(path, b, 141), ClaimOutcome::kDone);

  // A different config_hash is a different point: claimable independently.
  ClaimRecord other = claim("kmeans", Design::kAvr, "A", 0, 30, 99);
  EXPECT_EQ(try_claim_point(path, other, 141), ClaimOutcome::kClaimed);
  std::remove(path.c_str());
}

// ---- the claim index against the full loaders -----------------------------

/// A cache path this process has never indexed (so --gtest_repeat starts
/// every case from an empty index).
std::string claim_index_path(const std::string& tag) {
  static int calls = 0;
  return (std::filesystem::temp_directory_path() /
          ("avr_claim_ix_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(calls++) + ".csv"))
      .string();
}

ExperimentResult result_for(const std::string& wl, Design d, uint64_t cfg) {
  ExperimentResult r;
  r.workload = wl;
  r.design = d;
  r.config_hash = cfg;
  return r;
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << bytes;
}

/// What a full scan says try_claim_point(path, want, now) must return:
/// a result beats any claim, and the last claim in file order governs.
ClaimOutcome predicted_outcome(const std::string& path, const ClaimRecord& want,
                               uint64_t now) {
  const ResultKey key{want.workload, want.design};
  testing::internal::CaptureStderr();  // the journal's quarantine chatter
  const bool done = load_result_cache(path, want.config_hash).count(key) > 0;
  (void)testing::internal::GetCapturedStderr();
  if (done) return ClaimOutcome::kDone;
  const auto claims = load_claims(path, want.config_hash);
  const auto it = claims.find(key);
  if (it == claims.end()) return ClaimOutcome::kClaimed;
  const ClaimRecord& c = it->second;
  if (!c.expired(now))
    return c.owner == want.owner ? ClaimOutcome::kClaimed : ClaimOutcome::kBusy;
  return c.owner == want.owner ? ClaimOutcome::kClaimed
                               : ClaimOutcome::kReclaimed;
}

TEST(ClaimIndex, MatchesFullLoadersOnARandomJournal) {
  const std::string path = claim_index_path("oracle");
  std::remove(path.c_str());
  prof::Totals totals;
  prof::ScopedSink sink(&totals);

  const std::vector<std::string> wls = {"kmeans", "heat", "trace:a.trc"};
  const std::vector<Design> designs = {Design::kBaseline, Design::kAvr};
  const std::vector<uint64_t> cfgs = {7, 99};
  const std::vector<std::string> owners = {"A", "B", "C"};
  std::mt19937_64 rng(0x5eed);
  auto pick = [&rng](const auto& v) { return v[rng() % v.size()]; };

  uint64_t now = 1000;
  size_t attempts = 0;
  for (int step = 0; step < 600; ++step) {
    now += rng() % 4;
    const ClaimRecord want =
        claim(pick(wls), pick(designs), pick(owners), 0, 5 + rng() % 20,
              pick(cfgs));
    switch (rng() % 10) {
      case 0:  // a result, through the locked writer
        ASSERT_TRUE(append_result_line(
            path, result_for(want.workload, want.design, want.config_hash)));
        break;
      case 1: {  // a claim another process staked, possibly long ago
        ClaimRecord c = want;
        c.claimed_at = now - rng() % 40;
        append_raw(path, encode_claim_line(c) + "\n");
        break;
      }
      case 2: {  // a line from an older format version
        std::string v4 =
            encode_result_line(result_for(want.workload, want.design, want.config_hash));
        v4[0] = '4';
        append_raw(path, v4 + "\n");
        break;
      }
      case 3: {  // bit rot inside a claim's payload: the CRC must reject it
        std::string bad = encode_claim_line(want);
        bad[bad.size() - 6] ^= 0x01;
        append_raw(path, bad + "\n");
        break;
      }
      case 4: {  // a writer killed mid-record: no '\n' until the next append
        const std::string line = encode_claim_line(want);
        append_raw(path, line.substr(0, line.size() / 2));
        break;
      }
      default: {  // a claim attempt, checked against the oracle
        const ClaimOutcome expect = predicted_outcome(path, want, now);
        ASSERT_EQ(try_claim_point(path, want, now), expect)
            << "step " << step << ": " << want.workload << " x "
            << to_string(want.design) << " cfg " << want.config_hash
            << " by " << want.owner << " at " << now;
        ++attempts;
        break;
      }
    }
  }
  EXPECT_GT(attempts, 300u);
  // The file only grew and was never rewritten: every byte was parsed at
  // most once.
  EXPECT_EQ(totals.count(prof::Counter::kClaimRescans), 0u);
  EXPECT_GT(totals.count(prof::Counter::kClaimBytesParsed), 0u);
  EXPECT_LE(totals.count(prof::Counter::kClaimBytesParsed),
            std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(ClaimIndex, ShorterOrRewrittenFileIsRescanned) {
  const std::string path = claim_index_path("shrink");
  std::remove(path.c_str());
  prof::Totals totals;
  prof::ScopedSink sink(&totals);
  const ClaimRecord a = claim("kmeans", Design::kAvr, "A", 0, 30);
  const ClaimRecord b = claim("kmeans", Design::kAvr, "B", 0, 30);
  ASSERT_EQ(try_claim_point(path, a, 100), ClaimOutcome::kClaimed);
  ASSERT_EQ(try_claim_point(path, b, 110), ClaimOutcome::kBusy);

  // Truncated to nothing: A's claim is gone, so B claims fresh (and its
  // retry indexes that stake).
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  EXPECT_EQ(try_claim_point(path, b, 111), ClaimOutcome::kClaimed);
  EXPECT_EQ(try_claim_point(path, b, 111), ClaimOutcome::kClaimed);
  EXPECT_EQ(totals.count(prof::Counter::kClaimRescans), 1u);

  // Rewritten in place (same inode), longer than what was indexed: only
  // the bytes before the old offset give it away.
  {
    std::ofstream out(path, std::ios::trunc);
    out << encode_result_line(result_for("heat", Design::kAvr, 7)) << "\n"
        << encode_claim_line(claim("kmeans", Design::kAvr, "C", 111, 30))
        << "\n";
  }
  EXPECT_EQ(try_claim_point(path, b, 112), ClaimOutcome::kBusy);
  EXPECT_EQ(try_claim_point(path, b, 112), predicted_outcome(path, b, 112));
  EXPECT_EQ(totals.count(prof::Counter::kClaimRescans), 2u);
  std::remove(path.c_str());
}

TEST(ClaimIndex, RepairDroppingAnExpiredClaimMakesThePointClaimable) {
  const std::string path = claim_index_path("repair");
  std::remove(path.c_str());
  prof::Totals totals;
  prof::ScopedSink sink(&totals);
  const ClaimRecord a = claim("kmeans", Design::kAvr, "A", 0, 30);
  const ClaimRecord b = claim("kmeans", Design::kAvr, "B", 0, 30);
  ASSERT_TRUE(append_result_line(path, result_for("heat", Design::kAvr, 7)));
  ASSERT_TRUE(append_result_line(path, result_for("heat", Design::kAvr, 7)));
  ASSERT_EQ(try_claim_point(path, a, 100), ClaimOutcome::kClaimed);
  ASSERT_EQ(try_claim_point(path, b, 110), ClaimOutcome::kBusy);

  // A died; by t=200 its claim has expired and a repair drops it (and the
  // duplicate result). The index must not keep serving the old file.
  std::string error;
  ASSERT_TRUE(repair_cache(path, 200, &error)) << error;
  EXPECT_TRUE(load_claims(path).empty());
  EXPECT_EQ(try_claim_point(path, b, 200), ClaimOutcome::kClaimed)
      << "a stale index would report kReclaimed over A's dropped claim";
  EXPECT_GE(totals.count(prof::Counter::kClaimRescans), 1u);
  EXPECT_EQ(try_claim_point(path, claim("heat", Design::kAvr, "B", 0, 30), 200),
            ClaimOutcome::kDone);
  std::remove(path.c_str());
}

TEST(ClaimIndex, UnlinkedAndRecreatedFileIsRescanned) {
  const std::string path = claim_index_path("recreate");
  std::remove(path.c_str());
  const ClaimRecord a = claim("kmeans", Design::kAvr, "A", 0, 600);
  const ClaimRecord b = claim("kmeans", Design::kAvr, "B", 0, 600);
  const ClaimRecord done = claim("heat", Design::kAvr, "B", 0, 600);
  ASSERT_TRUE(append_result_line(path, result_for("heat", Design::kAvr, 7)));
  ASSERT_EQ(try_claim_point(path, a, 100), ClaimOutcome::kClaimed);
  ASSERT_EQ(try_claim_point(path, b, 101), ClaimOutcome::kBusy);
  ASSERT_EQ(try_claim_point(path, done, 101), ClaimOutcome::kDone);

  // A new file at the same path, longer than the old one and holding
  // neither A's claim nor heat's result.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(append_result_line(
        path, result_for("w" + std::to_string(i), Design::kBaseline, 7)));
  EXPECT_EQ(try_claim_point(path, b, 102), ClaimOutcome::kClaimed);
  EXPECT_EQ(try_claim_point(path, done, 102), ClaimOutcome::kClaimed);
  EXPECT_EQ(try_claim_point(path, a, 103), ClaimOutcome::kBusy);
  std::remove(path.c_str());
}

TEST(ClaimIndex, FourThreadClaimStormWinsEachPointOnce) {
  const std::string path = claim_index_path("storm");
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPoints = 48;
  std::vector<std::atomic<int>> wins(kPoints);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      // Each thread walks the points from a different start, so threads
      // collide on points rather than trail each other.
      for (int k = 0; k < kPoints; ++k) {
        const int p = (k + t * kPoints / kThreads) % kPoints;
        const ClaimRecord want =
            claim("p" + std::to_string(p), Design::kBaseline,
                  "t" + std::to_string(t), 0, 600);
        const ClaimOutcome got = try_claim_point(path, want, 1000);
        if (got == ClaimOutcome::kClaimed || got == ClaimOutcome::kReclaimed)
          wins[p].fetch_add(1);
        else
          EXPECT_EQ(got, ClaimOutcome::kBusy);
      }
    });
  for (auto& th : pool) th.join();
  for (int p = 0; p < kPoints; ++p) EXPECT_EQ(wins[p].load(), 1) << "p" << p;
  EXPECT_EQ(load_claims(path, uint64_t{7}).size(),
            static_cast<size_t>(kPoints));
  std::ifstream in(path);
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, static_cast<size_t>(kPoints)) << "one stake per point";
  std::remove(path.c_str());
}

// ---- scheduling quality ----------------------------------------------------

// Work stealing drains points longest-first into whichever worker is free —
// the classic LPT schedule. On the committed seed-cost mix its makespan must
// beat a static round-robin split (point i to worker i mod N), which pins
// each point to a worker no matter how the costs land. This is the
// deterministic case for splitting the sweep by claims.
TEST(WorkStealing, LptBeatsStaticShardsOnSeedCosts) {
  ExperimentRunner runner({}, /*verbose=*/false, /*cache_path=*/"");
  const auto grid =
      sweep::full_grid(workload_names(), ExperimentRunner::paper_designs());
  std::vector<double> cost;
  for (const auto& [w, d] : grid) cost.push_back(runner.cost_estimate(w, d));
  // The seed file must actually be loaded (AVR_SEED_COSTS points at the
  // committed data/seed_costs.csv): estimates then span a wide cost mix.
  ASSERT_GT(*std::max_element(cost.begin(), cost.end()),
            4 * *std::min_element(cost.begin(), cost.end()))
      << "seed costs not loaded? AVR_SEED_COSTS=" << std::getenv("AVR_SEED_COSTS");

  constexpr unsigned kShards = 3;
  // Static: worker i owns points with canonical index == i (mod N).
  double static_makespan = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    double sum = 0;
    for (size_t i = s; i < cost.size(); i += kShards) sum += cost[i];
    static_makespan = std::max(static_makespan, sum);
  }
  // Stealing: longest-first greedy onto the least-loaded worker.
  std::vector<size_t> order(cost.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cost[a] > cost[b]; });
  std::vector<double> load(kShards, 0.0);
  for (size_t i : order)
    *std::min_element(load.begin(), load.end()) += cost[i];
  const double steal_makespan = *std::max_element(load.begin(), load.end());

  EXPECT_LT(steal_makespan, static_makespan);
  // And it must be close to the lower bound (perfect balance), not just
  // marginally better: LPT is within 4/3 of optimal, the static slices are
  // not.
  const double ideal =
      std::accumulate(cost.begin(), cost.end(), 0.0) / kShards;
  EXPECT_LT(steal_makespan, 1.34 * ideal);
}

// ---- end-to-end: concurrent --claim processes, one cache -------------------

std::string sweep_binary() {
  const char* bin = std::getenv("AVR_SWEEP_BIN");
  return bin ? bin : "";
}

/// Forks and execs `args`; a non-empty `stderr_path` / `stdout_path`
/// captures the child's stderr / stdout in that file.
pid_t spawn_sweep(const std::vector<std::string>& args,
                  const std::string& stderr_path = "",
                  const std::string& stdout_path = "") {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  for (const auto& [path, target] :
       {std::pair{&stderr_path, STDERR_FILENO}, std::pair{&stdout_path, STDOUT_FILENO}}) {
    if (path->empty()) continue;
    const int fd = ::open(path->c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, target) < 0) _exit(126);
  }
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);  // exec failed
}

/// A counter from an avr-profile-v1 sidecar's process-wide "aggregate"
/// block (which precedes the per-point blocks).
uint64_t aggregate_counter(const std::string& json, const std::string& name) {
  const size_t agg = json.find("\"aggregate\":");
  const std::string key = "\"" + name + "\":";
  const size_t at = agg == std::string::npos ? agg : json.find(key, agg);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no aggregate counter " << name;
    return 0;
  }
  return std::stoull(json.substr(at + key.size()));
}

void assert_matches_single_process_sweep(const std::string& cache,
                                         const std::vector<sweep::Point>& grid) {
  const auto merged = load_result_cache(cache);
  ASSERT_EQ(merged.size(), grid.size());
  ExperimentRunner single({}, /*verbose=*/false, /*cache_path=*/"");
  for (const auto& [w, d] : grid) {
    ASSERT_TRUE(merged.count({w, d})) << w << " x " << to_string(d);
    ExperimentResult got = merged.at({w, d});
    ExperimentResult want = single.run(w, d);
    got.wall_seconds = 0;
    want.wall_seconds = 0;
    EXPECT_EQ(encode_result_line(got), encode_result_line(want))
        << w << " x " << to_string(d);
  }
}

TEST(WorkStealing, ThreeClaimProcessesMatchSingleProcessSweep) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  // A small but representative sub-grid (6 points, AVR included): all three
  // workers race for the whole grid through claims.
  const std::string workloads = "kmeans,bscholes";
  const std::string designs = "baseline,truncate,AVR";
  std::vector<pid_t> pids;
  for (int i = 0; i < 3; ++i)
    pids.push_back(spawn_sweep(
        {bin, "--claim", "--owner", "w" + std::to_string(i), "--workloads",
         workloads, "--designs", designs, "--cache", cache, "--profile-out",
         cache + ".w" + std::to_string(i) + ".json", "--jobs", "1", "--quiet"}));
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  assert_matches_single_process_sweep(
      cache, sweep::full_grid({"kmeans", "bscholes"},
                              {Design::kBaseline, Design::kTruncate,
                               Design::kAvr}));

  // Every worker emitted its profile sidecar.
  for (int i = 0; i < 3; ++i) {
    const std::string sidecar = cache + ".w" + std::to_string(i) + ".json";
    std::ifstream in(sidecar);
    ASSERT_TRUE(in.good()) << sidecar;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"schema\":\"avr-profile-v1\""), std::string::npos);
    EXPECT_NE(text.find("\"mode\":\"claim\""), std::string::npos);
    // The sidecar records which kernel dispatch level produced the numbers.
    const std::string simd =
        std::string("\"simd\":\"") + simd_level_name(simd_level()) + "\"";
    EXPECT_NE(text.find(simd), std::string::npos);
    // The claim index read each cache byte at most once: the file only
    // grew, so no worker ever had to parse from byte 0 again.
    EXPECT_EQ(aggregate_counter(text, "claim_rescans"), 0u) << sidecar;
    const uint64_t parsed = aggregate_counter(text, "claim_bytes_parsed");
    EXPECT_GT(parsed, 0u) << sidecar;
    EXPECT_LE(parsed, std::filesystem::file_size(cache)) << sidecar;
    std::remove(sidecar.c_str());
  }
  std::remove(cache.c_str());
}

TEST(WorkStealing, T1VariantClaimWorkersCoexistInOneCache) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_t1_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  // Two --t1 variants of one cheap AVR point, claimed by two concurrent
  // worker processes appending to ONE cache file.
  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i)
    pids.push_back(spawn_sweep({bin, "--claim", "--owner",
                                "t1w" + std::to_string(i), "--t1", "4,6",
                                "--workloads", "bscholes", "--designs", "AVR",
                                "--cache", cache, "--profile-out", "",
                                "--jobs", "1", "--quiet"}));
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Each variant's record is keyed by its own config fingerprint, and both
  // match an in-process runner simulating under the same forced threshold.
  for (int t1 : {4, 6}) {
    const auto records =
        load_result_cache(cache, config_fingerprint(sweep::variant_config(t1)));
    ASSERT_EQ(records.size(), 1u) << "t1=" << t1;
    ASSERT_TRUE(records.count({"bscholes", Design::kAvr}));
    ExperimentRunner runner(sweep::variant_config(t1), /*verbose=*/false,
                            /*cache_path=*/"");
    ExperimentResult got = records.at({"bscholes", Design::kAvr});
    ExperimentResult want = runner.run("bscholes", Design::kAvr);
    got.wall_seconds = 0;
    want.wall_seconds = 0;
    EXPECT_EQ(encode_result_line(got), encode_result_line(want)) << "t1=" << t1;
  }
  // The default-config grid must see none of the variant records.
  EXPECT_TRUE(
      load_result_cache(cache, config_fingerprint(SimConfig{})).empty());
  std::remove(cache.c_str());
}

TEST(WorkStealing, PlainSweepCoversItsWholeGrid) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_plain_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::string sidecar = cache + ".profile.json";
  std::remove(cache.c_str());

  // No --claim: one process simulates every point of its selection.
  int status = 0;
  const pid_t pid = spawn_sweep({bin, "--workloads", "kmeans,bscholes",
                                 "--designs", "baseline", "--cache", cache,
                                 "--profile-out", sidecar, "--jobs", "1",
                                 "--quiet"});
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  assert_matches_single_process_sweep(
      cache, sweep::full_grid({"kmeans", "bscholes"}, {Design::kBaseline}));

  std::ifstream in(sidecar);
  ASSERT_TRUE(in.good()) << sidecar;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"mode\":\"single\""), std::string::npos) << text;
  std::remove(sidecar.c_str());
  std::remove(cache.c_str());

  // --shard is not a flag: a usage error, exit 2.
  const std::string err_path = cache + ".stderr";
  const pid_t bad = spawn_sweep({bin, "--shard", "0/1", "--cache", cache}, err_path);
  ASSERT_EQ(waitpid(bad, &status, 0), bad);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream err_in(err_path);
  const std::string err((std::istreambuf_iterator<char>(err_in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("unknown flag: --shard"), std::string::npos) << err;
  std::remove(err_path.c_str());
  std::remove(cache.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(WorkStealing, PlainVariantSweepRunsOneGoldenRunPerWorkload) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_plain_variants_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::string sidecar = cache + ".profile.json";
  std::remove(cache.c_str());

  // Two --t1 variants x two workloads x two designs in one plain process:
  // all eight points share one pool and one golden run per workload.
  const std::vector<std::string> select = {
      "--t1", "4,7", "--workloads", "kmeans,bscholes", "--designs",
      "baseline,AVR", "--cache", cache};
  auto run = [&](std::vector<std::string> args) {
    args.insert(args.begin(), bin);
    args.insert(args.end(), select.begin(), select.end());
    int status = 0;
    const pid_t pid = spawn_sweep(args);
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(run({"--jobs", "2", "--profile-out", sidecar, "--quiet"}), 0);
  EXPECT_EQ(run({"--check"}), 0);

  // The functional phase times golden runs: one per workload, not one per
  // point (8) or per (variant, workload) (4).
  const std::string text = read_file(sidecar);
  const size_t agg = text.find("\"aggregate\":");
  const size_t fn = text.find("\"functional\":", agg);
  const size_t calls = text.find("\"calls\":", fn);
  ASSERT_NE(agg, std::string::npos) << text;
  ASSERT_NE(fn, std::string::npos) << text;
  ASSERT_NE(calls, std::string::npos) << text;
  EXPECT_EQ(std::stoull(text.substr(calls + 8)), 2u) << text;
  std::remove(sidecar.c_str());
  std::remove(cache.c_str());
}

TEST(WorkStealing, ReportNeedsACacheAndTheWholeDefaultGrid) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_report_e2e_" + std::to_string(::getpid()) + ".csv"))
          .string();
  const std::string err_path = cache + ".stderr";
  const std::string out_path = cache + ".stdout";
  std::remove(cache.c_str());

  // --report only reads a cache: without one it is a usage error, exit 2.
  int status = 0;
  pid_t pid = spawn_sweep({bin, "--report", "--cache", ""}, err_path);
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(read_file(err_path).find("--report needs a cache file"), std::string::npos);

  // A cache with one default-grid point: the report still prints, lists the
  // other 34 points and exits 1. Nothing is simulated.
  ExperimentResult r;
  r.workload = "bscholes";
  r.design = Design::kBaseline;
  r.config_hash = config_fingerprint(SimConfig{});
  r.m.cycles = 1000;
  ASSERT_TRUE(append_result_line(cache, r));
  pid = spawn_sweep({bin, "--report", "--cache", cache}, err_path, out_path);
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string report = read_file(out_path);
  EXPECT_NE(report.find("== Fig. 9: Execution time"), std::string::npos) << report;
  EXPECT_NE(report.find("34 default-grid point(s) missing"), std::string::npos);
  EXPECT_NE(report.find("missing: heat x AVR\n"), std::string::npos);
  EXPECT_EQ(report.find("missing: bscholes x baseline"), std::string::npos);
  EXPECT_NE(read_file(err_path).find("lacks 34 default-grid point(s)"),
            std::string::npos);
  // The report left the cache as it was.
  EXPECT_EQ(load_result_cache(cache).size(), 1u);
  for (const auto& path : {cache, err_path, out_path}) std::remove(path.c_str());
}

TEST(WorkStealing, SurvivorReclaimsPointsOfSigkilledWorker) {
  const std::string bin = sweep_binary();
  if (bin.empty()) GTEST_SKIP() << "AVR_SWEEP_BIN not set";

  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("avr_claim_kill_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::remove(cache.c_str());

  const std::string workloads = "kmeans,bscholes";
  const std::string designs = "baseline,truncate,AVR";

  // Worker A starts alone (one thread, 1s leases), so its first move is to
  // claim the most expensive open point and start simulating it.
  const pid_t a = spawn_sweep({bin, "--claim", "--owner", "victim",
                               "--claim-lease", "1", "--workloads", workloads,
                               "--designs", designs, "--cache", cache, "--jobs",
                               "1", "--quiet"});

  // SIGKILL it the moment its first claim record lands — mid-simulation,
  // before the point's result. The kernel drops the flock with the process.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool claimed = false;
  while (!claimed && std::chrono::steady_clock::now() < deadline) {
    if (!load_claims(cache).empty()) {
      claimed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(claimed) << "worker never staked a claim";
  ASSERT_EQ(kill(a, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(a, &status, 0), a);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The victim must leave at least one dangling claim (claimed, no result)
  // for the survivor to reclaim.
  std::set<ResultKey> dangling;
  {
    const auto results = load_result_cache(cache);
    for (const auto& [key, c] : load_claims(cache))
      if (!results.count(key)) dangling.insert(key);
  }
  ASSERT_FALSE(dangling.empty()) << "victim finished before SIGKILL landed";

  // The survivor sweeps the whole grid: the victim's dangling claims expire
  // (1s lease) and are reclaimed; everything else is claimed fresh.
  const pid_t b = spawn_sweep({bin, "--claim", "--owner", "survivor",
                               "--workloads", workloads, "--designs", designs,
                               "--cache", cache, "--quiet"});
  ASSERT_EQ(waitpid(b, &status, 0), b);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Full coverage — explicitly including every point the victim had claimed
  // but not finished — with values identical to a single-process sweep.
  const auto results = load_result_cache(cache);
  for (const ResultKey& key : dangling)
    EXPECT_TRUE(results.count(key))
        << "dangling claim not reclaimed: " << key.first << " x "
        << to_string(key.second);
  assert_matches_single_process_sweep(
      cache, sweep::full_grid({"kmeans", "bscholes"},
                              {Design::kBaseline, Design::kTruncate,
                               Design::kAvr}));
  // The reclaim trail is visible in the journal: the survivor's superseding
  // claim for a dangling key.
  const auto final_claims = load_claims(cache);
  bool superseded = false;
  for (const ResultKey& key : dangling) {
    auto it = final_claims.find(key);
    if (it != final_claims.end() && it->second.owner == "survivor")
      superseded = true;
  }
  EXPECT_TRUE(superseded) << "no dangling claim was superseded by the survivor";
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace avr
