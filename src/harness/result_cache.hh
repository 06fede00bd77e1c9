// On-disk result cache: an append-only CSV journal holding one line per
// completed (workload, design) point, and one line per *claim* a
// work-stealing worker stakes on a point it is about to simulate.
//
// Format v5 frames every record with a length and a checksum:
//
//   5,L<len>,C<crc8hex>,<payload>
//
// where <payload> runs from the character after the third comma to the end
// of the line (the trailing "end#" sentinel included), <len> is the decimal
// payload byte count, and <crc8hex> is the CRC-32C of the payload bytes
// (Castagnoli, reflected, ~crc32c(~0, payload); 8 lower-case hex digits,
// computed through the dispatched SIMD kernel table — hardware crc32 at
// the avx2 level, table-driven scalar otherwise). The length catches short
// writes the sentinel alone cannot (a torn tail that happens to end in
// ",end#"), and the CRC catches bit rot that still parses.
//
// Result payload:
//
//   workload,design,config_hash,<19 metric fields>,output_error,
//       wall_seconds[,detail_key,detail_value]...,end#
//
// Claim payload (see docs/OPERATIONS.md for the protocol):
//
//   claim#,workload,design,config_hash,owner,claimed_at,lease_seconds,end#
//
// The "claim#" kind marker occupies the workload slot of a result payload;
// the '#' keeps it disjoint from workload names (identifiers and
// trace:<path> specs), exactly as the "end#" sentinel stays disjoint from
// detail-counter keys. `claimed_at` is wall-clock (epoch) seconds; a claim
// is live until claimed_at + lease_seconds, expired afterwards. Claims are
// advisory scheduler hints: results remain the only source of truth, and a
// duplicate result produced by an over-eager reclaim is harmless
// (deterministic points, duplicate-tolerant loads).
//
// config_hash is the config_fingerprint() of the runner's *base* SimConfig
// (per-workload scaling is deterministic from it), so records produced
// under different configurations — e.g. the bench_ablation or --t1
// variants — can share one cache file: loads filter on the hash.
// Only the current version decodes. Lines of any other version (the
// unframed v2–v4 layouts, or a future format) are foreign: loads skip them
// silently, fsck counts them and a repair rewrite drops them. A cache
// written by an older binary is regenerated by re-running the sweep.
//
// Contract for concurrent *writer processes* (the --claim sweep):
//   - a record is encoded to one string and appended with a single write(2)
//     on an O_APPEND fd, under an exclusive flock(2) on the cache file —
//     writers never interleave partial lines. Lock acquisition and the
//     write are retried with bounded exponential backoff (common/
//     backoff.hh) before the writer degrades to in-memory-only results;
//   - FileLock only reports a lock once the locked fd still names the file
//     at the path, so a writer that opened the cache before a repair
//     renamed a new file into place re-opens it instead of appending to
//     the unlinked one;
//   - claim staking (try_claim_point) is read-modify-append under the same
//     flock, so two workers can never both win a fresh claim on one point.
//     The read goes through the locked fd and is incremental: a
//     per-process, per-path claim index folds only the bytes appended
//     since the last attempt, and starts again from byte 0 when the file
//     is another inode, got shorter, or changed before the parse offset;
//   - readers take no lock: load_result_cache() *quarantines* corrupt,
//     truncated or checksum-failing lines — each skipped with a one-line
//     stderr reason (capped per load) — skips claims and foreign versions,
//     and tolerates duplicate records (points are deterministic, so
//     duplicates carry identical values; the last one wins). Merging
//     per-job caches is therefore plain concatenation. avr_sweep --fsck
//     audits a cache offline; --fsck --repair rewrites it clean
//     (harness/fsck.hh).
//
// Fault sites on this path (common/fault_inject.hh): "cache.append" inside
// the result-record write loop (kill = torn line), "cache.load" ahead of a
// warm-up read, "claim.stake" before the claim append (kill = die with the
// stake durably on disk), "lock.acquire" inside FileLock.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "harness/experiment.hh"

namespace avr {

/// Bump whenever results become incomparable (model changes) or the record
/// framing changes; config changes need no bump — records carry a config
/// fingerprint. Loads accept this version only; other versions are foreign.
inline constexpr int kResultCacheVersion = 5;

/// The (workload, design) pair results and claims are keyed by.
using ResultKey = std::pair<std::string, Design>;

/// One work-stealing claim: `owner` (a comma-free token, unique per
/// process) staked the point at wall-clock second `claimed_at` and promises
/// a result within `lease_seconds`. Later claim records for the same key
/// supersede earlier ones (last-writer-wins, serialized by the flock).
struct ClaimRecord {
  std::string workload;
  Design design = Design::kBaseline;
  uint64_t config_hash = 0;
  std::string owner;
  uint64_t claimed_at = 0;      // epoch seconds (wall clock)
  uint64_t lease_seconds = 0;

  /// True once the lease has run out as of wall-clock second `now`: the
  /// owner is presumed dead and the point may be reclaimed.
  bool expired(uint64_t now) const { return now >= claimed_at + lease_seconds; }
};

/// Outcome of one atomic claim attempt (try_claim_point).
enum class ClaimOutcome {
  kClaimed,    // we hold a live claim on the point — simulate it
  kReclaimed,  // same, but we superseded another owner's expired claim
  kDone,       // a result already exists — nothing to do
  kBusy,       // another owner holds a live claim — try again later
  kError,      // the cache file could not be opened/read/written
};

/// What one cache line turned out to be under the shared version/framing
/// policy (the single classifier behind decode_*, the loaders and fsck).
enum class CacheLineKind {
  kBlank,    // empty line
  kResult,   // a valid current-version result — *result is filled
  kClaim,    // a valid current-version claim — *claim is filled
  kForeign,  // another version's line (older or future format):
             //   not ours to judge, skipped silently
  kCorrupt,  // torn, checksum-failing or unparseable — *reason says why
};

/// Classifies `line`. `result`/`claim` receive the decoded record for
/// kResult/kClaim; `reason` (optional) the one-line quarantine cause for
/// kCorrupt.
CacheLineKind classify_cache_line(const std::string& line,
                                  ExperimentResult* result, ClaimRecord* claim,
                                  std::string* reason = nullptr);

/// One result CSV record (v5 framed), no trailing newline. Doubles are
/// written with max_digits10 precision so decode() round-trips them
/// bit-exactly — re-encoding a decoded record is value-identical.
std::string encode_result_line(const ExperimentResult& r);

/// Parses one result record. Returns false (leaving `*out`
/// unspecified) for blank, malformed, truncated, checksum-failing,
/// wrong-version — or claim — lines.
bool decode_result_line(const std::string& line, ExperimentResult* out);

/// One claim CSV record (v5 framed), no trailing newline.
std::string encode_claim_line(const ClaimRecord& c);

/// Parses one claim record; false for anything else (results included).
bool decode_claim_line(const std::string& line, ClaimRecord* out);

/// Appends one result record under the locking contract above, riding out
/// transient failures with bounded backoff. Returns false once retries are
/// exhausted (best-effort: the in-memory cache is the source of truth
/// within a process, and the caller warns loudly).
bool append_result_line(const std::string& path, const ExperimentResult& r);

/// Loads every valid result record; missing file yields an empty map.
/// Corrupt lines are quarantined with a one-line stderr reason each
/// (capped); transient read errors are retried with backoff, after which
/// the load degrades to an empty (in-memory-only) cache with a loud
/// warning rather than failing the sweep. When `config_filter` is set,
/// records whose config_hash differs are skipped — a runner only warms
/// from points simulated under its own configuration.
std::map<ResultKey, ExperimentResult> load_result_cache(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// Loads the *governing* claim per point: the last claim record in file
/// order for each (workload, design) key, config-filtered like
/// load_result_cache (but silent — the result loader owns the quarantine
/// warnings). Points that already have a result are still listed if
/// claimed — callers decide whether a claim is moot (result exists), live,
/// or expired.
std::map<ResultKey, ClaimRecord> load_claims(
    const std::string& path,
    std::optional<uint64_t> config_filter = std::nullopt);

/// Atomically stakes a claim for (want.workload, want.design) under
/// want.config_hash: holding the cache flock, brings this process's claim
/// index for `path` up to date (it parses only the complete lines appended
/// since the last attempt, or the whole file again if it was replaced,
/// shortened or rewritten; prof counters claim_bytes_parsed and
/// claim_rescans count that work) and
///   - returns kDone if a result for the point already exists,
///   - returns kBusy if another owner's claim is live at wall-clock second
///     `now` (a live claim by want.owner itself returns kClaimed without
///     appending a duplicate),
///   - otherwise appends `want` (stamped claimed_at = now) and returns
///     kClaimed — or kReclaimed when it superseded an expired foreign claim.
/// kError means the cache file could not be opened/read/written even after
/// the bounded lock-acquire retries; callers back off and retry, then
/// degrade to uncoordinated simulation (sweep.cc) rather than abort.
ClaimOutcome try_claim_point(const std::string& path, const ClaimRecord& want,
                             uint64_t now);

}  // namespace avr
