// Generic set-associative, write-back/write-allocate cache model with true
// LRU replacement. Stores tags and state only; data values live in the
// functional backing store owned by the runtime.
//
// Used directly for the private L1/L2 caches and for the baseline LLC; the
// AVR LLC (src/avr/avr_llc.hh) has its own decoupled structure.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace avr {

struct Eviction {
  uint64_t addr = 0;
  bool valid = false;
  bool dirty = false;
};

/// Plain-field counters: this sits on the L1 hit path, executed once per
/// instrumented load/store, so no string-keyed maps here.
struct CacheCounters {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t dirty_evictions = 0;
};

class SetAssocCache {
 public:
  SetAssocCache(std::string name, uint64_t size_bytes, uint32_t ways,
                uint64_t line_bytes = kCachelineBytes);

  /// Lookup without side effects.
  bool probe(uint64_t addr) const;

  /// Lookup; on hit updates LRU (and dirty bit for writes) and returns true.
  bool access(uint64_t addr, bool write);

  /// Allocate `addr` (must not be present), evicting the LRU victim of its
  /// set if the set is full. Returns the eviction (valid=false if none).
  Eviction fill(uint64_t addr, bool dirty);

  /// Remove the line if present; returns whether it was dirty.
  std::optional<bool> invalidate(uint64_t addr);

  /// Mark an existing line dirty (e.g. a writeback landing from above).
  /// Returns false if the line is absent.
  bool mark_dirty(uint64_t addr);

  /// Fold `n` MRU-filter hits (accounted by MemoryHierarchy's line filter,
  /// which bypasses access()) into the counters: n accesses, n hits.
  void count_filtered_hits(uint64_t n) {
    counters_.accesses += n;
    counters_.hits += n;
  }

  /// Enumerate all valid lines (used to drain dirty state at end of run).
  std::vector<std::pair<uint64_t, bool>> valid_lines() const;

  uint32_t num_sets() const { return sets_; }
  uint32_t ways() const { return ways_; }
  uint64_t line_bytes() const { return line_bytes_; }
  const std::string& name() const { return name_; }

  const CacheCounters& counters() const { return counters_; }
  /// Snapshot of the counters as a StatGroup (cold path, for reporting).
  StatGroup stats() const;

 private:
  // An invalid line stores the sentinel tag, so the lookup scan — executed
  // once per instrumented load/store for the L1 — is a single compare per
  // way instead of a valid-check plus a tag compare. No real tag can be the
  // sentinel: tags are addr / line_bytes / sets < 2^58.
  static constexpr uint64_t kNoTag = ~uint64_t{0};
  struct Line {
    uint64_t tag = kNoTag;
    uint64_t lru = 0;  // higher = more recently used; 0 iff invalid
    bool dirty = false;

    bool valid() const { return tag != kNoTag; }
  };

  uint64_t set_of(uint64_t addr) const { return (addr / line_bytes_) & (sets_ - 1); }
  uint64_t tag_of(uint64_t addr) const { return addr / line_bytes_ / sets_; }
  Line* find(uint64_t addr);
  const Line* find(uint64_t addr) const;

  std::vector<Line> lines_;  // sets_ * ways_, set-major
  uint32_t sets_;
  uint32_t ways_;
  uint64_t line_bytes_;
  uint64_t lru_clock_ = 0;
  std::string name_;
  CacheCounters counters_;
};

}  // namespace avr
