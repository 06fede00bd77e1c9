#include "cache/set_assoc_cache.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace avr {

SetAssocCache::SetAssocCache(std::string name, uint64_t size_bytes, uint32_t ways,
                             uint64_t line_bytes)
    : ways_(ways), line_bytes_(line_bytes), name_(std::move(name)) {
  if (ways == 0 || size_bytes % (ways * line_bytes) != 0)
    throw std::invalid_argument("cache size must be a multiple of ways*line");
  const uint64_t sets = size_bytes / (ways * line_bytes);
  if (!std::has_single_bit(sets))
    throw std::invalid_argument("number of sets must be a power of two");
  sets_ = static_cast<uint32_t>(sets);
  lines_.resize(uint64_t{sets_} * ways_);
}

SetAssocCache::Line* SetAssocCache::find(uint64_t addr) {
  const uint64_t set = set_of(addr);
  const uint64_t tag = tag_of(addr);
  Line* base = &lines_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w)
    if (base[w].tag == tag) return &base[w];
  return nullptr;
}

const SetAssocCache::Line* SetAssocCache::find(uint64_t addr) const {
  return const_cast<SetAssocCache*>(this)->find(addr);
}

bool SetAssocCache::probe(uint64_t addr) const { return find(addr) != nullptr; }

bool SetAssocCache::access(uint64_t addr, bool write) {
  Line* l = find(addr);
  ++counters_.accesses;
  if (!l) {
    ++counters_.misses;
    return false;
  }
  l->lru = ++lru_clock_;
  if (write) l->dirty = true;
  ++counters_.hits;
  return true;
}

Eviction SetAssocCache::fill(uint64_t addr, bool dirty) {
  assert(!probe(addr) && "fill of a line already present");
  const uint64_t set = set_of(addr);
  Line* base = &lines_[set * ways_];
  // First argmin of the stamps. Invalid ways hold lru == 0 and valid ways
  // unique stamps >= 1, so the first invalid way wins if there is one, else
  // the LRU line; the select compiles to conditional moves.
  uint32_t v = 0;
  uint64_t oldest = base[0].lru;
  for (uint32_t w = 1; w < ways_; ++w) {
    const bool older = base[w].lru < oldest;
    oldest = older ? base[w].lru : oldest;
    v = older ? w : v;
  }
  Line* victim = &base[v];
  Eviction ev;
  if (victim->valid()) {
    ev.valid = true;
    ev.dirty = victim->dirty;
    ev.addr = (victim->tag * sets_ + set) * line_bytes_;
    ++counters_.evictions;
    if (ev.dirty) ++counters_.dirty_evictions;
  }
  victim->dirty = dirty;
  victim->tag = tag_of(addr);
  victim->lru = ++lru_clock_;
  ++counters_.fills;
  return ev;
}

std::optional<bool> SetAssocCache::invalidate(uint64_t addr) {
  Line* l = find(addr);
  if (!l) return std::nullopt;
  const bool dirty = l->dirty;
  l->tag = kNoTag;
  l->lru = 0;  // keeps fill()'s invalid-ways-first order
  return dirty;
}

bool SetAssocCache::mark_dirty(uint64_t addr) {
  Line* l = find(addr);
  if (!l) return false;
  l->dirty = true;
  l->lru = ++lru_clock_;
  return true;
}

std::vector<std::pair<uint64_t, bool>> SetAssocCache::valid_lines() const {
  std::vector<std::pair<uint64_t, bool>> out;
  for (uint64_t set = 0; set < sets_; ++set)
    for (uint32_t w = 0; w < ways_; ++w) {
      const Line& l = lines_[set * ways_ + w];
      if (l.valid()) out.emplace_back((l.tag * sets_ + set) * line_bytes_, l.dirty);
    }
  return out;
}

StatGroup SetAssocCache::stats() const {
  StatGroup g(name_);
  g.set("accesses", counters_.accesses);
  g.set("hits", counters_.hits);
  g.set("misses", counters_.misses);
  g.set("fills", counters_.fills);
  g.set("evictions", counters_.evictions);
  g.set("dirty_evictions", counters_.dirty_evictions);
  return g;
}

}  // namespace avr
