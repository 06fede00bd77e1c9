#include "cache/set_assoc_cache.hh"

#include <gtest/gtest.h>

#include "common/prng.hh"

namespace avr {
namespace {

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache c("t", 4096, 4);
  EXPECT_FALSE(c.access(0x1000, false));
  c.fill(0x1000, false);
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_EQ(c.counters().hits, 1u);
  EXPECT_EQ(c.counters().misses, 1u);
}

TEST(SetAssocCache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache("t", 1000, 3), std::invalid_argument);
  EXPECT_THROW(SetAssocCache("t", 4096, 0), std::invalid_argument);
  // 4096/4/64 = 16 sets: fine. 4096+64 not a multiple.
  EXPECT_THROW(SetAssocCache("t", 4096 + 64, 4), std::invalid_argument);
}

TEST(SetAssocCache, LruEviction) {
  // 1 set x 2 ways of 64 B lines.
  SetAssocCache c("t", 128, 2);
  c.fill(0x0, false);
  c.fill(0x40 * 16, false);  // any addr maps to set 0 with 1 set... sets=1
  // Touch the first line so the second becomes LRU.
  c.access(0x0, false);
  const Eviction ev = c.fill(0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x40u * 16);
}

TEST(SetAssocCache, DirtyBitOnWriteAndWritebackReporting) {
  SetAssocCache c("t", 128, 2);
  c.fill(0x0, false);
  c.access(0x0, /*write=*/true);
  c.fill(0x40 * 16, false);
  c.access(0x40 * 16, false);  // make line 0 LRU
  const Eviction ev = c.fill(0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);
  EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, FillWithDirtyFlag) {
  SetAssocCache c("t", 128, 2);
  c.fill(0x0, /*dirty=*/true);
  auto inv = c.invalidate(0x0);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
}

TEST(SetAssocCache, InvalidateMissing) {
  SetAssocCache c("t", 128, 2);
  EXPECT_FALSE(c.invalidate(0x123000).has_value());
}

TEST(SetAssocCache, MarkDirty) {
  SetAssocCache c("t", 128, 2);
  EXPECT_FALSE(c.mark_dirty(0x0));
  c.fill(0x0, false);
  EXPECT_TRUE(c.mark_dirty(0x0));
  EXPECT_TRUE(*c.invalidate(0x0));
}

TEST(SetAssocCache, ValidLinesEnumeratesAddressesCorrectly) {
  SetAssocCache c("t", 64 * 1024, 16);
  const uint64_t addrs[] = {0x10000, 0x2F040, 0xABCDE000};
  for (uint64_t a : addrs) c.fill(a, true);
  auto lines = c.valid_lines();
  EXPECT_EQ(lines.size(), 3u);
  for (uint64_t a : addrs) {
    bool found = false;
    for (auto& [addr, dirty] : lines)
      if (addr == line_addr(a)) {
        found = true;
        EXPECT_TRUE(dirty);
      }
    EXPECT_TRUE(found) << std::hex << a;
  }
}

TEST(SetAssocCache, ProbeHasNoSideEffects) {
  SetAssocCache c("t", 128, 2);
  c.fill(0x0, false);
  c.fill(0x40 * 16, false);
  c.probe(0x0);  // must NOT refresh LRU
  const Eviction ev = c.fill(0x40 * 32, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 0x0u);  // 0x0 was still LRU despite the probe
}

TEST(SetAssocCache, DistinctSetsDoNotInterfere) {
  SetAssocCache c("t", 8192, 2);  // 64 sets
  c.fill(0x0, false);
  c.fill(0x40, false);  // next line, different set
  EXPECT_TRUE(c.access(0x0, false));
  EXPECT_TRUE(c.access(0x40, false));
}

TEST(SetAssocCache, InvalidateThenFillPicksFreedWay) {
  // 1 set x 4 ways; valid_lines() lists ways in order, so it shows which
  // way each fill landed in.
  SetAssocCache c("t", 256, 4);
  const uint64_t a = 0x0, b = 0x40, cc = 0x80, d = 0xC0, e = 0x100, f = 0x140;
  for (uint64_t x : {a, b, cc, d}) c.fill(x, false);
  c.access(cc, false);  // the freed way is not the LRU one
  ASSERT_TRUE(c.invalidate(cc).has_value());
  Eviction ev = c.fill(e, false);
  EXPECT_FALSE(ev.valid);
  auto lines = c.valid_lines();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2].first, e);
  // Two freed ways: the lower one is taken first, then the other, and only
  // then does a fill evict the LRU line.
  c.invalidate(d);
  c.invalidate(b);
  EXPECT_FALSE(c.fill(f, false).valid);
  EXPECT_EQ(c.valid_lines()[1].first, f);
  EXPECT_FALSE(c.fill(cc, true).valid);
  EXPECT_EQ(c.valid_lines()[3].first, cc);
  ev = c.fill(d, false);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, a);
  EXPECT_EQ(c.valid_lines()[0].first, d);
}

TEST(SetAssocCache, FullSetLruVictimSequence) {
  // access() and mark_dirty() both refresh recency; the victims follow.
  SetAssocCache c("t", 256, 4);
  const uint64_t A = 0x0, B = 0x40, C = 0x80, D = 0xC0, E = 0x100;
  const uint64_t F = 0x140, G = 0x180, H = 0x1C0, I = 0x200, J = 0x240;
  for (uint64_t x : {A, B, C, D}) c.fill(x, false);
  c.access(B, false);
  c.mark_dirty(A);
  c.access(C, true);
  std::vector<std::pair<uint64_t, bool>> got;
  auto fill = [&](uint64_t x) {
    const Eviction ev = c.fill(x, false);
    ASSERT_TRUE(ev.valid);
    got.emplace_back(ev.addr, ev.dirty);
  };
  fill(E);
  fill(F);
  c.access(A, false);
  fill(G);
  fill(H);
  c.mark_dirty(F);
  fill(I);
  fill(J);
  const std::vector<std::pair<uint64_t, bool>> want = {
      {D, false}, {B, false}, {C, true}, {E, false}, {A, true}, {G, false}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(c.counters().evictions, 6u);
  EXPECT_EQ(c.counters().dirty_evictions, 2u);
}

TEST(SetAssocCache, VictimsMatchReferenceLruUnderRandomOps) {
  // 4 sets x 4 ways against a recency-list reference model, with
  // invalidates interleaved so freed ways get refilled mid-stream.
  SetAssocCache c("t", 1024, 4);
  struct RefLine {
    uint64_t addr;
    bool dirty;
  };
  std::vector<std::vector<RefLine>> ref(4);  // per set, LRU first
  auto ref_find = [&](uint64_t addr) {
    auto& s = ref[(addr / kCachelineBytes) % 4];
    for (size_t i = 0; i < s.size(); ++i)
      if (s[i].addr == addr) return std::make_pair(&s, i);
    return std::make_pair(&s, s.size());
  };
  Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t addr = rng.below(64) * kCachelineBytes;
    const uint64_t op = rng.below(10);
    auto [s, pos] = ref_find(addr);
    const bool present = pos < s->size();
    if (op == 0) {
      const auto inv = c.invalidate(addr);
      ASSERT_EQ(inv.has_value(), present);
      if (present) {
        EXPECT_EQ(*inv, (*s)[pos].dirty);
        s->erase(s->begin() + static_cast<ptrdiff_t>(pos));
      }
    } else if (op == 1) {
      ASSERT_EQ(c.mark_dirty(addr), present);
      if (present) {
        RefLine l = (*s)[pos];
        s->erase(s->begin() + static_cast<ptrdiff_t>(pos));
        s->push_back({l.addr, true});
      }
    } else {
      const bool write = op == 2;
      ASSERT_EQ(c.access(addr, write), present);
      if (present) {
        RefLine l = (*s)[pos];
        s->erase(s->begin() + static_cast<ptrdiff_t>(pos));
        s->push_back({l.addr, l.dirty || write});
        continue;
      }
      const Eviction ev = c.fill(addr, write);
      ASSERT_EQ(ev.valid, s->size() == 4);
      if (ev.valid) {
        EXPECT_EQ(ev.addr, s->front().addr);
        EXPECT_EQ(ev.dirty, s->front().dirty);
        s->erase(s->begin());
      }
      s->push_back({addr, write});
    }
  }
}

class CacheProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheProperty, OccupancyNeverExceedsCapacity) {
  SetAssocCache c("t", 16 * 1024, 8);  // 256 lines
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const uint64_t addr = rng.below(1 << 20) * kCachelineBytes;
    if (!c.access(addr, rng.below(2)))
      c.fill(addr, false);
  }
  EXPECT_LE(c.valid_lines().size(), 256u);
  EXPECT_EQ(c.counters().accesses, 5000u);
  EXPECT_EQ(c.counters().hits + c.counters().misses, 5000u);
}

TEST_P(CacheProperty, SmallWorkingSetAlwaysHitsAfterWarmup) {
  SetAssocCache c("t", 16 * 1024, 8);
  Xoshiro256 rng(GetParam() * 7);
  // 64 lines working set in a 256-line cache.
  std::vector<uint64_t> ws;
  for (int i = 0; i < 64; ++i) ws.push_back(rng.below(1 << 16) * kCachelineBytes);
  for (uint64_t a : ws)
    if (!c.access(a, false)) c.fill(a, false);
  for (int round = 0; round < 3; ++round)
    for (uint64_t a : ws) EXPECT_TRUE(c.access(a, false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace avr
