// Micro-benchmarks of the decoupled AVR LLC model, the comparison LLC
// designs and a conventional set-associative cache model (simulator
// throughput, not hardware latency).
#include <benchmark/benchmark.h>

#include "avr/avr_llc.hh"
#include "baselines/doppelganger_system.hh"
#include "baselines/truncate_system.hh"
#include "cache/set_assoc_cache.hh"
#include "common/prng.hh"

namespace {

using namespace avr;

void BM_ConventionalLookup(benchmark::State& state) {
  SetAssocCache c("bench", 1 << 20, 16);
  Xoshiro256 rng(1);
  for (int i = 0; i < 8192; ++i) {
    const uint64_t line = rng.below(1 << 14) * 64;
    if (!c.probe(line)) c.fill(line, false);
  }
  Xoshiro256 addr(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(addr.below(1 << 14) * 64, false));
  }
}
BENCHMARK(BM_ConventionalLookup);

void BM_AvrUclLookup(benchmark::State& state) {
  AvrLlc llc(CacheConfig{1 << 20, 16, 15});
  Xoshiro256 rng(1);
  std::vector<LlcVictim> v;
  for (int i = 0; i < 8192; ++i) {
    const uint64_t line = rng.below(1 << 14) * 64;
    if (!llc.ucl_present(line)) llc.ucl_insert(line, false, v);
    v.clear();
  }
  Xoshiro256 addr(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.ucl_access(addr.below(1 << 14) * 64, false));
  }
}
BENCHMARK(BM_AvrUclLookup);

void BM_AvrCmsInsertRemove(benchmark::State& state) {
  AvrLlc llc(CacheConfig{1 << 20, 16, 15});
  std::vector<LlcVictim> v;
  uint64_t block = 0;
  for (auto _ : state) {
    llc.cms_insert(block * kBlockBytes, 4, false, v);
    llc.cms_remove(block * kBlockBytes);
    v.clear();
    block = (block + 1) & 1023;
  }
}
BENCHMARK(BM_AvrCmsInsertRemove);

void BM_AvrUclInsertEvict(benchmark::State& state) {
  AvrLlc llc(CacheConfig{64 * 1024, 8, 15});
  Xoshiro256 rng(7);
  std::vector<LlcVictim> v;
  for (auto _ : state) {
    const uint64_t line = rng.below(1 << 16) * 64;
    if (!llc.ucl_present(line)) llc.ucl_insert(line, false, v);
    v.clear();
  }
}
BENCHMARK(BM_AvrUclInsertEvict);

void BM_CacheFill(benchmark::State& state) {
  // Every fill is of a new line into a full 16-way set: the victim search
  // runs over all ways each time.
  SetAssocCache c("bench", 1 << 20, 16);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.fill(line, false));
    line += kCachelineBytes;
  }
}
BENCHMARK(BM_CacheFill);

// A 2 MB LLC (32K data entries) under a cyclic read stream over twice the
// Doppelganger tag reach, so every request misses.
constexpr uint64_t kLlcBytes = 2 << 20;
constexpr uint64_t kStreamLines = 2 * 4 * kLlcBytes / kCachelineBytes;

/// Random, pairwise distinct line contents: nothing deduplicates, so every
/// Doppelganger miss allocates (and, once full, evicts) a data entry.
uint64_t random_region(RegionRegistry& regions) {
  const uint64_t base = regions.allocate("stream", kStreamLines * kCachelineBytes, true);
  Xoshiro256 rng(3);
  for (uint64_t i = 0; i < kStreamLines * kValuesPerLine; ++i)
    regions.store<float>(base + i * sizeof(float),
                         static_cast<float>(rng.uniform(-1000.0, 1000.0)));
  return base;
}

template <class Llc>
void run_miss_stream(benchmark::State& state) {
  SimConfig cfg;
  cfg.llc = {kLlcBytes, 16, 15};
  RegionRegistry regions;
  Llc llc(cfg, regions);
  const uint64_t base = random_region(regions);
  uint64_t i = 0, now = 0;
  // Warm up over the tag reach (4x the data entries): the data array fills.
  for (; i < kStreamLines / 2; ++i) llc.request(now++, base + i * kCachelineBytes, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(llc.request(now++, base + i * kCachelineBytes, false));
    i = (i + 1) % kStreamLines;
  }
}

void BM_DgangerRequest(benchmark::State& state) {
  run_miss_stream<DoppelgangerSystem>(state);
}
BENCHMARK(BM_DgangerRequest);

void BM_TruncateRequest(benchmark::State& state) {
  run_miss_stream<TruncateSystem>(state);
}
BENCHMARK(BM_TruncateRequest);

}  // namespace

BENCHMARK_MAIN();
