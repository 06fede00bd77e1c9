// Example: using the compressor as a standalone library to inspect how AVR
// summarizes different data shapes — method selection (1D vs 2D), outlier
// placement, bias, and the per-block size/error trade-off.
//
//   build/examples/example_inspect_compression
#include <array>
#include <cmath>
#include <cstdio>

#include "avr/compressor.hh"
#include "common/fp_bits.hh"
#include "common/prng.hh"

using namespace avr;

namespace {

void inspect(const Compressor& comp, const char* label,
             const std::array<float, kValuesPerBlock>& block) {
  auto att = comp.compress(block);
  if (!att) {
    std::printf("%-24s FAILED (stored uncompressed, 16 lines)\n", label);
    return;
  }
  std::array<float, kValuesPerBlock> recon;
  comp.reconstruct(att->block, recon);
  double worst = 0;
  for (uint32_t i = 0; i < kValuesPerBlock; ++i)
    if (!att->block.outlier_map.test(i))
      worst = std::max(worst, relative_error(recon[i], block[i]));
  std::printf("%-24s %u line(s)  %-5s  bias %+4d  %3u outliers  "
              "avg err %.3f%%  worst non-outlier %.3f%%\n",
              label, att->block.lines(), to_string(att->block.method),
              att->block.bias, att->block.outliers.size(),
              100 * att->avg_error, 100 * worst);
}

}  // namespace

int main() {
  Compressor comp(AvrConfig{});
  std::array<float, kValuesPerBlock> b;
  Xoshiro256 rng(2024);

  std::printf("AVR block compression over different data shapes (T1 = %.2f%%)\n\n",
              100 * comp.t1());

  b.fill(3.14159f);
  inspect(comp, "constant", b);

  for (uint32_t i = 0; i < 256; ++i) b[i] = 10.0f + 0.3f * i;
  inspect(comp, "1D linear ramp", b);

  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = 100.0f + 4.0f * std::sin(0.2f * r) * std::cos(0.15f * c);
  inspect(comp, "smooth 2D field", b);

  for (uint32_t i = 0; i < 256; ++i)
    b[i] = 50.0f * (1.0f + 0.02f * static_cast<float>(rng.uniform(-1, 1)));
  inspect(comp, "2% jitter", b);

  for (uint32_t i = 0; i < 256; ++i) {
    b[i] = 20.0f + 0.05f * i;
    if (rng.uniform() < 0.08) b[i] *= 3.0f;  // sparse spikes
  }
  inspect(comp, "ramp + 8% spikes", b);

  for (uint32_t i = 0; i < 256; ++i) b[i] = static_cast<float>(rng.uniform(-1e6, 1e6));
  inspect(comp, "white noise", b);

  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = 1e-18f * (5.0f + 0.1f * r + 0.08f * c);
  inspect(comp, "tiny magnitudes (bias)", b);

  for (uint32_t r = 0; r < 16; ++r)
    for (uint32_t c = 0; c < 16; ++c)
      b[r * 16 + c] = 2e28f * (5.0f + 0.1f * r + 0.08f * c);
  inspect(comp, "huge magnitudes (bias)", b);

  return 0;
}
