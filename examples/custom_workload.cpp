// Example: bringing your own application to the simulator.
//
// Shows the full runtime API surface: annotated allocation (the paper's
// malloc wrapper), instrumented loads/stores, surrounding-arithmetic
// accounting, and metric extraction — here for a simple image-blur kernel,
// compared across baseline and AVR.
//
//   build/examples/example_custom_workload
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "runtime/system.hh"

namespace {

using namespace avr;

/// A 3x3 box blur over a synthetic photo-like image (smooth regions with
/// sharp edges): the image is annotated approximable, the output is exact.
RunMetrics run_blur(Design design, double* out_checksum) {
  SimConfig cfg;
  cfg.scale_caches(16);
  cfg.llc.size_bytes = 64 * 1024;
  System sys(design, cfg);

  constexpr uint32_t kW = 256, kH = 192;
  // Handles resolve each region once; an access is then a byte offset.
  RegionHandle img = sys.alloc_region("image", uint64_t{kW} * kH * 4, /*approx=*/true);
  RegionHandle out = sys.alloc_region("blurred", uint64_t{kW} * kH * 4, /*approx=*/false);
  auto at = [](uint32_t x, uint32_t y) { return (uint64_t{y} * kW + x) * 4; };

  // Synthetic scene: smooth vignette + a few hard-edged rectangles.
  for (uint32_t y = 0; y < kH; ++y)
    for (uint32_t x = 0; x < kW; ++x) {
      float v = 128.0f + 80.0f * std::sin(0.01f * x) * std::cos(0.013f * y);
      if (x > 60 && x < 120 && y > 40 && y < 90) v = 240.0f;  // bright card
      if (x > 180 && x < 210 && y > 100 && y < 160) v = 15.0f;  // shadow
      sys.store_f32(img, at(x, y), v);
    }

  // Blur passes (each read-modify-writes the whole image working set).
  double checksum = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t y = 1; y + 1 < kH; ++y)
      for (uint32_t x = 1; x + 1 < kW; ++x) {
        float acc = 0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            acc += sys.load_f32(img, at(x + dx, y + dy));
        sys.ops(10);
        sys.store_f32(out, at(x, y), acc / 9.0f);
      }
    if (pass + 1 < 3) std::swap(img, out);
  }
  for (uint32_t y = 0; y < kH; ++y) checksum += sys.peek_f32(out, at(kW / 2, y));
  sys.finish();
  *out_checksum = checksum;
  return sys.metrics();
}

}  // namespace

int main() {
  double base_sum = 0, avr_sum = 0;
  const RunMetrics base = run_blur(Design::kBaseline, &base_sum);
  const RunMetrics avr = run_blur(Design::kAvr, &avr_sum);

  std::printf("image blur, baseline vs AVR\n");
  std::printf("  cycles        : %10.2fM -> %10.2fM (%.0f%%)\n", base.cycles / 1e6,
              avr.cycles / 1e6, 100.0 * avr.cycles / base.cycles);
  std::printf("  DRAM traffic  : %10.2fMB -> %10.2fMB (%.0f%%)\n",
              base.dram_bytes / 1048576.0, avr.dram_bytes / 1048576.0,
              100.0 * avr.dram_bytes / base.dram_bytes);
  std::printf("  AMAT          : %10.2f  -> %10.2f cycles\n", base.amat, avr.amat);
  std::printf("  compression   : %.1f:1\n", avr.compression_ratio);
  std::printf("  output drift  : %.4f%% (column checksum)\n",
              100.0 * std::abs(avr_sum - base_sum) / std::abs(base_sum));
  return 0;
}
