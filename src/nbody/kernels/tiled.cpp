// Cache-blocked, branch-free SoA force kernel.
//
// Compiled with the kernel fast-flags (-O3 -fno-math-errno and, when
// available, -march=native — see src/nbody/CMakeLists.txt): the inner sweep
// is written so the compiler vectorises the kTargetChunk-wide loop, with
// accumulators held in registers across the whole source sweep of a tile.
#include "nbody/kernels/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace specomp::nbody::kernels {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SPEC_KERNEL_RESTRICT __restrict__
#else
#define SPEC_KERNEL_RESTRICT
#endif

/// Branch-free r2^{-3/2}: bit-trick reciprocal-sqrt seed (~3.4% error)
/// polished by four Newton–Raphson steps to ~2 ulp, then cubed.  Unlike
/// 1/(r2*sqrt(r2)) this is pure mul/add, so it pipelines and vectorises on
/// any target without IEEE divide/sqrt throughput limits.  Relative error
/// vs the scalar oracle's expression is ~1e-15, far inside the kernels'
/// 1e-10 equivalence budget.
inline double inv_r3(double r2) noexcept {
  double y = std::bit_cast<double>(0x5FE6EB50C7B537A9ULL -
                                   (std::bit_cast<std::uint64_t>(r2) >> 1));
  const double h = 0.5 * r2;
  y = y * (1.5 - h * y * y);
  y = y * (1.5 - h * y * y);
  y = y * (1.5 - h * y * y);
  y = y * (1.5 - h * y * y);
  return y * y * y;
}

/// One register-blocked chunk of W targets against source rows
/// [tile_begin, tile_end).  The self-interaction window [self_begin,
/// self_end) — already clamped into the tile by the caller — is walked with
/// a per-pair skip test; the sweeps on either side carry no branch at all.
/// Per target, rows are visited in ascending j order, so the accumulation
/// order is fixed and independent of threading.
template <std::size_t W>
void chunk_accumulate(const double* SPEC_KERNEL_RESTRICT tx,
                      const double* SPEC_KERNEL_RESTRICT ty,
                      const double* SPEC_KERNEL_RESTRICT tz,
                      const SoaView& s, std::size_t tile_begin,
                      std::size_t tile_end, std::size_t self_begin,
                      std::size_t self_end, std::size_t first_self_row,
                      double soft2, double* SPEC_KERNEL_RESTRICT ax,
                      double* SPEC_KERNEL_RESTRICT ay,
                      double* SPEC_KERNEL_RESTRICT az) {
  double lx[W];
  double ly[W];
  double lz[W];
  for (std::size_t k = 0; k < W; ++k) lx[k] = ly[k] = lz[k] = 0.0;

  const double* SPEC_KERNEL_RESTRICT sx = s.x;
  const double* SPEC_KERNEL_RESTRICT sy = s.y;
  const double* SPEC_KERNEL_RESTRICT sz = s.z;
  const double* SPEC_KERNEL_RESTRICT sm = s.m;

  auto sweep = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const double xj = sx[j];
      const double yj = sy[j];
      const double zj = sz[j];
      const double mj = sm[j];
      for (std::size_t k = 0; k < W; ++k) {
        const double dx = xj - tx[k];
        const double dy = yj - ty[k];
        const double dz = zj - tz[k];
        const double r2 = dx * dx + dy * dy + dz * dz + soft2;
        const double f = mj * inv_r3(r2);
        lx[k] += f * dx;
        ly[k] += f * dy;
        lz[k] += f * dz;
      }
    }
  };

  sweep(tile_begin, self_begin);
  for (std::size_t j = self_begin; j < self_end; ++j) {
    // Edge strip: at most W rows per chunk contain a self-pair.
    const double xj = sx[j];
    const double yj = sy[j];
    const double zj = sz[j];
    const double mj = sm[j];
    for (std::size_t k = 0; k < W; ++k) {
      if (j == first_self_row + k) continue;
      const double dx = xj - tx[k];
      const double dy = yj - ty[k];
      const double dz = zj - tz[k];
      const double r2 = dx * dx + dy * dy + dz * dz + soft2;
      const double f = mj * inv_r3(r2);
      lx[k] += f * dx;
      ly[k] += f * dy;
      lz[k] += f * dz;
    }
  }
  sweep(self_end, tile_end);

  for (std::size_t k = 0; k < W; ++k) {
    ax[k] += lx[k];
    ay[k] += ly[k];
    az[k] += lz[k];
  }
}

template <std::size_t W>
void chunk_at(const SoaView& t, const SoaView& s, std::size_t tile_begin,
              std::size_t tile_end, std::size_t i, std::size_t skip_offset,
              double soft2, double* ax, double* ay, double* az) {
  std::size_t self_begin = tile_end;
  std::size_t self_end = tile_end;
  std::size_t first_self_row = std::numeric_limits<std::size_t>::max();
  if (skip_offset != std::numeric_limits<std::size_t>::max()) {
    first_self_row = skip_offset + i;
    self_begin = std::clamp(first_self_row, tile_begin, tile_end);
    self_end = std::clamp(first_self_row + W, tile_begin, tile_end);
  }
  chunk_accumulate<W>(t.x + i, t.y + i, t.z + i, s, tile_begin, tile_end,
                      self_begin, self_end, first_self_row, soft2, ax + i,
                      ay + i, az + i);
}

}  // namespace

void tiled_accumulate_range(const SoaView& t, const SoaView& s, double soft2,
                            std::size_t skip_offset, std::size_t i_begin,
                            std::size_t i_end, double* ax, double* ay,
                            double* az) {
  for (std::size_t tile_begin = 0; tile_begin < s.n;
       tile_begin += kSourceTile) {
    const std::size_t tile_end = std::min(s.n, tile_begin + kSourceTile);
    std::size_t i = i_begin;
    for (; i + kTargetChunk <= i_end; i += kTargetChunk)
      chunk_at<kTargetChunk>(t, s, tile_begin, tile_end, i, skip_offset, soft2,
                             ax, ay, az);
    for (; i < i_end; ++i)
      chunk_at<1>(t, s, tile_begin, tile_end, i, skip_offset, soft2, ax, ay,
                  az);
  }
}

void tiled_accumulate(const SoaView& t, const SoaView& s, double soft2,
                      std::size_t skip_offset, double* ax, double* ay,
                      double* az) {
  tiled_accumulate_range(t, s, soft2, skip_offset, 0, t.n, ax, ay, az);
}

}  // namespace specomp::nbody::kernels
