#include "nbody/kernels/bh_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "support/contracts.hpp"

namespace specomp::nbody::kernels {

namespace {

/// Spreads the low 21 bits of `v` so consecutive bits land 3 apart —
/// the standard magic-number Morton expansion.
std::uint64_t expand_bits(std::uint64_t v) noexcept {
  v &= 0x1fffff;
  v = (v | v << 32) & 0x001f00000000ffffULL;
  v = (v | v << 16) & 0x001f0000ff0000ffULL;
  v = (v | v << 8) & 0x100f00f00f00f00fULL;
  v = (v | v << 4) & 0x10c30c30c30c30c3ULL;
  v = (v | v << 2) & 0x1249249249249249ULL;
  return v;
}

std::uint64_t morton_key(std::uint64_t ix, std::uint64_t iy,
                         std::uint64_t iz) noexcept {
  return expand_bits(ix) << 2 | expand_bits(iy) << 1 | expand_bits(iz);
}

/// Octant digit of `key` at tree level `depth` (the root's children are
/// split on depth 0's digit).  Bit layout matches morton_key: bit 2 = x,
/// bit 1 = y, bit 0 = z.
unsigned octant_at(std::uint64_t key, int depth) noexcept {
  return static_cast<unsigned>(key >> (3 * (kBhMaxDepth - 1 - depth))) & 7u;
}

/// Cells are laid out depth-first: a cell's first child (if any) is the next
/// cell, and `escape` is the index one past its whole subtree — so sibling
/// iteration is `c = cells[c].escape` and "skip this subtree" is free.  A
/// leaf has escape == its own index + 1.
struct Cell {
  std::uint32_t begin = 0;   ///< body range [begin, end) in sorted order
  std::uint32_t end = 0;
  std::uint32_t escape = 0;  ///< one past the subtree in cell order
  double com_x = 0.0, com_y = 0.0, com_z = 0.0;
  double mass = 0.0;
  double size = 0.0;         ///< cube side length
};

/// Per-thread tree storage, reused across calls.  Shared by the ranks of one
/// simulated run exactly like the SoA scratch in dispatch.cpp: no call
/// yields to another rank while it holds the tree.
struct TreeScratch {
  std::vector<std::uint64_t> keys;      // by original index
  std::vector<std::uint32_t> order;     // sorted pos -> original index
  std::vector<std::uint32_t> sorted_of; // original index -> sorted pos
  std::vector<double> sx, sy, sz, sm;   // bodies in sorted order
  std::vector<Cell> cells;
};

TreeScratch& scratch() {
  thread_local TreeScratch t;
  return t;
}

/// Recursive depth-first build over the contiguous sorted range
/// [begin, end).  Each octant of a cell is a contiguous subrange of the
/// Morton-sorted bodies, so children are found by boundary scans — no body
/// moves after the initial sort.  Children are visited in ascending octant
/// order, which fixes the centre-of-mass summation order.  Returns the cell
/// index; `cells` may reallocate during recursion, so no Cell reference is
/// held across a recursive call.
std::uint32_t build_cell(TreeScratch& t, std::uint32_t begin, std::uint32_t end,
                         int depth, double cx, double cy, double cz,
                         double half) {
  const auto index = static_cast<std::uint32_t>(t.cells.size());
  t.cells.push_back(Cell{});
  t.cells[index].begin = begin;
  t.cells[index].end = end;
  t.cells[index].size = 2.0 * half;

  if (end - begin > kBhNcrit && depth < kBhMaxDepth) {
    std::uint32_t bounds[9];
    bounds[0] = begin;
    std::uint32_t cursor = begin;
    for (unsigned oct = 0; oct < 8; ++oct) {
      while (cursor < end && octant_at(t.keys[t.order[cursor]], depth) == oct)
        ++cursor;
      bounds[oct + 1] = cursor;
    }
    SPEC_ASSERT(bounds[8] == end);

    std::uint32_t children[8];
    std::uint32_t child_count = 0;
    const double quarter = 0.5 * half;
    for (unsigned oct = 0; oct < 8; ++oct) {
      if (bounds[oct] == bounds[oct + 1]) continue;
      const double ox = (oct & 4u) != 0 ? cx + quarter : cx - quarter;
      const double oy = (oct & 2u) != 0 ? cy + quarter : cy - quarter;
      const double oz = (oct & 1u) != 0 ? cz + quarter : cz - quarter;
      children[child_count++] = build_cell(t, bounds[oct], bounds[oct + 1],
                                           depth + 1, ox, oy, oz, quarter);
    }

    Cell& cell = t.cells[index];
    cell.escape = static_cast<std::uint32_t>(t.cells.size());
    for (std::uint32_t c = 0; c < child_count; ++c) {
      const Cell& child = t.cells[children[c]];
      cell.mass += child.mass;
      cell.com_x += child.mass * child.com_x;
      cell.com_y += child.mass * child.com_y;
      cell.com_z += child.mass * child.com_z;
    }
    if (cell.mass > 0.0) {
      cell.com_x /= cell.mass;
      cell.com_y /= cell.mass;
      cell.com_z /= cell.mass;
    }
    return index;
  }

  // Leaf: centre of mass over bodies in ascending sorted order.
  Cell& cell = t.cells[index];
  cell.escape = index + 1;
  for (std::uint32_t s = begin; s < end; ++s) {
    const double m = t.sm[s];
    cell.mass += m;
    cell.com_x += m * t.sx[s];
    cell.com_y += m * t.sy[s];
    cell.com_z += m * t.sz[s];
  }
  if (cell.mass > 0.0) {
    cell.com_x /= cell.mass;
    cell.com_y /= cell.mass;
    cell.com_z /= cell.mass;
  }
  return index;
}

struct TraverseCtx {
  const TreeScratch* t;
  double px, py, pz;
  double theta2;
  double softening2;
  std::uint32_t self_sorted;  ///< sorted slot to skip; UINT32_MAX if none
  double ax = 0.0, ay = 0.0, az = 0.0;
  std::size_t interactions = 0;
};

void traverse(TraverseCtx& ctx, std::uint32_t cell_index) {
  const TreeScratch& t = *ctx.t;
  const Cell& cell = t.cells[cell_index];
  // A cell holding the target's own source slot is never summarised — the
  // descent bottoms out at the leaf where the self-pair is skipped exactly,
  // the same skip_offset contract as the exact kernels.
  const bool contains_self =
      ctx.self_sorted >= cell.begin && ctx.self_sorted < cell.end;

  if (!contains_self) {
    const double dx = cell.com_x - ctx.px;
    const double dy = cell.com_y - ctx.py;
    const double dz = cell.com_z - ctx.pz;
    const double d2 = dx * dx + dy * dy + dz * dz;
    // Accept when s^2 < θ^2 d^2 (strict, so θ=0 degenerates to the exact
    // sum).  d is the true distance to the centre of mass; softening enters
    // only the force evaluation — matching pair_acceleration's law
    // a = m d / (|d|^2 + eps^2)^{3/2}.
    if (cell.size * cell.size < ctx.theta2 * d2) {
      const double dist2 = d2 + ctx.softening2;
      const double inv = 1.0 / (dist2 * std::sqrt(dist2));
      const double w = cell.mass * inv;
      ctx.ax += w * dx;
      ctx.ay += w * dy;
      ctx.az += w * dz;
      ++ctx.interactions;
      return;
    }
  }

  if (cell.escape == cell_index + 1) {
    // Leaf: direct sum in ascending sorted order, skipping the self slot.
    for (std::uint32_t s = cell.begin; s < cell.end; ++s) {
      if (s == ctx.self_sorted) continue;
      const double dx = t.sx[s] - ctx.px;
      const double dy = t.sy[s] - ctx.py;
      const double dz = t.sz[s] - ctx.pz;
      const double dist2 = dx * dx + dy * dy + dz * dz + ctx.softening2;
      const double inv = 1.0 / (dist2 * std::sqrt(dist2));
      const double w = t.sm[s] * inv;
      ctx.ax += w * dx;
      ctx.ay += w * dy;
      ctx.az += w * dz;
      ++ctx.interactions;
    }
    return;
  }

  for (std::uint32_t c = cell_index + 1; c < cell.escape;
       c = t.cells[c].escape) {
    traverse(ctx, c);
  }
}

}  // namespace

std::size_t bh_accumulate(std::span<const Vec3> target_pos,
                          std::span<const Vec3> src_pos,
                          std::span<const double> src_mass, double softening2,
                          std::size_t skip_offset, std::span<Vec3> acc,
                          double theta) {
  SPEC_EXPECTS(src_pos.size() == src_mass.size());
  SPEC_EXPECTS(acc.size() == target_pos.size());
  SPEC_EXPECTS(theta >= 0.0);
  const std::size_t ns = src_pos.size();
  if (ns == 0 || target_pos.empty()) return 0;

  TreeScratch& t = scratch();

  // Bounding cube of the sources: cubic (equal sides), so Morton cells are
  // cubes and `size` in the opening criterion is a single number.
  double min_x = src_pos[0].x, max_x = src_pos[0].x;
  double min_y = src_pos[0].y, max_y = src_pos[0].y;
  double min_z = src_pos[0].z, max_z = src_pos[0].z;
  for (const Vec3& p : src_pos) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
    min_z = std::min(min_z, p.z);
    max_z = std::max(max_z, p.z);
  }
  const double side = std::max(
      {max_x - min_x, max_y - min_y, max_z - min_z,
       std::numeric_limits<double>::min()});  // degenerate: all coincident
  const double cx = 0.5 * (min_x + max_x);
  const double cy = 0.5 * (min_y + max_y);
  const double cz = 0.5 * (min_z + max_z);

  // Quantise to the 21-bit Morton grid over the bounding cube.
  constexpr double kGrid = 1u << 21;
  const double scale = kGrid / side;
  const double origin_x = cx - 0.5 * side;
  const double origin_y = cy - 0.5 * side;
  const double origin_z = cz - 0.5 * side;
  t.keys.resize(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    const auto quant = [scale](double v) {
      const double q = std::floor(v * scale);
      return static_cast<std::uint64_t>(std::clamp(q, 0.0, kGrid - 1.0));
    };
    t.keys[j] = morton_key(quant(src_pos[j].x - origin_x),
                           quant(src_pos[j].y - origin_y),
                           quant(src_pos[j].z - origin_z));
  }

  // Sort by (key, original index): the index tie-break pins the order of
  // coincident bodies, making the whole kernel input-deterministic.
  t.order.resize(ns);
  std::iota(t.order.begin(), t.order.end(), 0u);
  std::sort(t.order.begin(), t.order.end(),
            [&t](std::uint32_t a, std::uint32_t b) {
              if (t.keys[a] != t.keys[b]) return t.keys[a] < t.keys[b];
              return a < b;
            });
  t.sorted_of.resize(ns);
  t.sx.resize(ns);
  t.sy.resize(ns);
  t.sz.resize(ns);
  t.sm.resize(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const std::uint32_t j = t.order[s];
    t.sorted_of[j] = static_cast<std::uint32_t>(s);
    t.sx[s] = src_pos[j].x;
    t.sy[s] = src_pos[j].y;
    t.sz[s] = src_pos[j].z;
    t.sm[s] = src_mass[j];
  }

  t.cells.clear();
  t.cells.reserve(2 * ns / kBhNcrit + 16);
  build_cell(t, 0, static_cast<std::uint32_t>(ns), 0, cx, cy, cz, 0.5 * side);

  const double theta2 = theta * theta;
  std::size_t interactions = 0;
  for (std::size_t i = 0; i < target_pos.size(); ++i) {
    TraverseCtx ctx;
    ctx.t = &t;
    ctx.px = target_pos[i].x;
    ctx.py = target_pos[i].y;
    ctx.pz = target_pos[i].z;
    ctx.theta2 = theta2;
    ctx.softening2 = softening2;
    ctx.self_sorted = std::numeric_limits<std::uint32_t>::max();
    if (skip_offset != static_cast<std::size_t>(-1) && i + skip_offset < ns)
      ctx.self_sorted = t.sorted_of[i + skip_offset];
    traverse(ctx, 0);
    acc[i].x += ctx.ax;
    acc[i].y += ctx.ay;
    acc[i].z += ctx.az;
    interactions += ctx.interactions;
  }
  return interactions;
}

}  // namespace specomp::nbody::kernels
