// Force-kernel implementations behind the dispatch layer.
//
// The exact kernels share one contract — "add to acc the accelerations the
// source block exerts on each target, skipping self-pairs per skip_offset"
// (the approximate Barnes-Hut kernel lives in bh_tree.hpp with the same
// contract plus an opening-angle parameter):
//
//   * scalar     — the pre-dispatch AoS double loop, unchanged.  It is the
//                  oracle: the tiled kernels are validated against it to a
//                  1e-10 max-abs bound (the only deviation is summation
//                  grouping across source tiles and a ~1e-15-relative
//                  Newton-iterated r^{-3/2}).
//   * tiled      — structure-of-arrays, cache-blocked, branch-free.  Targets
//                  are processed in register-resident micro-chunks of
//                  kTargetChunk, sources in L1-resident tiles of
//                  kSourceTile.  The self-interaction window implied by
//                  skip_offset is edge-cased into a separate strip of rows
//                  so the bulk sweep carries no per-pair branch and
//                  auto-vectorises.
//   * tiled-mt   — the same kernel with target chunks sharded across a
//                  support::ThreadPool.  Shard boundaries are chunk-aligned
//                  and every target's source sweep stays in ascending index
//                  order inside a single task, so the result is
//                  bit-identical to single-threaded tiled regardless of
//                  pool size or scheduling.
//
// Virtual-time accounting is deliberately untouched: Cluster/compute() bill
// analytic op counts (kOpsPerPairForce etc.), so SimCommunicator results do
// not depend on which kernel produced the numbers — only wall-clock does.
#pragma once

#include <cstddef>
#include <span>

#include "nbody/types.hpp"

namespace specomp::support {
class ThreadPool;
}

namespace specomp::nbody::kernels {

/// Contiguous structure-of-arrays view of one particle block.
struct SoaView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* m = nullptr;  // may be null for target blocks (masses unused)
  std::size_t n = 0;
};

/// Register micro-tile: targets processed per inner sweep.  Accumulators for
/// one chunk (3 * kTargetChunk doubles) fit in vector registers.
inline constexpr std::size_t kTargetChunk = 8;
/// Source rows per cache tile: 4 arrays * 8 B * 1024 = 32 KiB, L1-resident.
inline constexpr std::size_t kSourceTile = 1024;

/// Reference kernel (the oracle): scalar AoS loop with a per-pair skip
/// branch, exactly the pre-dispatch accumulate_accelerations body.
void scalar_accumulate(std::span<const Vec3> target_pos,
                       std::span<const Vec3> src_pos,
                       std::span<const double> src_mass, double softening2,
                       std::size_t skip_offset, std::span<Vec3> acc);

/// Tiled kernel over targets [i_begin, i_end); adds into ax/ay/az (full
/// target-indexed arrays).  Building block shared by tiled and tiled-mt.
void tiled_accumulate_range(const SoaView& targets, const SoaView& sources,
                            double softening2, std::size_t skip_offset,
                            std::size_t i_begin, std::size_t i_end, double* ax,
                            double* ay, double* az);

/// Single-threaded tiled kernel over every target.
void tiled_accumulate(const SoaView& targets, const SoaView& sources,
                      double softening2, std::size_t skip_offset, double* ax,
                      double* ay, double* az);

/// Tiled kernel with target chunks sharded across `pool` (the shared pool
/// when null).  Bit-identical to tiled_accumulate.
void tiled_mt_accumulate(const SoaView& targets, const SoaView& sources,
                         double softening2, std::size_t skip_offset, double* ax,
                         double* ay, double* az,
                         support::ThreadPool* pool = nullptr);

}  // namespace specomp::nbody::kernels
