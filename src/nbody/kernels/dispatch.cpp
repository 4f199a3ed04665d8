#include "nbody/kernels/dispatch.hpp"

#include <atomic>
#include <vector>

#include "nbody/kernels/bh_tree.hpp"
#include "nbody/kernels/kernel.hpp"
#include "nbody/kernels/simd.hpp"
#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace specomp::nbody::kernels {

namespace {

std::atomic<ForceKernel> g_default{ForceKernel::Auto};
std::atomic<double> g_bh_theta{0.5};

/// Thread-local SoA staging buffers, reused across calls.  Each
/// ThreadCommunicator rank gets its own set; every rank of one simulated run
/// shares the set of the thread running its DES kernel.  That is safe
/// because accumulate() never yields to another rank while it holds them.
struct SoaScratch {
  std::vector<double> tx, ty, tz;
  std::vector<double> sx, sy, sz, sm;
  std::vector<double> ax, ay, az;
};

SoaScratch& scratch() {
  thread_local SoaScratch s;
  return s;
}

/// The widest usable simd tier as a ForceKernel, or Tiled when none is.
ForceKernel best_single_thread_exact() {
  switch (widest_simd_tier()) {
    case SimdTier::Avx512: return ForceKernel::SimdAvx512;
    case SimdTier::Avx2: return ForceKernel::SimdAvx2;
    case SimdTier::None: break;
  }
  return ForceKernel::Tiled;
}

}  // namespace

support::ThreadPool& kernel_pool() { return support::ThreadPool::shared(); }

std::optional<ForceKernel> parse_force_kernel(std::string_view name) noexcept {
  if (name == "auto") return ForceKernel::Auto;
  if (name == "scalar") return ForceKernel::Scalar;
  if (name == "tiled") return ForceKernel::Tiled;
  if (name == "tiled-mt") return ForceKernel::TiledMT;
  if (name == "simd-avx2") return ForceKernel::SimdAvx2;
  if (name == "simd-avx512") return ForceKernel::SimdAvx512;
  if (name == "tree") return ForceKernel::Tree;
  return std::nullopt;
}

std::string_view force_kernel_name(ForceKernel kind) noexcept {
  switch (kind) {
    case ForceKernel::Auto: return "auto";
    case ForceKernel::Scalar: return "scalar";
    case ForceKernel::Tiled: return "tiled";
    case ForceKernel::TiledMT: return "tiled-mt";
    case ForceKernel::SimdAvx2: return "simd-avx2";
    case ForceKernel::SimdAvx512: return "simd-avx512";
    case ForceKernel::Tree: return "tree";
  }
  return "auto";
}

std::string_view force_kernel_names() noexcept {
  return "auto|scalar|tiled|tiled-mt|simd-avx2|simd-avx512|tree";
}

std::optional<ForceKernel> parse_force_kernel_cli(std::string_view name,
                                                 std::string& error) {
  if (const auto kind = parse_force_kernel(name)) return kind;
  error = "unknown --kernel '";
  error += name;
  error += "' (valid: ";
  error += force_kernel_names();
  error += ")";
  return std::nullopt;
}

bool kernel_uses_bh_theta(ForceKernel kind) noexcept {
  return kind == ForceKernel::Tree || kind == ForceKernel::Auto;
}

void set_bh_opening_angle(double theta) noexcept {
  g_bh_theta.store(theta, std::memory_order_relaxed);
}

double bh_opening_angle() noexcept {
  return g_bh_theta.load(std::memory_order_relaxed);
}

void set_default_force_kernel(ForceKernel kind) noexcept {
  g_default.store(kind, std::memory_order_relaxed);
}

ForceKernel default_force_kernel() noexcept {
  return g_default.load(std::memory_order_relaxed);
}

ForceKernel resolve_force_kernel(ForceKernel kind, std::size_t targets,
                                 std::size_t sources, unsigned pool_workers) {
  if (kind == ForceKernel::Auto) kind = default_force_kernel();
  if (kind != ForceKernel::Auto) {
    // Forced simd tiers on hardware (or builds) that cannot run them fall
    // back to the widest usable tier, then tiled — never an illegal
    // instruction, and still deterministic per process.
    if (kind == ForceKernel::SimdAvx512 &&
        !simd_tier_usable(SimdTier::Avx512)) {
      kind = simd_tier_usable(SimdTier::Avx2) ? ForceKernel::SimdAvx2
                                              : ForceKernel::Tiled;
    }
    if (kind == ForceKernel::SimdAvx2 && !simd_tier_usable(SimdTier::Avx2))
      kind = ForceKernel::Tiled;
    return kind;
  }
  if (targets * sources < kScalarPairCutoff) return ForceKernel::Scalar;
  if (sources >= kTreeSourceCutoff) return ForceKernel::Tree;
  if (targets >= kMinTargetsForMT && pool_workers > 0)
    return ForceKernel::TiledMT;
  return best_single_thread_exact();
}

ForceKernel resolve_force_kernel(ForceKernel kind, std::size_t targets,
                                 std::size_t sources) {
  return resolve_force_kernel(kind, targets, sources,
                              kernel_pool().worker_count());
}

void accumulate(ForceKernel kind, std::span<const Vec3> target_pos,
                std::span<const Vec3> src_pos, std::span<const double> src_mass,
                double softening2, std::size_t skip_offset,
                std::span<Vec3> acc) {
  SPEC_EXPECTS(src_pos.size() == src_mass.size());
  SPEC_EXPECTS(acc.size() == target_pos.size());
  kind = resolve_force_kernel(kind, target_pos.size(), src_pos.size());

  if (kind == ForceKernel::Tree) {
    // The tree kernel works on the AoS spans directly (it builds its own
    // sorted SoA image).
    bh_accumulate(target_pos, src_pos, src_mass, softening2, skip_offset, acc,
                  bh_opening_angle());
    return;
  }

  if (kind == ForceKernel::Scalar) {
    scalar_accumulate(target_pos, src_pos, src_mass, softening2, skip_offset,
                      acc);
    return;
  }

  const std::size_t nt = target_pos.size();
  const std::size_t ns = src_pos.size();
  SoaScratch& s = scratch();
  s.tx.resize(nt);
  s.ty.resize(nt);
  s.tz.resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    s.tx[i] = target_pos[i].x;
    s.ty[i] = target_pos[i].y;
    s.tz[i] = target_pos[i].z;
  }
  s.sx.resize(ns);
  s.sy.resize(ns);
  s.sz.resize(ns);
  s.sm.resize(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    s.sx[j] = src_pos[j].x;
    s.sy[j] = src_pos[j].y;
    s.sz[j] = src_pos[j].z;
    s.sm[j] = src_mass[j];
  }
  s.ax.assign(nt, 0.0);
  s.ay.assign(nt, 0.0);
  s.az.assign(nt, 0.0);

  const SoaView targets{s.tx.data(), s.ty.data(), s.tz.data(), nullptr, nt};
  const SoaView sources{s.sx.data(), s.sy.data(), s.sz.data(), s.sm.data(), ns};
  switch (kind) {
    case ForceKernel::TiledMT:
      tiled_mt_accumulate(targets, sources, softening2, skip_offset,
                          s.ax.data(), s.ay.data(), s.az.data(),
                          &kernel_pool());
      break;
    case ForceKernel::SimdAvx2:
      simd_accumulate(SimdTier::Avx2, targets, sources, softening2,
                      skip_offset, s.ax.data(), s.ay.data(), s.az.data());
      break;
    case ForceKernel::SimdAvx512:
      simd_accumulate(SimdTier::Avx512, targets, sources, softening2,
                      skip_offset, s.ax.data(), s.ay.data(), s.az.data());
      break;
    default:
      tiled_accumulate(targets, sources, softening2, skip_offset, s.ax.data(),
                       s.ay.data(), s.az.data());
      break;
  }

  for (std::size_t i = 0; i < nt; ++i) {
    acc[i].x += s.ax[i];
    acc[i].y += s.ay[i];
    acc[i].z += s.az[i];
  }
}

}  // namespace specomp::nbody::kernels
