#include "nbody/app.hpp"

#include <gtest/gtest.h>

#include "nbody/forces.hpp"
#include "nbody/init.hpp"
#include "nbody/serial.hpp"
#include "runtime/cluster.hpp"

namespace specomp::nbody {
namespace {

struct Fixture {
  NBodyConfig config;
  std::vector<Particle> initial;
  Partition partition;

  explicit Fixture(std::size_t n = 40, std::size_t ranks = 4) {
    config.n = n;
    config.dt = 1e-3;
    config.softening2 = 1e-3;
    initial = init_plummer(n, 31);
    partition = Partition::from_counts(
        runtime::Cluster::homogeneous(ranks, 1.0).proportional_partition(n));
  }
};

TEST(KinematicSpeculatorTest, ImplementsEquation10) {
  spec::History h(1);
  // One particle: r = (1,2,3), v = (0.5, 0, -0.5).
  h.record(3, std::vector<double>{1, 2, 3, 0.5, 0, -0.5});
  KinematicSpeculator spec(0.1);
  std::vector<double> one;
  spec.predict(h, 1, one);
  ASSERT_EQ(one.size(), 6u);
  EXPECT_DOUBLE_EQ(one[0], 1.05);
  EXPECT_DOUBLE_EQ(one[2], 2.95);
  EXPECT_DOUBLE_EQ(one[3], 0.5);  // velocity held
  std::vector<double> three;
  spec.predict(h, 3, three);
  EXPECT_DOUBLE_EQ(three[0], 1.15);  // horizon scales with steps
}

TEST(NBodyApp, PackInstallRoundTrip) {
  const Fixture f;
  NBodyApp app0(f.config, f.partition, f.initial, 0);
  NBodyApp app1(f.config, f.partition, f.initial, 1);
  const auto block = app0.pack_local();
  EXPECT_EQ(block.size(), f.partition.counts[0] * kDoublesPerParticle);
  app1.install_peer(0, block);  // must not corrupt anything
  const auto locals = app1.local_particles();
  for (std::size_t i = 0; i < locals.size(); ++i) {
    EXPECT_EQ(locals[i].pos, f.initial[f.partition.begin(1) + i].pos);
  }
}

TEST(NBodyApp, InitialBlocksMatchPartition) {
  const Fixture f;
  const auto blocks = NBodyApp::initial_blocks(f.partition, f.initial);
  ASSERT_EQ(blocks.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_EQ(blocks[r].size(),
              f.partition.counts[r] * kDoublesPerParticle);
  EXPECT_DOUBLE_EQ(blocks[0][0], f.initial[0].pos.x);
}

TEST(NBodyApp, ComputeStepMatchesSerialWithTrueBlocks) {
  // With every peer block exact, the union of the ranks' compute_steps must
  // reproduce the serial trajectory.
  const Fixture f;
  auto serial = f.initial;
  serial_step(serial, f.config.softening2, f.config.dt);

  for (int rank = 0; rank < 4; ++rank) {
    NBodyApp app(f.config, f.partition, f.initial, rank);
    app.compute_step();
    const auto locals = app.local_particles();
    const std::size_t lo = f.partition.begin(static_cast<std::size_t>(rank));
    for (std::size_t i = 0; i < locals.size(); ++i) {
      EXPECT_NEAR(locals[i].pos.x, serial[lo + i].pos.x, 1e-12);
      EXPECT_NEAR(locals[i].vel.x, serial[lo + i].vel.x, 1e-12);
    }
  }
}

TEST(NBodyApp, SaveRestoreRoundTrip) {
  const Fixture f;
  NBodyApp app(f.config, f.partition, f.initial, 2);
  const auto before = app.save_state();
  app.compute_step();
  const auto moved = app.save_state();
  EXPECT_NE(before, moved);
  app.restore_state(before);
  EXPECT_EQ(app.save_state(), before);
}

TEST(NBodyApp, SpeculationErrorZeroForExactPrediction) {
  Fixture f;
  NBodyApp app(f.config, f.partition, f.initial, 0);
  const auto block = NBodyApp::initial_blocks(f.partition, f.initial)[1];
  EXPECT_DOUBLE_EQ(app.speculation_error(1, block, block), 0.0);
}

TEST(NBodyApp, SpeculationErrorScalesWithDisplacement) {
  Fixture f;
  NBodyApp app(f.config, f.partition, f.initial, 0);
  const auto actual = NBodyApp::initial_blocks(f.partition, f.initial)[1];
  auto small = actual;
  auto large = actual;
  for (std::size_t i = 0; i < small.size(); i += kDoublesPerParticle) {
    small[i] += 1e-4;
    large[i] += 1e-2;
  }
  const double e_small = app.speculation_error(1, small, actual);
  const double e_large = app.speculation_error(1, large, actual);
  EXPECT_GT(e_small, 0.0);
  EXPECT_GT(e_large, e_small * 10.0);
}

TEST(NBodyApp, CorrectLastStepEqualsRecomputeWithActual) {
  // Compute with a perturbed (speculated) peer block, then correct with the
  // actual: the state must match having computed with the actual directly.
  const Fixture f;

  const auto blocks = NBodyApp::initial_blocks(f.partition, f.initial);
  auto speculated = blocks[1];
  for (std::size_t i = 0; i < speculated.size(); i += kDoublesPerParticle)
    speculated[i] += 5e-3;  // displace peer 1's particles in x

  NBodyApp corrected(f.config, f.partition, f.initial, 0);
  corrected.install_peer(1, speculated);
  corrected.compute_step();
  ASSERT_TRUE(corrected.correct_last_step(1, blocks[1]));

  NBodyApp exact(f.config, f.partition, f.initial, 0);
  exact.compute_step();  // constructed with true initial state everywhere

  const auto a = corrected.local_particles();
  const auto b = exact.local_particles();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].pos.x, b[i].pos.x, 1e-13);
    EXPECT_NEAR(a[i].vel.x, b[i].vel.x, 1e-13);
    EXPECT_NEAR(a[i].vel.y, b[i].vel.y, 1e-13);
  }
}

TEST(NBodyApp, CorrectionsForTwoPeersCompose) {
  const Fixture f;
  const auto blocks = NBodyApp::initial_blocks(f.partition, f.initial);
  auto spec1 = blocks[1];
  auto spec2 = blocks[2];
  for (std::size_t i = 0; i < spec1.size(); i += kDoublesPerParticle)
    spec1[i] += 3e-3;
  for (std::size_t i = 0; i < spec2.size(); i += kDoublesPerParticle)
    spec2[i + 1] -= 4e-3;

  NBodyApp corrected(f.config, f.partition, f.initial, 0);
  corrected.install_peer(1, spec1);
  corrected.install_peer(2, spec2);
  corrected.compute_step();
  ASSERT_TRUE(corrected.correct_last_step(1, blocks[1]));
  ASSERT_TRUE(corrected.correct_last_step(2, blocks[2]));

  NBodyApp exact(f.config, f.partition, f.initial, 0);
  exact.compute_step();
  const auto a = corrected.local_particles();
  const auto b = exact.local_particles();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR((a[i].vel - b[i].vel).norm(), 0.0, 1e-12);
}

TEST(NBodyApp, ForceErrorInstrumentation) {
  Fixture f;
  NBodyApp app(f.config, f.partition, f.initial, 0);
  app.enable_force_error_measurement(true);
  app.compute_step();  // populate prev positions
  const auto actual = NBodyApp::initial_blocks(f.partition, f.initial)[1];
  auto speculated = actual;
  for (std::size_t i = 0; i < speculated.size(); i += kDoublesPerParticle)
    speculated[i] += 1e-3;
  (void)app.speculation_error(1, speculated, actual);
  EXPECT_GT(app.force_error_stats().count(), 0u);
  EXPECT_GT(app.force_error_stats().max(), 0.0);
  EXPECT_LT(app.force_error_stats().max(), 1.0);
}

TEST(NBodyApp, OpCountsFollowPaperConstants) {
  const Fixture f;
  NBodyApp app(f.config, f.partition, f.initial, 0);
  const auto n_0 = static_cast<double>(f.partition.counts[0]);
  const auto n_1 = static_cast<double>(f.partition.counts[1]);
  EXPECT_DOUBLE_EQ(app.compute_ops(),
                   70.0 * n_0 * (static_cast<double>(f.config.n) - 1.0) +
                       12.0 * n_0);
  EXPECT_DOUBLE_EQ(app.check_ops(1), 24.0 * n_1);
  EXPECT_GT(app.correct_ops(1), 0.0);
}

}  // namespace
}  // namespace specomp::nbody
