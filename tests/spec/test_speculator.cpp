#include "spec/speculator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "nbody/app.hpp"

namespace specomp::spec {
namespace {

History make_history(std::initializer_list<std::pair<long, double>> entries,
                     std::size_t capacity = 4) {
  History h(capacity);
  for (const auto& [iter, value] : entries)
    h.record(iter, std::vector<double>{value});
  return h;
}

/// One prediction into a fresh buffer.
std::vector<double> predicted(const Speculator& spec, const History& h,
                              int steps) {
  std::vector<double> out;
  spec.predict(h, steps, out);
  return out;
}

TEST(HoldLast, ReturnsNewest) {
  const History h = make_history({{0, 1.0}, {1, 5.0}});
  HoldLastSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 5.0);
  EXPECT_DOUBLE_EQ(predicted(spec, h, 3)[0], 5.0);
}

TEST(Linear, ExactOnAffineSignal) {
  // x(t) = 2t + 1
  const History h = make_history({{0, 1.0}, {1, 3.0}});
  LinearSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 5.0);   // t = 2
  EXPECT_DOUBLE_EQ(predicted(spec, h, 3)[0], 9.0);   // t = 4
}

TEST(Linear, HandlesGappedHistory) {
  // Entries at t = 0 and t = 3 on x(t) = 2t + 1: slope recovered from gap.
  const History h = make_history({{0, 1.0}, {3, 7.0}});
  LinearSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 2)[0], 11.0);  // t = 5
}

TEST(Linear, DegradesToHoldLastWithOneEntry) {
  const History h = make_history({{0, 4.0}});
  LinearSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 2)[0], 4.0);
}

TEST(Quadratic, ExactOnQuadraticSignal) {
  // x(t) = t^2: entries at t = 0, 1, 2.
  const History h = make_history({{0, 0.0}, {1, 1.0}, {2, 4.0}});
  QuadraticSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 9.0);    // t = 3
  EXPECT_DOUBLE_EQ(predicted(spec, h, 2)[0], 16.0);   // t = 4
}

TEST(Quadratic, DegradesToLinearWithTwoEntries) {
  const History h = make_history({{0, 1.0}, {1, 3.0}});
  QuadraticSpeculator spec;
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 5.0);
}

TEST(WeightedHistory, AveragesNewestFirst) {
  const History h = make_history({{0, 10.0}, {1, 20.0}});
  WeightedHistorySpeculator spec({0.75, 0.25});
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 0.75 * 20.0 + 0.25 * 10.0);
  EXPECT_EQ(spec.backward_window(), 2u);
}

TEST(WeightedHistory, RenormalisesShortHistory) {
  const History h = make_history({{0, 8.0}});
  WeightedHistorySpeculator spec({0.5, 0.3, 0.2});
  EXPECT_DOUBLE_EQ(predicted(spec, h, 1)[0], 8.0);
}

TEST(Speculators, MultiVariableBlocks) {
  History h(3);
  h.record(0, std::vector<double>{1.0, 10.0});
  h.record(1, std::vector<double>{2.0, 20.0});
  LinearSpeculator spec;
  const auto out = predicted(spec, h, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 30.0);
}

// The into-buffer API must not depend on what the buffer held before: the
// engine predicts into a slot's block, which may carry a longer or shorter
// block from an earlier iteration.  Every speculator, every history depth
// and several horizons, compared bit for bit against a fresh buffer.
TEST(Speculators, ReusedBufferOfAnySizeGetsBitIdenticalValues) {
  const std::vector<std::shared_ptr<const Speculator>> speculators = {
      std::make_shared<HoldLastSpeculator>(),
      std::make_shared<LinearSpeculator>(),
      std::make_shared<QuadraticSpeculator>(),
      std::make_shared<WeightedHistorySpeculator>(
          std::vector<double>{0.5, 0.3, 0.2}),
      std::make_shared<nbody::KinematicSpeculator>(0.03)};
  constexpr std::size_t kVars = 12;  // two particles for the kinematic one
  for (const auto& spec : speculators) {
    History h(spec->backward_window());
    for (long t = 0; t < 4; ++t) {
      std::vector<double> block(kVars);
      for (std::size_t i = 0; i < kVars; ++i)
        block[i] = std::sin(0.7 * static_cast<double>(i) +
                            0.3 * static_cast<double>(t * t));
      h.record(t, block);
      for (int steps = 1; steps <= 3; ++steps) {
        const std::vector<double> fresh = predicted(*spec, h, steps);
        ASSERT_EQ(fresh.size(), kVars) << spec->name();
        for (const std::size_t prior : {std::size_t{0}, std::size_t{5},
                                        kVars, std::size_t{40}}) {
          std::vector<double> reused(prior, -123.25);
          spec->predict(h, steps, reused);
          ASSERT_EQ(reused.size(), kVars) << spec->name();
          EXPECT_EQ(std::memcmp(reused.data(), fresh.data(),
                                kVars * sizeof(double)),
                    0)
              << spec->name() << " t=" << t << " steps=" << steps
              << " prior size " << prior;
        }
      }
    }
  }
}

TEST(Speculators, DeclaredWindowsAndCosts) {
  EXPECT_EQ(HoldLastSpeculator{}.backward_window(), 1u);
  EXPECT_EQ(LinearSpeculator{}.backward_window(), 2u);
  EXPECT_EQ(QuadraticSpeculator{}.backward_window(), 3u);
  EXPECT_GT(QuadraticSpeculator{}.ops_per_variable(),
            LinearSpeculator{}.ops_per_variable());
  EXPECT_GT(LinearSpeculator{}.ops_per_variable(),
            HoldLastSpeculator{}.ops_per_variable());
}

TEST(Speculators, FactoryByName) {
  EXPECT_EQ(make_speculator("hold-last")->name(), "hold-last");
  EXPECT_EQ(make_speculator("linear")->name(), "linear");
  EXPECT_EQ(make_speculator("quadratic")->name(), "quadratic");
  EXPECT_THROW((void)make_speculator("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace specomp::spec
