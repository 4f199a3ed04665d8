#include "spec/speculator.hpp"

#include <stdexcept>
#include <string>

#include "support/contracts.hpp"

namespace specomp::spec {

void HoldLastSpeculator::predict(const History& history, int steps,
                                 std::vector<double>& out) const {
  SPEC_EXPECTS(!history.empty());
  SPEC_EXPECTS(steps >= 1);
  const auto& newest = history.back(0).block;
  out.assign(newest.begin(), newest.end());
}

void LinearSpeculator::predict(const History& history, int steps,
                               std::vector<double>& out) const {
  SPEC_EXPECTS(!history.empty());
  SPEC_EXPECTS(steps >= 1);
  const auto& newest = history.back(0);
  if (history.size() < 2) {  // degrade to hold-last
    out.assign(newest.block.begin(), newest.block.end());
    return;
  }
  const auto& prev = history.back(1);
  SPEC_ASSERT(prev.block.size() == newest.block.size());
  // Slope per iteration accounts for a possible gap between history entries
  // (entries may be more than one iteration apart after deep speculation).
  const double gap =
      static_cast<double>(newest.iteration - prev.iteration);
  SPEC_ASSERT(gap >= 1.0);
  out.resize(newest.block.size());
  const double s = static_cast<double>(steps);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double slope = (newest.block[i] - prev.block[i]) / gap;
    out[i] = newest.block[i] + s * slope;
  }
}

void QuadraticSpeculator::predict(const History& history, int steps,
                                  std::vector<double>& out) const {
  SPEC_EXPECTS(!history.empty());
  SPEC_EXPECTS(steps >= 1);
  if (history.size() < 3) {
    LinearSpeculator{}.predict(history, steps, out);
    return;
  }
  const auto& x0 = history.back(0);  // newest
  const auto& x1 = history.back(1);
  const auto& x2 = history.back(2);
  SPEC_ASSERT(x1.block.size() == x0.block.size());
  SPEC_ASSERT(x2.block.size() == x0.block.size());
  // Newton backward differences assuming unit spacing of the three entries;
  // with gaps this is an approximation, consistent with the paper's
  // "examining the history of the variable".
  const double s = static_cast<double>(steps);
  out.resize(x0.block.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double d1 = x0.block[i] - x1.block[i];
    const double d2 = x0.block[i] - 2.0 * x1.block[i] + x2.block[i];
    out[i] = x0.block[i] + s * d1 + 0.5 * s * (s + 1.0) * d2;
  }
}

WeightedHistorySpeculator::WeightedHistorySpeculator(std::vector<double> weights)
    : weights_(std::move(weights)) {
  SPEC_EXPECTS(!weights_.empty());
}

void WeightedHistorySpeculator::predict(const History& history, int steps,
                                        std::vector<double>& out) const {
  SPEC_EXPECTS(!history.empty());
  SPEC_EXPECTS(steps >= 1);
  const std::size_t terms = std::min(weights_.size(), history.size());
  // Renormalise over the available entries so short histories stay unbiased.
  double wsum = 0.0;
  for (std::size_t i = 0; i < terms; ++i) wsum += weights_[i];
  SPEC_EXPECTS(wsum != 0.0);
  out.assign(history.back(0).block.size(), 0.0);
  for (std::size_t i = 0; i < terms; ++i) {
    const auto& entry = history.back(i);
    SPEC_ASSERT(entry.block.size() == out.size());
    const double w = weights_[i] / wsum;
    for (std::size_t v = 0; v < out.size(); ++v) out[v] += w * entry.block[v];
  }
}

std::shared_ptr<Speculator> make_speculator(std::string_view name) {
  if (name == "hold-last") return std::make_shared<HoldLastSpeculator>();
  if (name == "linear") return std::make_shared<LinearSpeculator>();
  if (name == "quadratic") return std::make_shared<QuadraticSpeculator>();
  throw std::invalid_argument("unknown speculator: " + std::string(name));
}

}  // namespace specomp::spec
