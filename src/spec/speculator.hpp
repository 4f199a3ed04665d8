// Speculation functions.
//
// A Speculator predicts a peer's variable block `steps` iterations past the
// newest entry of its history.  The paper's general form is a weighted sum
// of past values (Section 3.1); concrete instances provided here:
//
//   HoldLastSpeculator        BW=1  x*(t+s) = x(t)
//   LinearSpeculator          BW=2  x*(t+s) = x(t) + s [x(t) - x(t-1)]
//   QuadraticSpeculator       BW=3  second-order Newton extrapolation
//   WeightedHistorySpeculator BW=n  x*(t+s) = sum_i w_i x(t-i+1)  (paper eq.)
//
// Applications with structural knowledge supply their own (the N-body code
// uses a kinematic speculator implementing the paper's eq. 10, r* = r + v dt).
//
// ops_per_variable() is f_spec in the paper's Table 1 — the operation count
// charged to the speculating processor per predicted variable.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "spec/history.hpp"

namespace specomp::spec {

class Speculator {
 public:
  virtual ~Speculator() = default;

  /// Writes the predicted block `steps` (>= 1) iterations after history's
  /// newest entry into `out`, resizing it to the block size; `out` may hold
  /// a block of any size on entry (its capacity is reused) and must not be
  /// storage of `history`.  Requires a non-empty history; uses at most
  /// backward_window() entries (gracefully degrades when fewer are
  /// available).
  ///
  /// Contract: the values written are a pure function of (history, steps).
  /// The engine relies on it to skip re-speculation during replay when the
  /// peer's history has not changed since the slot was predicted.
  virtual void predict(const History& history, int steps,
                       std::vector<double>& out) const = 0;

  /// BW: maximum number of past values consulted.
  virtual std::size_t backward_window() const noexcept = 0;
  /// f_spec: operations charged per speculated variable.
  virtual double ops_per_variable() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;
};

class HoldLastSpeculator final : public Speculator {
 public:
  void predict(const History& history, int steps,
               std::vector<double>& out) const override;
  std::size_t backward_window() const noexcept override { return 1; }
  double ops_per_variable() const noexcept override { return 1.0; }
  std::string_view name() const noexcept override { return "hold-last"; }
};

class LinearSpeculator final : public Speculator {
 public:
  void predict(const History& history, int steps,
               std::vector<double>& out) const override;
  std::size_t backward_window() const noexcept override { return 2; }
  double ops_per_variable() const noexcept override { return 3.0; }
  std::string_view name() const noexcept override { return "linear"; }
};

class QuadraticSpeculator final : public Speculator {
 public:
  void predict(const History& history, int steps,
               std::vector<double>& out) const override;
  std::size_t backward_window() const noexcept override { return 3; }
  double ops_per_variable() const noexcept override { return 8.0; }
  std::string_view name() const noexcept override { return "quadratic"; }
};

/// The paper's general weighted-sum form: x* = w_1 x(t) + w_2 x(t-1) + ...
/// Weights apply newest-first.  Note this form ignores `steps` (it is a
/// one-shot filter, not an extrapolation in s); it is included to study the
/// BW accuracy/complexity trade-off the paper describes.
class WeightedHistorySpeculator final : public Speculator {
 public:
  explicit WeightedHistorySpeculator(std::vector<double> weights);
  void predict(const History& history, int steps,
               std::vector<double>& out) const override;
  std::size_t backward_window() const noexcept override { return weights_.size(); }
  double ops_per_variable() const noexcept override {
    return 2.0 * static_cast<double>(weights_.size());
  }
  std::string_view name() const noexcept override { return "weighted-history"; }

 private:
  std::vector<double> weights_;
};

/// Convenience factory by name ("hold-last", "linear", "quadratic").
std::shared_ptr<Speculator> make_speculator(std::string_view name);

}  // namespace specomp::spec
