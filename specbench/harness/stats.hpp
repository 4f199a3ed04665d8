// Small summary helpers for the benchmark's samples.
#pragma once

#include <algorithm>
#include <vector>

namespace specbench {

/// Median (mean of the middle two for an even count); 0 for no samples.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace specbench
