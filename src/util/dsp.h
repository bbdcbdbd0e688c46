// Summary statistics used by the reader-side decoding pipeline (the
// uplink decoder's hysteresis thresholds, paper §3.2 step 3).
#pragma once

#include <span>

namespace wb {

/// Sample mean (0 for an empty span).
double mean(std::span<const double> x);

/// Unbiased sample variance (0 for fewer than 2 samples).
double variance(std::span<const double> x);

/// Sample standard deviation.
double stddev(std::span<const double> x);

}  // namespace wb
