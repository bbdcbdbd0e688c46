#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/bits.h"
#include "util/check.h"

namespace wb {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double ss = 0.0;
  for (double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

void RunningStats::push(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::reset() { *this = RunningStats{}; }

void BerCounter::add(std::span<const std::uint8_t> truth,
                     std::span<const std::uint8_t> decoded) {
  errors_ += hamming_distance(truth, decoded);
  bits_ += std::max(truth.size(), decoded.size());
}

void BerCounter::add_counts(std::size_t errors, std::size_t bits) {
  errors_ += errors;
  bits_ += bits;
}

double BerCounter::ber() const {
  if (bits_ == 0) return 0.0;
  return static_cast<double>(errors_) / static_cast<double>(bits_);
}

double BerCounter::ber_floored() const {
  if (bits_ == 0) return 0.0;
  if (errors_ == 0) return 0.5 / static_cast<double>(bits_);
  return ber();
}

void BerCounter::reset() { *this = BerCounter{}; }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  WB_REQUIRE(hi > lo);
  WB_REQUIRE(bins > 0);
}

void Histogram::push(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<long>(std::floor(frac * static_cast<double>(
                                              counts_.size())));
  idx = std::clamp(idx, 0L, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_center(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * w;
}

double Histogram::density(std::size_t i) const {
  if (total_ == 0) return 0.0;
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return static_cast<double>(counts_.at(i)) /
         (static_cast<double>(total_) * w);
}

std::size_t Histogram::count_modes(double min_height,
                                   double max_valley) const {
  if (total_ == 0) return 0;
  // Light smoothing (3-tap box) to suppress single-bin jitter before mode
  // counting.
  const std::size_t n = counts_.size();
  std::vector<double> smooth(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = static_cast<double>(counts_[i]);
    double w = 1.0;
    if (i > 0) {
      acc += static_cast<double>(counts_[i - 1]);
      w += 1.0;
    }
    if (i + 1 < n) {
      acc += static_cast<double>(counts_[i + 1]);
      w += 1.0;
    }
    smooth[i] = acc / w;
  }
  const double peak = *std::max_element(smooth.begin(), smooth.end());
  if (peak <= 0.0) return 0;
  const double floor = peak * min_height;

  // Collect candidate peaks above the floor.
  struct Peak {
    std::size_t at;
    double height;
  };
  std::vector<Peak> peaks;
  for (std::size_t i = 0; i < n; ++i) {
    const double left = (i > 0) ? smooth[i - 1] : -1.0;
    const double right = (i + 1 < n) ? smooth[i + 1] : -1.0;
    if (smooth[i] >= floor && smooth[i] > left && smooth[i] >= right) {
      peaks.push_back(Peak{i, smooth[i]});
      // Skip the plateau so a flat-topped mode counts once.
      while (i + 1 < n && smooth[i + 1] == smooth[i]) ++i;
    }
  }
  if (peaks.empty()) return 0;

  // Merge adjacent peaks that lack a real valley between them.
  std::size_t modes = 1;
  std::size_t prev = peaks.front().at;
  double prev_h = peaks.front().height;
  for (std::size_t p = 1; p < peaks.size(); ++p) {
    double valley = peaks[p].height;
    for (std::size_t i = prev; i <= peaks[p].at; ++i) {
      valley = std::min(valley, smooth[i]);
    }
    if (valley <= max_valley * std::min(prev_h, peaks[p].height)) {
      ++modes;
      prev = peaks[p].at;
      prev_h = peaks[p].height;
    } else if (peaks[p].height > prev_h) {
      // Merged: keep the taller representative.
      prev = peaks[p].at;
      prev_h = peaks[p].height;
    }
  }
  return modes;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace wb
