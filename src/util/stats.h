// Statistics used by experiments, benchmarks and the reader: running
// moments, BER counters, histograms (for the Fig-4 style PDFs), and the
// summary statistics behind the uplink decoder's hysteresis thresholds
// (paper §3.2 step 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wb {

/// Sample mean (0 for an empty span).
double mean(std::span<const double> x);

/// Unbiased sample variance (0 for fewer than 2 samples).
double variance(std::span<const double> x);

/// Sample standard deviation.
double stddev(std::span<const double> x);

/// Numerically stable running mean/variance (Welford).
class RunningStats {
 public:
  void push(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  void reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bit-error-rate accumulator. Compares decoded bits against truth and
/// keeps totals across runs; reports the paper's floor convention when no
/// errors were observed (BER = 0.5 / total, i.e. "fewer than one error").
class BerCounter {
 public:
  /// Accumulate errors between `truth` and `decoded` (length mismatch
  /// counts as errors, matching hamming_distance semantics).
  void add(std::span<const std::uint8_t> truth,
           std::span<const std::uint8_t> decoded);

  /// Accumulate pre-counted errors.
  void add_counts(std::size_t errors, std::size_t bits);

  std::size_t bits() const { return bits_; }
  std::size_t errors() const { return errors_; }

  /// Measured BER; exact ratio when errors were seen.
  double ber() const;

  /// BER with the paper's floor convention: if no errors were observed over
  /// N bits, report 0.5/N instead of 0 (the paper uses 5e-4 for 1800 bits,
  /// i.e. roughly one unobserved error in 2N).
  double ber_floored() const;

  void reset();

 private:
  std::size_t bits_ = 0;
  std::size_t errors_ = 0;
};

/// Fixed-range histogram with uniform bins; used to reproduce the Fig 4
/// PDFs of normalised CSI values.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Add a sample; out-of-range samples clamp into the edge bins.
  void push(double x);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count() const { return total_; }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }

  /// Center x-value of bin i.
  double bin_center(std::size_t i) const;

  /// Probability *density* of bin i (integrates to 1 over the range).
  double density(std::size_t i) const;

  /// Number of *separated* modes: local maxima of the smoothed density
  /// that exceed `min_height` x the global peak AND are separated from the
  /// neighbouring counted mode by a valley at most `max_valley` x the
  /// smaller of the two peak heights. Two half-merged humps count as one
  /// mode; "two Gaussians centred at +-1" (Fig 4) requires a real dip.
  std::size_t count_modes(double min_height = 0.25,
                          double max_valley = 0.7) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
};

/// Percentile of a sample set (linear interpolation, p in [0,100]).
double percentile(std::vector<double> xs, double p);

}  // namespace wb
