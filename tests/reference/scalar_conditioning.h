// Per-column scalar conditioning kernels: the bit-identity oracle for the
// stream-batched production path (src/reader/conditioning.cpp) and the
// frozen scalar baseline of bench_decoder_micro's conditioning_seed and
// conditioning_scalar rows.
//
// These are the kernels the reader shipped before conditioning was
// batched across streams, kept verbatim: one series at a time, moving
// average removal over a centered time window, then normalisation by the
// mean absolute value. condition()/condition_into() must reproduce them
// EXACTLY per stream (tests/test_reader_conditioning.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/units.h"

namespace wb::reference {

/// True when the double ranges [a, a+an) and [b, b+bn) share any element.
inline bool spans_overlap(const double* a, std::size_t an, const double* b,
                          std::size_t bn) {
  if (an == 0 || bn == 0) return false;
  const std::less<const double*> lt;
  return lt(a, b + bn) && lt(b, a + an);
}

/// y_k = x_k - mean{x_j : t_j in [t_k - window/2, t_k + window/2]}.
/// `out.size()` must equal `xs.size()`; `out` must not alias `xs` (the
/// sliding window re-reads samples behind the cursor).
inline void remove_time_moving_average(std::span<const TimeUs> ts,
                                       std::span<const double> xs,
                                       TimeUs window_us,
                                       std::span<double> out) {
  WB_REQUIRE(ts.size() == xs.size(),
             "one measurement per timestamp is required");
  WB_REQUIRE(out.size() == xs.size(), "output must cover every sample");
  WB_REQUIRE(!spans_overlap(xs.data(), xs.size(), out.data(), out.size()),
             "out must not alias xs: the sliding window re-reads samples "
             "behind the cursor");
  WB_REQUIRE(window_us > TimeUs{},
             "moving-average window must be positive");
  WB_REQUIRE(std::is_sorted(ts.begin(), ts.end()),
             "capture timestamps must be non-decreasing");
  // Centered window. The paper's receiver subtracts a trailing 400 ms
  // average online; decoding offline we can center the same window, which
  // removes identical drift but avoids the trailing window's
  // data-dependent baseline creep (a trailing average over a frame edge
  // contains a varying mix of modulated and quiescent samples, which can
  // flip the apparent sign of bits after locally imbalanced runs).
  const TimeUs half = window_us / 2;
  std::size_t head = 0;  // first index inside [t_k - half, t_k + half]
  std::size_t tail = 0;  // one past the last index inside
  double sum = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    while (tail < xs.size() && ts[tail] <= ts[k] + half) {
      sum += xs[tail];
      ++tail;
    }
    while (ts[head] < ts[k] - half) {
      sum -= xs[head];
      ++head;
    }
    const double mean = sum / static_cast<double>(tail - head);
    out[k] = xs[k] - mean;
  }
}

inline std::vector<double> remove_time_moving_average(
    const std::vector<TimeUs>& ts, const std::vector<double>& xs,
    TimeUs window_us) {
  std::vector<double> out(xs.size());
  remove_time_moving_average(std::span<const TimeUs>(ts),
                             std::span<const double>(xs), window_us, out);
  return out;
}

/// Divide a zero-mean series by its mean absolute value so a tag 'one'
/// maps near +1 and a 'zero' near -1; an all-zero series is copied
/// unchanged. `out` may fully alias `x` (in place) but must not partially
/// overlap it: the divide pass would read elements it already overwrote.
inline void normalize_mad(std::span<const double> x, std::span<double> out) {
  WB_REQUIRE(out.size() == x.size(), "output must cover every sample");
  WB_REQUIRE(out.data() == x.data() ||
                 !spans_overlap(x.data(), x.size(), out.data(), out.size()),
             "out must fully alias x (in-place) or not overlap at all: a "
             "partial overlap makes the divide pass read elements it "
             "already overwrote");
  double mad = 0.0;
  for (double v : x) mad += std::abs(v);
  if (x.empty()) return;
  mad /= static_cast<double>(x.size());
  if (mad <= 0.0) {
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] / mad;
}

inline std::vector<double> normalize_mad(std::span<const double> x) {
  std::vector<double> out(x.size());
  normalize_mad(x, out);
  return out;
}

}  // namespace wb::reference
