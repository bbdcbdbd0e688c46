#include "reader/conditioning.h"

#include <cmath>
#include <numbers>
#include <span>

#include <gtest/gtest.h>

#include "reader/decode_workspace.h"
#include "reference/scalar_conditioning.h"
#include "sim/rng.h"
#include "util/check.h"

namespace wb::reader {
namespace {

wifi::CaptureRecord record_at(TimeUs t, double csi, double rssi,
                              bool has_csi = true) {
  wifi::CaptureRecord r;
  r.timestamp_us = t;
  r.has_csi = has_csi;
  for (auto& ant : r.csi) ant.fill(csi);
  r.rssi_dbm.fill(rssi);
  return r;
}

/// One series through condition(): every RSSI antenna carries `xs`, and
/// the first conditioned stream comes back (centered and MAD-normalised;
/// the normalisation scales by a positive constant, so signs and zeros
/// survive it).
std::vector<double> condition_series(const std::vector<TimeUs>& ts,
                                     const std::vector<double>& xs,
                                     TimeUs window_us) {
  wifi::CaptureTrace trace;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    trace.push_back(record_at(ts[k], 0.0, xs[k]));
  }
  return condition(trace, MeasurementSource::kRssi, window_us).streams[0];
}

TEST(Conditioning, RemovesConstantOffset) {
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    ts.push_back(TimeUs{i * 1'000});
    xs.push_back(5.0);
  }
  const auto y = condition_series(ts, xs, TimeUs{20'000});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Conditioning, CenteredWindowHasNoBaselineCreep) {
  // Regression test for the trailing-window bug: a square wave whose
  // recent history is imbalanced (long run of ones) must keep the correct
  // sign on every bit. With a trailing window, bits after the long run
  // flipped sign.
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  // Pattern: ...101010 111111111 0 1...  each "bit" = 10 samples.
  const std::string pattern = "10101010111111111010";
  int k = 0;
  for (char c : pattern) {
    for (int i = 0; i < 10; ++i, ++k) {
      ts.push_back(TimeUs{k * 300});
      xs.push_back(c == '1' ? 1.0 : 0.0);
    }
  }
  const auto y = condition_series(ts, xs, TimeUs{30'000});  // 100 samples
  // Check the '0' bit right after the run of ones (samples 170-179) is
  // negative and the '1' bit after it positive.
  for (int i = 172; i < 178; ++i) EXPECT_LT(y[i], 0.0) << i;
  for (int i = 182; i < 188; ++i) EXPECT_GT(y[i], 0.0) << i;
}

TEST(Conditioning, TracksSlowDrift) {
  // A linear ramp (drift) is strongly suppressed.
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) {
    ts.push_back(TimeUs{i * 1'000});
    xs.push_back(0.01 * i);
  }
  const auto y = condition_series(ts, xs, TimeUs{50'000});
  for (std::size_t i = 100; i + 100 < y.size(); ++i) {
    EXPECT_NEAR(y[i], 0.0, 0.05);
  }
}

TEST(Conditioning, HandlesIrregularTimestamps) {
  std::vector<TimeUs> ts = {TimeUs{0}, TimeUs{1'000}, TimeUs{50'000},
                            TimeUs{51'000}, TimeUs{200'000}};
  std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0};
  const auto y = condition_series(ts, xs, TimeUs{10'000});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Conditioning, CsiTraceShapes) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + (i % 2), -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
  EXPECT_EQ(ct.num_packets(), 50u);
  for (const auto& s : ct.streams) {
    EXPECT_EQ(s.size(), 50u);
  }
}

TEST(Conditioning, RssiTraceHasAntennaStreams) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0 - (i % 2)));
  }
  const auto ct = condition(trace, MeasurementSource::kRssi, TimeUs{20'000});
  EXPECT_EQ(ct.num_streams(), phy::kNumAntennas);
}

TEST(Conditioning, CsiSkipsRecordsWithoutCsi) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0, i % 2 == 0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 10u);
}

TEST(Conditioning, RssiKeepsAllRecords) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0, i % 2 == 0));
  }
  const auto ct = condition(trace, MeasurementSource::kRssi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 20u);
}

TEST(Conditioning, NormalisedToUnitMeanAbs) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + 0.5 * (i % 2), -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  double mad = 0.0;
  for (double v : ct.streams[0]) mad += std::abs(v);
  mad /= static_cast<double>(ct.streams[0].size());
  EXPECT_NEAR(mad, 1.0, 1e-9);
}

TEST(Conditioning, SquareWaveMapsNearPlusMinusOne) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 400; ++i) {
    const double bit = (i / 10) % 2 ? 1.0 : 0.0;
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + bit, -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{100'000});
  // Interior samples should sit near +1 / -1 (paper §3.2's target).
  for (std::size_t i = 100; i < 300; ++i) {
    EXPECT_NEAR(std::abs(ct.streams[0][i]), 1.0, 0.25) << i;
  }
}

TEST(Conditioning, EmptyTrace) {
  const auto ct = condition({}, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 0u);
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
}

// -- stream-batched pipeline vs the scalar reference (DESIGN.md §15) -----

/// Composes the documented pipeline out of the scalar reference kernels:
/// per stream, collect -> remove_time_moving_average -> normalize_mad.
ConditionedTrace condition_scalar_reference(const wifi::CaptureTrace& trace,
                                            MeasurementSource source,
                                            TimeUs window_us) {
  ConditionedTrace out;
  const bool want_csi = source == MeasurementSource::kCsi;
  const std::size_t num_streams =
      want_csi ? wifi::kNumCsiStreams : phy::kNumAntennas;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    out.timestamps.push_back(rec.timestamp_us);
  }
  out.streams.resize(num_streams);
  std::vector<double> raw, centered;
  for (std::size_t s = 0; s < num_streams; ++s) {
    raw.clear();
    for (const auto& rec : trace) {
      if (want_csi && !rec.has_csi) continue;
      raw.push_back(want_csi ? rec.csi[s / phy::kNumSubchannels]
                                      [s % phy::kNumSubchannels]
                             : rec.rssi_dbm[s]);
    }
    centered.assign(raw.size(), 0.0);
    reference::remove_time_moving_average(
        std::span<const TimeUs>(out.timestamps), std::span<const double>(raw),
        window_us, centered);
    out.streams[s].assign(raw.size(), 0.0);
    reference::normalize_mad(centered, out.streams[s]);
  }
  return out;
}

/// Irregular but sorted timestamps so the window cursors actually move.
std::vector<TimeUs> make_ts(std::size_t n) {
  std::vector<TimeUs> ts(n);
  std::int64_t t = 0;
  for (std::size_t k = 0; k < n; ++k) {
    t += 200 + 150 * static_cast<std::int64_t>(k % 7);
    ts[k] = TimeUs{t};
  }
  return ts;
}

TEST(Conditioning, RowsMovingAverageMatchesPerColumnSpanKernel) {
  // Trace lengths around the pack width cover the batched kernels' pack
  // loops, the transpose remainder, and the single-row matrix; every
  // stream column must equal the per-column scalar kernels exactly.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{37}}) {
    const auto ts = make_ts(n);
    wifi::CaptureTrace trace;
    for (std::size_t k = 0; k < n; ++k) {
      auto r = record_at(ts[k], 0.0, 0.0);
      for (std::size_t a = 0; a < r.csi.size(); ++a) {
        for (std::size_t c = 0; c < r.csi[a].size(); ++c) {
          r.csi[a][c] =
              std::sin(0.23 * static_cast<double>(k * 97 + a * 30 + c)) +
              0.05 * static_cast<double>(c);
        }
      }
      for (std::size_t a = 0; a < r.rssi_dbm.size(); ++a) {
        r.rssi_dbm[a] = -40.0 + std::cos(0.7 * static_cast<double>(k + a));
      }
      trace.push_back(r);
    }
    for (const auto source :
         {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
      const auto got = condition(trace, source, TimeUs{2'000});
      const auto want =
          condition_scalar_reference(trace, source, TimeUs{2'000});
      ASSERT_EQ(got.streams.size(), want.streams.size());
      for (std::size_t s = 0; s < want.streams.size(); ++s) {
        EXPECT_EQ(got.streams[s], want.streams[s]) << "n " << n << " s " << s;
      }
    }
  }
}

TEST(Conditioning, BatchedPipelineBitIdenticalToScalarReference) {
  // The whole point of the stream-batched kernels: condition() must equal
  // the per-stream scalar composition EXACTLY, for CSI (with skipped
  // records) and RSSI alike.
  sim::RngStream rng(11);
  wifi::CaptureTrace trace;
  for (int i = 0; i < 300; ++i) {
    auto r = record_at(TimeUs{i * 777}, 0.0, 0.0, i % 5 != 0);
    for (auto& ant : r.csi) {
      for (auto& v : ant) v = 8.0 + rng.normal();
    }
    for (auto& v : r.rssi_dbm) v = -42.0 + rng.normal();
    trace.push_back(r);
  }
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto got = condition(trace, source, TimeUs{20'000});
    const auto want = condition_scalar_reference(trace, source, TimeUs{20'000});
    ASSERT_EQ(got.timestamps, want.timestamps);
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (std::size_t s = 0; s < want.streams.size(); ++s) {
      EXPECT_EQ(got.streams[s], want.streams[s]) << "stream " << s;
    }
  }
}

/// n records on make_ts() timestamps: every CSI and RSSI stream a
/// distinct sign-varying series scaled by `amp`, except the last CSI
/// stream and the last RSSI antenna, which hold an exact constant and so
/// center to all zeros (the degenerate-MAD case).
wifi::CaptureTrace varied_trace(std::size_t n, double amp) {
  const auto ts = make_ts(n);
  wifi::CaptureTrace trace;
  for (std::size_t k = 0; k < n; ++k) {
    auto r = record_at(ts[k], 0.0, 0.0);
    for (std::size_t a = 0; a < r.csi.size(); ++a) {
      for (std::size_t c = 0; c < r.csi[a].size(); ++c) {
        r.csi[a][c] =
            amp * std::sin(0.31 * static_cast<double>(k * 91 + a * 30 + c)) *
            (1.0 + 0.1 * static_cast<double>(c));
      }
    }
    r.csi.back().back() = 3.0;
    for (std::size_t a = 0; a + 1 < r.rssi_dbm.size(); ++a) {
      r.rssi_dbm[a] = -40.0 + amp * std::cos(0.7 * static_cast<double>(k + a));
    }
    r.rssi_dbm.back() = -40.0;
    trace.push_back(r);
  }
  return trace;
}

/// Stream s of `trace` centered by the scalar moving-average kernel.
std::vector<double> reference_centered(const wifi::CaptureTrace& trace,
                                       MeasurementSource source,
                                       std::size_t s, TimeUs window_us) {
  const bool want_csi = source == MeasurementSource::kCsi;
  std::vector<TimeUs> ts;
  std::vector<double> raw;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    ts.push_back(rec.timestamp_us);
    raw.push_back(want_csi ? rec.csi[s / phy::kNumSubchannels]
                                    [s % phy::kNumSubchannels]
                           : rec.rssi_dbm[s]);
  }
  return reference::remove_time_moving_average(ts, raw, window_us);
}

TEST(RowsKernels, MadRowsMatchesPerColumnScalar) {
  // The MAD divisors the batched path accumulates per lane column must be
  // the scalar chain: sum |centered| in packet order, divide by the packet
  // count, 1.0 for a degenerate (mad <= 0) column. Packet counts 1, 5 and
  // 37 cover the pack main loops, their remainders and the single row.
  const TimeUs w{2'000};
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{37}}) {
    const auto trace = varied_trace(n, 1.0);
    for (const auto source :
         {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
      const auto got = condition(trace, source, w);
      for (std::size_t s = 0; s < got.num_streams(); ++s) {
        const auto centered = reference_centered(trace, source, s, w);
        double acc = 0.0;
        for (double v : centered) acc += std::abs(v);
        const double mad = acc / static_cast<double>(n);
        const double divisor = mad <= 0.0 ? 1.0 : mad;
        ASSERT_EQ(got.streams[s].size(), n);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(got.streams[s][k], centered[k] / divisor)
              << "n " << n << " s " << s << " k " << k;
        }
      }
      // The constant stream centers to zeros and takes the safe divisor.
      for (double v : got.streams.back()) EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(RowsKernels, NormalizeMadRowsMatchesPerColumnSpanKernel) {
  // The divide that rides the transpose must equal the scalar span
  // normalize_mad applied to each centered column, the degenerate
  // all-zero column included (copied unchanged).
  const TimeUs w{2'000};
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{37}}) {
    const auto trace = varied_trace(n, 2.5);
    for (const auto source :
         {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
      const auto got = condition(trace, source, w);
      for (std::size_t s = 0; s < got.num_streams(); ++s) {
        const auto centered = reference_centered(trace, source, s, w);
        std::vector<double> want(centered.size(), -99.0);
        reference::normalize_mad(centered, want);
        EXPECT_EQ(got.streams[s], want) << "n " << n << " s " << s;
      }
    }
  }
}

TEST(Conditioning, FusedMadOverloadMatchesKernelSequence) {
  // condition_into fuses the MAD accumulation into the centering sweep;
  // on a reused workspace it must still equal the separate kernel
  // sequence (center, then MAD, then divide), so no divisor or window
  // sum may carry over from a longer, larger-amplitude earlier trace.
  const TimeUs w{2'000};
  DecodeWorkspace ws;
  ConditionedTrace out;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    condition_into(varied_trace(37, 40.0), source, w, ws, out);
    const auto trace = varied_trace(5, 0.5);
    condition_into(trace, source, w, ws, out);
    const auto want = condition_scalar_reference(trace, source, w);
    ASSERT_EQ(out.timestamps, want.timestamps);
    ASSERT_EQ(out.streams.size(), want.streams.size());
    for (std::size_t s = 0; s < want.streams.size(); ++s) {
      EXPECT_EQ(out.streams[s], want.streams[s]) << "stream " << s;
    }
  }
}

TEST(Conditioning, SinglePacketTrace) {
  wifi::CaptureTrace trace;
  trace.push_back(record_at(TimeUs{1'000}, 4.0, -40.0));
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 1u);
  // One sample: the moving average equals the sample, so every stream
  // conditions to exactly zero.
  for (const auto& s : ct.streams) {
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0], 0.0);
  }
}

TEST(Conditioning, AllZeroStreamsSurviveConditioning) {
  // Zero CSI and RSSI everywhere: centered is zero, the MAD divisor
  // degenerates to the safe 1.0, and the output is exact zeros (no NaNs).
  wifi::CaptureTrace trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 0.0, 0.0));
  }
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto ct = condition(trace, source, TimeUs{20'000});
    for (const auto& s : ct.streams) {
      for (double v : s) EXPECT_EQ(v, 0.0);
    }
  }
}

// -- the scalar reference kernels themselves ----------------------------
// The bit-identity tests above are only as good as their oracle, so the
// reference kernels keep their own behavioural pins.

/// n timestamps one microsecond apart.
std::vector<TimeUs> unit_ts(std::size_t n) {
  std::vector<TimeUs> ts(n);
  for (std::size_t i = 0; i < n; ++i) {
    ts[i] = TimeUs{static_cast<std::int64_t>(i)};
  }
  return ts;
}

TEST(RemoveMovingAverage, RemovesDcOffset) {
  const std::vector<double> x(100, 3.0);
  const auto y =
      reference::remove_time_moving_average(unit_ts(100), x, TimeUs{10});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(RemoveMovingAverage, PreservesFastSquareWave) {
  // A +-1 square wave with period << window survives (attenuated but with
  // correct signs) while its DC offset is removed.
  std::vector<double> x;
  for (int i = 0; i < 200; ++i) x.push_back(10.0 + ((i / 2) % 2 ? 1.0 : -1.0));
  const auto y =
      reference::remove_time_moving_average(unit_ts(200), x, TimeUs{40});
  for (std::size_t i = 50; i < y.size(); ++i) {
    const double expected_sign = ((i / 2) % 2 ? 1.0 : -1.0);
    EXPECT_GT(y[i] * expected_sign, 0.0) << i;
  }
}

TEST(RemoveMovingAverage, SinusoidalDriftSuppressed) {
  // Slow sinusoid (period 10x the window) is strongly attenuated.
  std::vector<double> x;
  const std::size_t n = 1'000;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back(std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                         1'000.0));
  }
  const auto y =
      reference::remove_time_moving_average(unit_ts(n), x, TimeUs{100});
  double max_abs = 0.0;
  for (std::size_t i = 100; i < n; ++i) {
    max_abs = std::max(max_abs, std::abs(y[i]));
  }
  EXPECT_LT(max_abs, 0.45);  // raw amplitude was 1.0
}

TEST(NormalizeMad, UnitMeanAbsolute) {
  const std::vector<double> x = {1.0, -3.0, 2.0, -2.0};
  const auto y = reference::normalize_mad(x);
  double mad = 0.0;
  for (double v : y) mad += std::abs(v);
  mad /= static_cast<double>(y.size());
  EXPECT_NEAR(mad, 1.0, 1e-12);
}

TEST(NormalizeMad, AllZerosUnchanged) {
  const std::vector<double> x = {0.0, 0.0, 0.0};
  const auto y = reference::normalize_mad(x);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NormalizeMad, PreservesSignPattern) {
  const std::vector<double> x = {5.0, -1.0, 0.5};
  const auto y = reference::normalize_mad(x);
  EXPECT_GT(y[0], 0.0);
  EXPECT_LT(y[1], 0.0);
  EXPECT_GT(y[2], 0.0);
}

TEST(SpanVariants, BitIdenticalToAllocatingWrappers) {
  // The span-out kernels and their allocating wrappers (which the frozen
  // seed baseline in bench_decoder_micro calls) run the same arithmetic
  // in the same order — compare EXACTLY.
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(std::sin(0.37 * i) * (1.0 + 0.01 * i));
  }
  const auto ts = make_ts(xs.size());

  const auto rm_ref =
      reference::remove_time_moving_average(ts, xs, TimeUs{2'000});
  std::vector<double> rm_out(xs.size(), -99.0);
  reference::remove_time_moving_average(std::span<const TimeUs>(ts),
                                        std::span<const double>(xs),
                                        TimeUs{2'000}, rm_out);
  EXPECT_EQ(rm_ref, rm_out);

  const auto nm_ref = reference::normalize_mad(xs);
  std::vector<double> nm_out(xs.size(), -99.0);
  reference::normalize_mad(xs, nm_out);
  EXPECT_EQ(nm_ref, nm_out);
}

TEST(SpanVariants, NormalizeMadMayAliasItsInput) {
  std::vector<double> xs = {1.0, -2.0, 3.0, -4.0};
  const auto ref = reference::normalize_mad(xs);
  reference::normalize_mad(xs, xs);  // in place
  EXPECT_EQ(ref, xs);
}

TEST(SpanVariants, AliasingInputAndOutputIsRejected) {
  // The span-out kernels document their aliasing contracts; under the
  // throwing policy a violation must surface as ContractViolation, not as
  // silently wrong numbers.
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  std::vector<double> xs(16, 1.0);
  const auto ts = unit_ts(xs.size());

  // remove_time_moving_average: any overlap is banned (the sliding window
  // re-reads behind the cursor).
  EXPECT_THROW(reference::remove_time_moving_average(
                   std::span<const TimeUs>(ts), std::span<const double>(xs),
                   TimeUs{4}, std::span<double>(xs)),
               ContractViolation);
  EXPECT_THROW(reference::remove_time_moving_average(
                   std::span<const TimeUs>(ts.data(), 8),
                   std::span<const double>(xs.data(), 8), TimeUs{4},
                   std::span<double>(xs.data() + 4, 8)),
               ContractViolation);

  // normalize_mad: full alias is fine (tested above), partial is not.
  EXPECT_THROW(reference::normalize_mad(std::span<const double>(xs.data(), 8),
                                        std::span<double>(xs.data() + 4, 8)),
               ContractViolation);
}

}  // namespace
}  // namespace wb::reader
