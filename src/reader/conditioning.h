// Signal conditioning (paper §3.2, step 1): turn raw per-packet channel
// measurements into zero-mean, normalised series the rest of the decoder
// can threshold.
//
//   1. subtract a 400 ms moving average (computed over *time*, not packet
//      count — the medium is bursty) to remove environmental drift;
//   2. normalise by the mean absolute value so a tag 'one' maps near +1
//      and a 'zero' near -1 without knowing the transmitted bits.
//
// The same conditioning applies to CSI streams (90 of them: 30
// sub-channels x 3 antennas) and RSSI streams (one per antenna); the
// decoder treats every stream identically after this stage.
#pragma once

#include <vector>

#include "util/check.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

struct DecodeWorkspace;  // decode_workspace.h

/// Conditioned measurement series: one value per captured packet per
/// stream, plus the shared packet timestamps.
struct ConditionedTrace {
  std::vector<TimeUs> timestamps;            ///< per packet
  std::vector<std::vector<double>> streams;  ///< [stream][packet]

  std::size_t num_packets() const { return timestamps.size(); }
  std::size_t num_streams() const { return streams.size(); }
};

/// Which NIC measurement feeds the decoder.
enum class MeasurementSource {
  kCsi,   ///< 30 sub-channels x 3 antennas (records without CSI skipped)
  kRssi,  ///< per-antenna RSSI in dB
};

/// Condition a capture trace: moving-average removal (window in
/// microseconds, paper uses 400 ms) followed by mean-absolute-value
/// normalisation per stream.
ConditionedTrace condition(const wifi::CaptureTrace& trace,
                           MeasurementSource source,
                           TimeUs movavg_window_us = TimeUs{400'000});

/// Allocation-free variant of condition(): raw collection and the
/// moving-average scratch live in `ws` (decode_workspace.h), the result is
/// written into `out` reusing its capacity. Bit-identical to condition().
WB_REALTIME void condition_into(const wifi::CaptureTrace& trace,
                                MeasurementSource source,
                                TimeUs movavg_window_us, DecodeWorkspace& ws,
                                ConditionedTrace& out);

}  // namespace wb::reader
