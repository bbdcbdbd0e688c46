// Input synthesis for the reader benchmark: every capture the workloads
// consume is generated here, during set-up, through core::UplinkSim, and
// every transmitted payload is kept as ground truth for the checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "reader/corr_decoder.h"
#include "reader/streaming_decoder.h"
#include "reader/uplink_decoder.h"
#include "util/bits.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::perfbench {

/// Wall time spent inside UplinkSim::run during set-up.
struct SimTiming {
  double run_ns = 0.0;
  std::size_t records = 0;
};

/// One frame a tag put on air: its true start and payload.
struct TrueFrame {
  TimeUs start_us{0};
  BitVec payload;
};

// ---------------------------------------------------------- serve_ambient

/// One live session: its id and the frames it sent (its capture is
/// ServeInputs::traces[id]).
struct SessionInfo {
  std::uint32_t id = 0;
  std::vector<TrueFrame> frames;
};

/// One record of the merged live feed: which session, which record.
struct FeedRef {
  std::uint32_t session = 0;
  std::uint32_t index = 0;
};

struct ServeInputs {
  reader::StreamingDecoderConfig decoder;
  std::vector<SessionInfo> sessions;
  std::vector<wifi::CaptureTrace> traces;  ///< one per session
  /// Every session's records in global timestamp order (ties: lower id).
  std::vector<FeedRef> feed;
  /// Air-time cadence of the replay's poll() calls, and the phase of the
  /// first poll within a pass (drawn from the seed).
  TimeUs poll_cadence{0};
  TimeUs poll_phase{0};

  std::size_t records() const { return feed.size(); }
};

/// The serve scenario. The captures are a fixed scenario (they do not
/// depend on `seed`): the workload keeps frames a streaming-decoder fault
/// loses on every replay, and that loss must not vary from run to run.
/// The seed sets the poll phase.
ServeInputs make_serve_inputs(std::uint64_t seed, SimTiming& timing);

// ----------------------------------------------------------- batch_decode

/// Query-synchronised captures for one decoder, with their ground truth.
struct BatchGroup {
  std::vector<wifi::CaptureTrace> traces;
  std::vector<BitVec> payloads;

  std::size_t records() const;
};

struct BatchInputs {
  TimeUs frame_start{0};  ///< every corpus frame starts at the query lead
  reader::UplinkDecoderConfig csi_config;
  /// RSSI decoding is only timed (traced runs), over the CSI captures'
  /// RSSI fields, and its payloads go unchecked: about 1 % of RSSI frames
  /// decode with bit errors even at 1-3 cm, on some seeds and not others.
  reader::UplinkDecoderConfig rssi_config;
  reader::CodedDecoderConfig coded_config;
  BatchGroup csi;    ///< CSI captures, 5-20 cm
  BatchGroup coded;  ///< long-code (L=20) captures, 1-1.6 m

  std::size_t records() const { return csi.records() + coded.records(); }
  std::size_t traces() const {
    return csi.traces.size() + coded.traces.size();
  }
};

BatchInputs make_batch_inputs(std::uint64_t seed, SimTiming& timing);

/// Bytes of capture records held by the inputs.
std::size_t input_bytes(const ServeInputs& in);
std::size_t input_bytes(const BatchInputs& in);

}  // namespace wb::perfbench
