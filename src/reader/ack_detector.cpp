#include "reader/ack_detector.h"

#include <algorithm>
#include <vector>

#include "obs/flight_recorder.h"
#include "reader/decode_workspace.h"
#include "reader/frame_sync.h"
#include "util/check.h"

namespace wb::reader {

AckDetection detect_ack(const ConditionedTrace& ct, const AckConfig& cfg,
                        TimeUs expected_start_us) {
  WB_REQUIRE(!cfg.pattern.empty(), "ACK pattern must be non-empty");
  WB_REQUIRE(cfg.chip_duration_us > TimeUs{});
  WB_REQUIRE(cfg.jitter_us >= TimeUs{});
  auto* fx = obs::forensics();
  if (fx != nullptr) fx->record_attempt(obs::DropStage::kAckDetector);
  const auto drop = [&](AckDetection& out, obs::DropReason reason) {
    out.drop_reason = reason;
    if (fx != nullptr) fx->record_drop(obs::DropStage::kAckDetector, reason);
    if (auto* rec = obs::recorder()) {
      rec->log(expected_start_us, obs::Severity::kWarn, "reader.ack",
               obs::to_string(reason), {{"score", out.score}});
    }
  };
  AckDetection out;
  if (ct.num_packets() == 0) {
    drop(out, obs::DropReason::kEmptyTrace);
    return out;
  }

  // The shared sync stage with G = 1: the score of a window is the best
  // single stream's |correlation|. The ACK's fill gate is an integer rule
  // — at least nchips / 2 chips (rounded down) must hold a packet.
  bool any_scored = false;
  if (ct.num_streams() > 0) {
    std::vector<double> bipolar(cfg.pattern.size());
    for (std::size_t c = 0; c < bipolar.size(); ++c) {
      bipolar[c] = cfg.pattern[c] ? 1.0 : -1.0;
    }
    const frame_sync::Template tmpl{
        bipolar, cfg.chip_duration_us,
        std::max<std::size_t>(cfg.pattern.size() / 2, 1)};
    DecodeWorkspace ws;
    const frame_sync::Best best = frame_sync::search(
        ct, tmpl,
        {expected_start_us - cfg.jitter_us, expected_start_us + cfg.jitter_us,
         cfg.chip_duration_us / 4},
        1, ws);
    any_scored = best.any_filled;
    if (best.score > 0.0) {
      out.score = best.score;
      out.at_us = best.start;
    }
  }
  out.detected = out.score >= cfg.threshold;
  if (out.detected) {
    if (fx != nullptr) fx->record_decode(obs::DropStage::kAckDetector);
  } else {
    // Never scoring a window means no chip pattern was ever visible in
    // the search region; scoring below threshold means it was there but
    // too faint to trust.
    drop(out, any_scored ? obs::DropReason::kLowSnr
                         : obs::DropReason::kNoPreamble);
  }
  return out;
}

AckDetection detect_ack(const wifi::CaptureTrace& trace,
                        const AckConfig& cfg, TimeUs expected_start_us) {
  return detect_ack(condition(trace, MeasurementSource::kCsi), cfg,
                    expected_start_us);
}

}  // namespace wb::reader
