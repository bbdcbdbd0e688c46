#include "serve/session.h"

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/capture_service.h"
#include "util/check.h"

namespace wb::serve {

namespace {

/// The session's own observability environment: frames/drops land in the
/// private sink; caller-thread metrics and flight recorder are suppressed
/// so an inline (threads=1) dispatch has exactly the side effects of a
/// worker-thread one.
struct SessionObsScope {
  explicit SessionObsScope(obs::ForensicsSink& sink) : fx(sink) {}
  const obs::ScopedForensics fx;
  const obs::ScopedFlightRecorder no_rec{nullptr};
  const obs::ScopedMetrics no_metrics{
      static_cast<obs::MetricsRegistry*>(nullptr)};
};

}  // namespace

Session::Session(const ServeConfig& cfg)
    : decoder_(cfg.decoder),
      exemplar_cap_(cfg.forensics_exemplar_cap),
      frames_(cfg.frame_capacity),
      sink_(std::make_unique<obs::ForensicsSink>(exemplar_cap_)) {
  WB_REQUIRE(cfg.frame_capacity > 0,
             "session frame capacity must be positive");
}

void Session::attach(std::uint32_t id) {
  WB_REQUIRE(state_ == SessionState::kDetached,
             "attach on a slot that is not free");
  id_ = id;
  state_ = SessionState::kAttached;
  frames_total_ = 0;
  records_dispatched_ = 0;
  decoder_.reset();  // keeps warmed buffer/workspace capacity
  // Fresh ledger per stream; the previous sink was retired by the
  // service before detach().
  sink_ = std::make_unique<obs::ForensicsSink>(exemplar_cap_);
}

void Session::detach() {
  WB_REQUIRE(state_ != SessionState::kDetached, "detach on a free slot");
  state_ = SessionState::kDetached;
}

std::size_t Session::consume(const IngestRing& ring) {
  WB_REQUIRE(state_ == SessionState::kAttached ||
                 state_ == SessionState::kActive,
             "consume on a session that is not serving");
  const SessionObsScope scope(*sink_);
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const IngestItem& item = ring.at(i);
    if (item.session != id_) continue;
    decoder_.push(item.record, *this);
    ++consumed;
  }
  if (consumed > 0) {
    records_dispatched_ += consumed;
    state_ = SessionState::kActive;
  }
  return consumed;
}

std::size_t Session::flush() {
  WB_REQUIRE(state_ == SessionState::kAttached ||
                 state_ == SessionState::kActive,
             "flush on a session that is not serving");
  state_ = SessionState::kDraining;
  std::size_t frames = 0;
  {
    const SessionObsScope scope(*sink_);
    frames = decoder_.flush(*this);
  }
  state_ = records_dispatched_ > 0 ? SessionState::kActive
                                   : SessionState::kAttached;
  return frames;
}

std::size_t Session::frames_kept() const noexcept {
  return frames_total_ < frames_.size()
             ? static_cast<std::size_t>(frames_total_)
             : frames_.size();
}

const DecodedFrame& Session::frame(std::size_t i) const {
  WB_REQUIRE(i < frames_kept(), "frame index out of range");
  const std::uint64_t oldest = frames_total_ - frames_kept();
  return frames_[(oldest + i) % frames_.size()];
}

std::string Session::frames_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < frames_kept(); ++i) {
    const DecodedFrame& f = frame(i);
    out += "{\"type\":\"frame\",\"session\":";
    out += std::to_string(id_);
    out += ",\"ordinal\":";
    out += std::to_string(f.ordinal);
    out += ",\"start_us\":";
    out += std::to_string(f.start_us.ticks());
    out += ",\"sync_score\":";
    out += obs::json_number(f.sync_score);
    out += ",\"packets_used\":";
    out += std::to_string(f.packets_used);
    out += ",\"payload\":\"";
    for (const auto bit : f.payload) out += bit != 0 ? '1' : '0';
    out += "\"}\n";
  }
  return out;
}

void Session::on_frame(const reader::UplinkDecodeResult& frame) {
  DecodedFrame& slot = frames_[frames_total_ % frames_.size()];
  slot.ordinal = frames_total_;
  slot.start_us = frame.start_us;
  slot.sync_score = frame.sync_score;
  slot.packets_used = frame.packets_used;
  slot.payload = frame.payload;  // copy-assign: slot capacity is reused
  ++frames_total_;
}

}  // namespace wb::serve
