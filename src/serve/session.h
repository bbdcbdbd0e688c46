// Per-stream serving state: a Session owns one StreamingUplinkDecoder,
// bounded result storage, and a private forensics sink, so any number of
// concurrent backscatter streams decode independently with
// byte-identical per-session output regardless of how the service
// interleaves or parallelises them.
//
// Lifecycle (driven by CaptureService):
//
//   kDetached --attach()--> kAttached --first consume--> kActive
//      ^                                                     |
//      |                   flush()  <---- begin_drain() ------
//      +---- detach() ---- (kDraining)          (drain-and-continue
//                                                returns to kActive)
//
// A session stages nothing: it decodes its records straight out of the
// service's IngestRing. Memory is bounded by ServeConfig at construction:
// the kept-frames ring is preallocated and written by index — nothing in
// a session grows with stream length, and after the first wrap of a
// payload slot the frame-copy path stops allocating (the BENCH_serve
// gate measures this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/forensics.h"
#include "reader/streaming_decoder.h"
#include "serve/ingest_ring.h"
#include "util/bits.h"
#include "util/units.h"

namespace wb::serve {

struct ServeConfig;

enum class SessionState : std::uint8_t {
  kDetached,  ///< slot free; no stream bound
  kAttached,  ///< stream bound; no record dispatched yet
  kActive,    ///< records flowing through the decoder
  kDraining,  ///< flush in progress (transient)
};

/// Stable snake-case token (properties/export surface).
inline const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kDetached: return "detached";
    case SessionState::kAttached: return "attached";
    case SessionState::kActive: return "active";
    case SessionState::kDraining: return "draining";
  }
  return "unknown";
}

/// Bounded copy of one decoded frame (the streaming decoder's result is
/// scratch — sessions copy what the serving layer reports and nothing
/// more).
struct DecodedFrame {
  std::uint64_t ordinal = 0;  ///< 0-based emit index within the session
  TimeUs start_us{0};
  double sync_score = 0.0;
  std::size_t packets_used = 0;
  BitVec payload;
};

class Session final : public reader::FrameSink {
 public:
  /// Takes the decoder, frame_capacity and forensics_exemplar_cap.
  explicit Session(const ServeConfig& cfg);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- lifecycle (CaptureService only) ----

  /// kDetached -> kAttached: binds `id`, resets the decoder (keeping its
  /// warmed capacity) and starts a fresh forensics sink.
  void attach(std::uint32_t id);

  /// -> kDetached: the slot is reusable. The caller is responsible for
  /// flushing and retiring the forensics sink first.
  void detach();

  std::uint32_t id() const noexcept { return id_; }
  SessionState state() const noexcept { return state_; }

  // ---- data path ----

  /// Pushes, in ring order, every ring item tagged with this session's
  /// id through the streaming decoder; returns how many it consumed.
  /// Installs the session's own observability environment (its forensics
  /// sink; caller-thread metrics and flight recorder suppressed) so
  /// decode side effects are identical whether this runs inline or on a
  /// worker thread. Safe to call concurrently with other sessions'
  /// consume() of the same ring — the ring is only read, and all state
  /// written is per-session.
  std::size_t consume(const IngestRing& ring);

  /// Flushes the streaming decoder (final scan over the buffered tail).
  /// Returns frames emitted. The session stays attached (kActive) and
  /// may keep receiving records.
  std::size_t flush();

  // ---- results ----

  /// Total frames ever emitted by this session since attach.
  std::uint64_t frames_total() const noexcept { return frames_total_; }
  /// Frames currently retained (<= frame_capacity).
  std::size_t frames_kept() const noexcept;
  /// i-th oldest retained frame, i < frames_kept().
  const DecodedFrame& frame(std::size_t i) const;
  /// Records ever consumed through the decoder since attach.
  std::uint64_t records_dispatched() const noexcept {
    return records_dispatched_;
  }

  /// The session's private sink (ledger + drops for its decode stages).
  const obs::ForensicsSink& forensics_sink() const { return *sink_; }

  /// Deterministic per-session decode output: one JSON object per
  /// retained frame, oldest first —
  /// {"type":"frame","session":S,"ordinal":N,"start_us":T,
  ///  "sync_score":X,"packets_used":P,"payload":"0101..."}
  std::string frames_jsonl() const;

  /// reader::FrameSink: copies the scratch result into the frame ring.
  void on_frame(const reader::UplinkDecodeResult& frame) override;

 private:
  reader::StreamingUplinkDecoder decoder_;
  std::size_t exemplar_cap_;
  std::uint32_t id_ = 0;
  SessionState state_ = SessionState::kDetached;

  std::vector<DecodedFrame> frames_;  ///< preallocated ring
  std::uint64_t frames_total_ = 0;
  std::uint64_t records_dispatched_ = 0;
  std::unique_ptr<obs::ForensicsSink> sink_;  ///< fresh per attach
};

}  // namespace wb::serve
