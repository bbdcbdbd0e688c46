// Correctness checks of the reader benchmark. Every check compares the
// program's outputs against ground truth the set-up generated (or against
// an independent path through the program); none compares against a
// stored copy of earlier output. Each returns the list of violations it
// found, empty when the outputs are correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace wb::perfbench {

using Violations = std::vector<std::string>;

/// A frame some decoder emitted: start and payload.
struct EmittedFrame {
  TimeUs start_us{0};
  BitVec payload;
};

/// batch_decode: decoded payload `i` (nullptr when sync failed) must equal
/// transmitted payload `i`.
Violations check_batch_payloads(const char* decoder,
                                const std::vector<BitVec>& sent,
                                const std::vector<const BitVec*>& decoded);

/// How the frames one session emitted line up with what it transmitted.
struct FrameMatch {
  std::size_t transmitted = 0;
  std::size_t recovered = 0;  ///< exact payload, start within one bit
  /// Lost because an emitted frame that starts inside the frame before it
  /// and overlaps its preamble moved the streaming decoder's consumed
  /// point past the true start (the partial-preamble fault).
  std::size_t partial_preamble_losses = 0;
  std::size_t spurious = 0;    ///< emitted frames matching no transmission
  /// Air time from frame end to emission, one per recovered frame.
  std::vector<TimeUs> delays;
};

/// serve_ambient: match one session's emitted frames against its true
/// frames. `emitted_at[i]` is the air time at which frame `i` was first
/// seen emitted. Violations: a frame synced within one bit of a true start
/// whose payload differs (recovered frames must be bit-exact), and a lost
/// frame the partial-preamble fault does not explain.
Violations match_frames(const std::vector<TrueFrame>& truth,
                        const std::vector<EmittedFrame>& emitted,
                        const std::vector<TimeUs>& emitted_at,
                        TimeUs bit_us, TimeUs frame_dur, FrameMatch& out);

/// The service's frame list for one session must equal the standalone
/// StreamingUplinkDecoder replay of that session (DESIGN.md §14).
Violations check_same_frames(std::uint32_t session,
                             const std::vector<EmittedFrame>& service,
                             const std::vector<EmittedFrame>& standalone);

/// The merged ingest ledger and service counters after a replay.
struct LedgerView {
  std::uint64_t attempts = 0;
  std::uint64_t decodes = 0;
  std::uint64_t drops = 0;
  std::uint64_t backpressure_drops = 0;
  std::uint64_t routed = 0;
  std::uint64_t submitted = 0;
};

/// attempts == decodes + drops, no backpressure drop, routed == submitted.
Violations check_ledger(const LedgerView& ledger);

}  // namespace wb::perfbench
