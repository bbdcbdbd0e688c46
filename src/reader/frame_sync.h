// Frame sync: the one stage that finds where a known +-1 template starts
// in a conditioned trace (paper §3.2 step 2, §3.4, §4.1).
//
// Every reader-side detector asks the same question — the plain uplink
// decoder with the Barker preamble in bit slots, the coded decoder with
// the chip-expanded preamble in chip slots, the ACK detector with its
// fixed chip pattern. For each candidate start on a tau grid the stage:
//   1. maps the packets of [tau, tau + n*slot) to slots by timestamp
//      (one map per candidate, shared by every stream);
//   2. sums each stream's packets per slot and correlates the slot means
//      against the template, normalised by the filled-slot count;
//   3. scores 0 for every stream when fewer than `min_filled` slots hold
//      a packet (the fill gate);
//   4. ranks the streams by |correlation| and scores the candidate as the
//      mean |correlation| of the top G.
// The earliest candidate with the highest score wins (strict `>`): among
// equal peaks the first one found is kept, which the decoders' tie-break
// tests pin.
//
// The caller owns everything else: the tau grid (window clamps), the
// acceptance test on the winning score, and the drop taxonomy.
#pragma once

#include <cstddef>
#include <span>

#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "util/units.h"

namespace wb::reader::frame_sync {

/// What a caller correlates against.
struct Template {
  std::span<const double> bipolar;  ///< +-1 per slot, in slot order
  TimeUs slot_us{0};                ///< bit or chip duration (> 0)
  /// Fill gate: a candidate scores only when at least this many slots
  /// hold a packet (>= 1).
  std::size_t min_filled = 1;
};

/// Candidate starts from, from + step, ... up to and including `to`.
struct Grid {
  TimeUs from{0};
  TimeUs to{0};   ///< must not precede `from`
  TimeUs step{1}; ///< steps below one tick probe every tick
};

struct Best {
  TimeUs start{0};          ///< earliest candidate with the top score
  double score = 0.0;       ///< mean |corr| of its top-G streams
  bool any_filled = false;  ///< some candidate passed the fill gate
};

/// The fill gate for "at least `fraction` of `nslots` slots filled, and
/// at least one": the smallest integer count c >= 1 with
/// c >= fraction * nslots.
std::size_t min_filled_for(double fraction, std::size_t nslots);

/// Slot map of [start, start + nslots * slot_us): ws.bin_first, the slot
/// of each window packet (ws.bin_slot_of), packets per slot
/// (ws.bin_count), ws.bin_nslots and the filled-slot count ws.bin_filled.
void bin_window(const ConditionedTrace& ct, TimeUs start_us, TimeUs slot_us,
                std::size_t nslots, DecodeWorkspace& ws);

/// Per-slot sums of `stream` over the window of the last bin_window on
/// `ws`, in ws.bin_sums. A slot mean is bin_sums[i] / bin_count[i].
void bin_stream_sums(const ConditionedTrace& ct, std::size_t stream,
                     DecodeWorkspace& ws);

/// Scores one candidate start: signed per-stream correlations in
/// ws.corrs, streams ranked by |corr| (top g first) in ws.order. Returns
/// the mean |corr| of the top g; 0 when the fill gate fails.
double score(const ConditionedTrace& ct, const Template& tmpl,
             TimeUs start_us, std::size_t g, DecodeWorkspace& ws);

/// Searches the grid (1 <= g <= ct.num_streams()). The winner's top-g
/// streams and their signed correlations are left in ws.best_streams and
/// ws.best_corrs.
Best search(const ConditionedTrace& ct, const Template& tmpl,
            const Grid& grid, std::size_t g, DecodeWorkspace& ws);

}  // namespace wb::reader::frame_sync
