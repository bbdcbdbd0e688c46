#include "checks.h"

namespace wb::perfbench {
namespace {

TimeUs distance(TimeUs a, TimeUs b) { return a > b ? a - b : b - a; }

}  // namespace

Violations check_batch_payloads(const char* decoder,
                                const std::vector<BitVec>& sent,
                                const std::vector<const BitVec*>& decoded) {
  Violations v;
  if (sent.size() != decoded.size()) {
    v.push_back(std::string(decoder) + ": " + std::to_string(decoded.size()) +
                " results for " + std::to_string(sent.size()) + " traces");
    return v;
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (decoded[i] == nullptr) {
      v.push_back(std::string(decoder) + " trace " + std::to_string(i) +
                  ": no frame found");
    } else if (*decoded[i] != sent[i]) {
      v.push_back(std::string(decoder) + " trace " + std::to_string(i) +
                  ": payload differs from the transmitted one");
    }
  }
  return v;
}

Violations match_frames(const std::vector<TrueFrame>& truth,
                        const std::vector<EmittedFrame>& emitted,
                        const std::vector<TimeUs>& emitted_at,
                        TimeUs bit_us, TimeUs frame_dur, FrameMatch& out) {
  Violations v;
  out = FrameMatch{};
  out.transmitted = truth.size();
  std::vector<bool> used(emitted.size(), false);
  for (std::size_t t = 0; t < truth.size(); ++t) {
    const TrueFrame& f = truth[t];
    bool recovered = false;
    bool partial_loss = false;
    for (std::size_t e = 0; e < emitted.size(); ++e) {
      const TimeUs start = emitted[e].start_us;
      if (distance(start, f.start_us) <= bit_us) {
        used[e] = true;
        if (emitted[e].payload == f.payload) {
          recovered = true;
          out.delays.push_back(emitted_at[e] - (f.start_us + frame_dur));
        } else {
          v.push_back("frame at " + std::to_string(f.start_us.ticks()) +
                      " us synced but its payload differs");
        }
      } else if (start < f.start_us && start + frame_dur > f.start_us) {
        partial_loss = true;
      }
    }
    if (recovered) {
      ++out.recovered;
    } else if (partial_loss) {
      ++out.partial_preamble_losses;
    } else {
      v.push_back("frame at " + std::to_string(f.start_us.ticks()) +
                  " us lost with no overlapping earlier emission");
    }
  }
  for (const bool u : used) {
    if (!u) ++out.spurious;
  }
  return v;
}

Violations check_same_frames(std::uint32_t session,
                             const std::vector<EmittedFrame>& service,
                             const std::vector<EmittedFrame>& standalone) {
  Violations v;
  if (service.size() != standalone.size()) {
    v.push_back("session " + std::to_string(session) + ": service emitted " +
                std::to_string(service.size()) +
                " frames, standalone replay " +
                std::to_string(standalone.size()));
    return v;
  }
  for (std::size_t i = 0; i < service.size(); ++i) {
    if (service[i].start_us != standalone[i].start_us ||
        service[i].payload != standalone[i].payload) {
      v.push_back("session " + std::to_string(session) + " frame " +
                  std::to_string(i) + ": service and standalone replay differ");
    }
  }
  return v;
}

Violations check_ledger(const LedgerView& l) {
  Violations v;
  if (l.attempts != l.decodes + l.drops) {
    v.push_back("ingest ledger: attempts " + std::to_string(l.attempts) +
                " != decodes " + std::to_string(l.decodes) + " + drops " +
                std::to_string(l.drops));
  }
  if (l.backpressure_drops != 0) {
    v.push_back("ingest ledger: " + std::to_string(l.backpressure_drops) +
                " backpressure drops under the block-producer policy");
  }
  if (l.routed != l.submitted) {
    v.push_back("service counters: routed " + std::to_string(l.routed) +
                " != submitted " + std::to_string(l.submitted));
  }
  return v;
}

}  // namespace wb::perfbench
